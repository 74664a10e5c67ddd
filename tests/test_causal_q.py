"""Front-door identification and fitted mediator-Q against the DP oracles."""

import numpy as np
import pytest

from conftest import episodes, read_qm_csv, repeated, value_from_qm
from latentsafe.data import convert_dataset, empirical_offline_tables, generate_offline
from latentsafe.envs import build_mediator_toy_env
from latentsafe.errors import (
    EpisodeEndError,
    FittedQConvergenceError,
    PositivityError,
    UnsupportedEnvironmentError,
)
from latentsafe.frontdoor import (
    exact_offline_tables,
    fitted_q_table,
    fitted_qm,
    front_door_online_kernel,
)
from latentsafe.mdp import (
    AugmentedState,
    ConfoundedMdpModel,
    MediatorModel,
    TabularPolicy,
    absorbing_online_matrix,
    uniform_policy,
)
from latentsafe.oracle import q_dp, qm_dp, value_dp


@pytest.fixture(scope="module")
def toy():
    env = build_mediator_toy_env(horizon=3)
    pi = uniform_policy(env.model.n_states, env.model.n_actions)
    tables = exact_offline_tables(env.model, env.mediator, env.behavioral)
    return env, pi, tables


class TestFrontDoorKernel:
    def test_exact_tables_recover_online_kernel(self, toy):
        env, _, tables = toy
        absorbing = absorbing_online_matrix(env.model)
        for k in range(1, env.model.horizon + 1):
            for x in range(env.model.n_states):
                for u in range(env.model.n_actions):
                    row = front_door_online_kernel(tables, AugmentedState(x, k), u)
                    assert np.max(np.abs(row - absorbing[x, u])) < 1e-12

    def test_rows_sum_to_one(self, toy, mediator_tables_100k):
        _, _, exact = toy
        for tables in (exact, mediator_tables_100k):
            for k in range(1, 4):
                for x in range(2):
                    for u in range(2):
                        if not tables.seen_state[k, x]:
                            continue
                        row = front_door_online_kernel(tables, AugmentedState(x, k), u)
                        assert abs(row.sum() - 1.0) < 1e-9

    def test_collapses_when_unconfounded(self):
        """Latent-free behavioral policy plus a deterministic mediator reduce
        the double sum to the plain offline row."""
        base = build_mediator_toy_env(horizon=2)
        identity = np.zeros((2, 2, 2))
        identity[:, 0, 0] = 1.0
        identity[:, 1, 1] = 1.0
        mediator = MediatorModel(
            mediator_dist=identity,
            mediated_transition=base.mediator.mediated_transition,
        )
        direct = np.einsum("xum,xmwy->xuwy", identity, mediator.mediated_transition)
        model = ConfoundedMdpModel(
            transition=direct,
            latent_dist=base.model.latent_dist,
            horizon=2,
            safe=base.model.safe,
            action_values=(0, 1),
        )
        behavioral = TabularPolicy(table=np.full((2, 2, 2), 0.5))
        tables = exact_offline_tables(model, mediator, behavioral)
        for x in range(2):
            for u in range(2):
                row = front_door_online_kernel(tables, AugmentedState(x, 1), u)
                assert np.max(np.abs(row - tables.next_law[1, x, u, u])) < 1e-12

    def test_empirical_tables_close_to_truth(self, toy, mediator_tables_100k):
        env, _, _ = toy
        absorbing = absorbing_online_matrix(env.model)
        for k in range(1, 4):
            for x in range(2):
                for u in range(2):
                    if mediator_tables_100k.p_action(k, x) is None:
                        continue
                    row = front_door_online_kernel(
                        mediator_tables_100k, AugmentedState(x, k), u
                    )
                    assert np.max(np.abs(row - absorbing[x, u])) < 1e-2

    def test_absent_cell_raises(self, toy):
        env, _, _ = toy
        empty = episodes("converted", np.zeros((0, 4)), np.zeros((0, 4)))
        tables = empirical_offline_tables(empty, env.model, env.mediator)
        with pytest.raises(PositivityError):
            front_door_online_kernel(tables, AugmentedState(0, 3), 1)

    def test_no_time_remaining(self, toy):
        _, _, tables = toy
        with pytest.raises(EpisodeEndError):
            front_door_online_kernel(tables, AugmentedState(0, 0), 0)


class TestFittedQm:
    def test_exact_expectation_matches_oracle(self, toy):
        env, pi, tables = toy
        oracle = qm_dp(env.model, env.mediator, pi)
        fit = fitted_qm(env.model, pi, tables, tolerance=1e-10, max_iters=100)
        assert fit.iterations <= env.model.horizon + 1
        assert fit.residual <= 1e-10
        assert np.max(np.abs(fit.values - oracle.values)) < 1e-10

    def test_loose_tolerance_still_reaches_fixed_point(self, toy):
        """The tolerance judges only what one more row would add once the
        row cap stops the pass; it never ends the pass early."""
        env, pi, tables = toy
        loose = fitted_qm(env.model, pi, tables, tolerance=0.95)
        default = fitted_qm(env.model, pi, tables)
        assert loose.iterations == default.iterations == env.model.horizon + 1
        assert np.array_equal(loose.values, default.values)

    def test_sampled_close_to_oracle_on_visited_cells(self, toy, mediator_tables_100k):
        env, pi, _ = toy
        oracle = qm_dp(env.model, env.mediator, pi)
        fit = fitted_qm(env.model, pi, mediator_tables_100k)
        gaps = np.abs(fit.values - oracle.values)[fit.visited]
        assert float(gaps.max()) < 2e-2

    def test_unsafe_only_data_fits_to_zero(self, mediator_toy):
        pi = uniform_policy(2, 2)
        raw = generate_offline(
            mediator_toy.model,
            mediator_toy.behavioral,
            50,
            x0=1,
            seed=13,
            mediator=mediator_toy.mediator,
        )
        conv = convert_dataset(raw, mediator_toy.model.safe)
        tables = empirical_offline_tables(conv, mediator_toy.model, mediator_toy.mediator)
        fit = fitted_qm(mediator_toy.model, pi, tables)
        assert np.all(fit.values == 0.0)
        assert fit.iterations == 1  # nothing to learn: converges immediately

    def test_duplicated_data_bit_identical(self, mediator_toy):
        pi = uniform_policy(2, 2)
        raw = generate_offline(
            mediator_toy.model,
            mediator_toy.behavioral,
            500,
            x0=0,
            seed=21,
            mediator=mediator_toy.mediator,
        )
        conv = convert_dataset(raw, mediator_toy.model.safe)
        doubled = repeated(conv, 2)
        fits = [
            fitted_qm(
                mediator_toy.model,
                pi,
                empirical_offline_tables(ds, mediator_toy.model, mediator_toy.mediator),
            )
            for ds in (conv, doubled)
        ]
        assert np.array_equal(fits[0].values, fits[1].values)

    def test_iteration_cap_carries_residual(self, toy):
        env, pi, tables = toy
        with pytest.raises(FittedQConvergenceError) as err:
            fitted_qm(env.model, pi, tables, tolerance=1e-10, max_iters=1)
        assert err.value.iterations == 1
        assert err.value.residual > 1e-10

    def test_requires_mediated_tables(self, mismatch_h4, mismatch_converted_100k):
        pi = uniform_policy(2, 2)
        tables = empirical_offline_tables(mismatch_converted_100k, mismatch_h4.model)
        with pytest.raises(UnsupportedEnvironmentError):
            fitted_qm(mismatch_h4.model, pi, tables)


class TestReconstruction:
    def test_value_from_oracle_qm_matches_value_dp(self, toy):
        env, pi, tables = toy
        oracle = qm_dp(env.model, env.mediator, pi)
        v = value_dp(env.model, pi)
        v_hat, defined = value_from_qm(oracle.values, tables, pi)
        assert defined.all()
        assert np.max(np.abs(v_hat - v.values)) < 1e-12

    def test_q_table_from_oracle_qm_matches_q_dp(self, toy):
        env, pi, tables = toy
        oracle_qm = qm_dp(env.model, env.mediator, pi)
        oracle_q = q_dp(env.model, pi)
        fit = fitted_qm(env.model, pi, tables)
        fit.values[:] = oracle_qm.values
        got = fitted_q_table(fit, tables).values
        assert np.max(np.abs(got - oracle_q.values)) < 1e-12
        assert got.min() >= 0.0 and got.max() <= 1.0

    def test_deterministic_mediator_selects_matching_slice(self):
        base = build_mediator_toy_env(horizon=2)
        identity = np.zeros((2, 2, 2))
        identity[:, 0, 0] = 1.0
        identity[:, 1, 1] = 1.0
        mediator = MediatorModel(
            mediator_dist=identity,
            mediated_transition=base.mediator.mediated_transition,
        )
        direct = np.einsum("xum,xmwy->xuwy", identity, mediator.mediated_transition)
        model = ConfoundedMdpModel(
            transition=direct,
            latent_dist=base.model.latent_dist,
            horizon=2,
            safe=base.model.safe,
            action_values=(0, 1),
        )
        pi = uniform_policy(2, 2)
        tables = exact_offline_tables(model, mediator, base.behavioral)
        fit = fitted_qm(model, pi, tables)
        table = fitted_q_table(fit, tables)
        for x in range(2):
            for u in range(2):
                assert abs(table.values[1, x, u] - fit.values[1, x, u, u]) < 1e-15

    def test_fitted_q_table_matches_oracle_q(self, toy):
        env, pi, tables = toy
        oracle_q = q_dp(env.model, pi)
        fit = fitted_qm(env.model, pi, tables)
        table = fitted_q_table(fit, tables)
        assert table.available.all()
        assert np.max(np.abs(table.values - oracle_q.values)) < 1e-10


class TestUnavailableCells:
    @pytest.fixture()
    def safe_only_tables(self, mediator_toy):
        """Converted data that never visit the unsafe state but cover every
        action-mediator cell at the safe one."""
        ds = episodes(
            "converted",
            [[0, 0, 0, 0]] * 4,
            [(0, 0, 1, 1), (1, 1, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0)],
            m=[(0, 1, 0, 1), (1, 0, 1, 0), (0, 0, 1, 1), (1, 1, 0, 0)],
        )
        return empirical_offline_tables(ds, mediator_toy.model, mediator_toy.mediator)

    def test_fitted_rows_guard_certificate_access(self, mediator_toy, safe_only_tables):
        from latentsafe.errors import CertificateUnavailableError

        pi = uniform_policy(2, 2)
        fit = fitted_qm(mediator_toy.model, pi, safe_only_tables)
        table = fitted_q_table(fit, safe_only_tables)
        assert not table.available[1, 1]  # the unsafe state never appears
        with pytest.raises(CertificateUnavailableError):
            table.q_row(1, 1)

    def test_unseen_cells_default_to_zero_and_are_reported(self, mediator_toy, safe_only_tables):
        fit = fitted_qm(mediator_toy.model, uniform_policy(2, 2), safe_only_tables)
        assert fit.default_cell_warnings == [
            (0, 0, 0, 1), (0, 0, 1, 0), (1, 0, 0, 0), (1, 0, 1, 1),
            (2, 0, 0, 0), (2, 0, 1, 1), (3, 0, 0, 1), (3, 0, 1, 0),
        ]
        # half of the (u', m) mass at the safe state is unseen at every k
        expected = np.broadcast_to(0.5 ** np.arange(1, 5)[:, None, None], (4, 2, 2))
        assert np.array_equal(fit.values[:, 0], expected)
        assert not fit.values[:, 1].any()

    def test_absent_state_cell_is_positivity_error(self, safe_only_tables):
        with pytest.raises(PositivityError) as err:
            front_door_online_kernel(safe_only_tables, AugmentedState(1, 1), 0)
        assert err.value.cell == (1, 1)


class TestCsvRoundTrip:
    def test_qm_export_import(self, toy, tmp_path):
        env, pi, tables = toy
        fit = fitted_qm(env.model, pi, tables)
        path = tmp_path / "qm.csv"
        from latentsafe.frontdoor import export_qm_csv

        export_qm_csv(fit, env.model.action_values, path)
        values, listed = read_qm_csv(path, fit.values.shape, env.model.action_values)
        assert np.array_equal(listed, fit.available)
        assert np.array_equal(values[fit.available], fit.values[fit.available])

    def test_q_table_export_import(self, toy, tmp_path):
        from latentsafe.frontdoor import load_q_table_csv
        from latentsafe.oracle import export_q_csv

        env, pi, tables = toy
        fit = fitted_qm(env.model, pi, tables)
        table = fitted_q_table(fit, tables)
        path = tmp_path / "q.csv"
        export_q_csv(table, env.model.action_values, path)
        loaded = load_q_table_csv(
            path, env.model.horizon, env.model.n_states, env.model.action_values
        )
        assert np.array_equal(loaded.available, table.available)
        assert np.array_equal(loaded.values, table.values)
