"""Certificate margins, certified action selection, the control loop, and the barrier baseline."""

import math
from unittest import mock

import numpy as np
import pytest

from conftest import reference_safe_action
from latentsafe import mdp
from latentsafe.control import (
    MODE_MAX_ACTION,
    MODE_NEAREST_NOMINAL,
    CertificateConfig,
    DtcbfParams,
    OfflineKernel,
    _barrier,
    certify,
    dtcbf_controller,
    dtcbf_ok,
    margins_row,
    proposed_controller,
    run_control,
    select_actions,
)
from latentsafe.data import generate_offline
from latentsafe.envs import build_mismatch_env, decode_driving
from latentsafe.errors import CertificateUnavailableError, ConfigurationError, ModelError
from latentsafe.mdp import (
    ConfoundedMdpModel,
    TabularPolicy,
    absorbing_online_matrix,
    p_offline_matrix,
    uniform_policy,
)
from latentsafe.oracle import TabularQ, q_dp, value_dp
from latentsafe.seeding import cdf_table


@pytest.fixture(scope="module")
def mismatch_q(mismatch, uniform2):
    return q_dp(mismatch.model, uniform2)


@pytest.fixture(scope="module")
def driving_q(driving, uniform5):
    return q_dp(driving.model, uniform5)


class TestSafetyMargin:
    def test_risky_action_margin(self, mismatch, mismatch_q, uniform2):
        t_last = mismatch.model.horizon - 1  # remaining time k = 1
        certificate = certify(mismatch_q, uniform2, CertificateConfig(epsilon=0.2), (0, 1))
        assert abs(certificate.margins[t_last, 0, 1] - (-0.20)) < 1e-12

    def test_policy_average_of_margins_is_zero(self, driving, driving_q, uniform5):
        for x in range(0, 300, 11):
            for t in (0, 5, 9):
                row = margins_row(driving_q, uniform5, x, t)
                assert abs(float(uniform5.table[x] @ row)) < 1e-12

    def test_argmax_action_always_feasible(self, driving, driving_q, uniform5):
        for x in range(300):
            for t in range(10):
                assert margins_row(driving_q, uniform5, x, t).max() >= -1e-12

    def test_margin_equals_expected_value_drift(self, driving, driving_q, uniform5):
        model = driving.model
        v = value_dp(model, uniform5)
        absorbing = absorbing_online_matrix(model)
        h = model.horizon
        for x in np.flatnonzero(model.safe):
            for t in range(h):
                k = h - t
                drift = absorbing[x] @ v.values[k - 1] - v.value(x, k)
                row = margins_row(driving_q, uniform5, int(x), t)
                assert np.max(np.abs(row - drift)) < 1e-12


class TestSafeAction:
    def test_feasible_nominal_returned_unchanged(self, mismatch, mismatch_q, uniform2):
        config = CertificateConfig(epsilon=0.2, selection_mode=MODE_NEAREST_NOMINAL)
        certificate = certify(mismatch_q, uniform2, config, (0, 1))
        t = mismatch.model.horizon - 1
        assert certificate.action[t, 0, 0] == 0 and not certificate.fallback[t, 0]

    def test_infeasible_nominal_projected(self, mismatch, mismatch_q, uniform2):
        config = CertificateConfig(epsilon=0.2, selection_mode=MODE_NEAREST_NOMINAL)
        certificate = certify(mismatch_q, uniform2, config, (0, 1))
        # only the safe action clears the certificate
        assert certificate.action[mismatch.model.horizon - 1, 0, 1] == 0

    def test_max_action_mode_picks_largest_feasible(self, mismatch, mismatch_q, uniform2):
        config = CertificateConfig(epsilon=0.2, selection_mode=MODE_MAX_ACTION)
        certificate = certify(mismatch_q, uniform2, config, (0, 1))
        assert certificate.action[mismatch.model.horizon - 1, 0, 1] == 0

    def test_tie_breaking_prefers_smaller_action(self):
        # Q row (0.4, 0.2, 0.4) under a uniform policy: actions -1 and +1 are
        # both feasible and equidistant from nominal 0 with equal margins.
        values = np.zeros((2, 1, 3))
        values[1, 0] = [0.4, 0.2, 0.4]
        q = TabularQ(values=values, available=np.ones((2, 1), dtype=bool))
        pi = uniform_policy(1, 3)
        config = CertificateConfig(epsilon=0.5, selection_mode=MODE_NEAREST_NOMINAL)
        certificate = certify(q, pi, config, (-1, 0, 1))
        assert certificate.action[0, 0, 1] == 0  # index 0 carries action value -1

    def test_fallback_on_empty_feasible_set(self):
        # max S >= 0 mathematically; emulate float dust pushing every margin
        # below the slack to exercise the estimated-Q fallback path
        margins = np.array([-3e-12, -2e-12])
        action, fallback = select_actions(
            margins, np.array([0.0, 1.0]), MODE_NEAREST_NOMINAL
        )
        assert fallback and (action == 1).all()

    def test_positive_affine_rescaling_preserves_selection(
        self, driving, driving_q, uniform5
    ):
        rescaled = TabularQ(
            values=0.37 * driving_q.values + 0.21, available=driving_q.available
        )
        config = CertificateConfig(epsilon=0.2, selection_mode=MODE_NEAREST_NOMINAL)
        values = driving.model.action_values
        a = certify(driving_q, uniform5, config, values).action
        b = certify(rescaled, uniform5, config, values).action
        cells = np.ix_([0, 4, 9], range(0, 300, 13))
        assert np.array_equal(a[cells], b[cells])


class TestControlLoop:
    def test_fixed_seed_reproduces_trajectory(self, mismatch, mismatch_q, uniform2):
        certificate = certify(mismatch_q, uniform2, CertificateConfig(epsilon=0.2), (0, 1))
        runs = [run_control(mismatch.model, certificate, uniform2, 0, 1, 314) for _ in range(2)]
        assert all(np.array_equal(a, b) for a, b in zip(*runs))

    def test_all_safe_model_has_zero_margins(self):
        transition = np.zeros((2, 2, 1, 2))
        transition[:, :, 0] = [[0.5, 0.5], [0.5, 0.5]]
        model = ConfoundedMdpModel(
            transition=transition,
            latent_dist=np.ones((2, 1)),
            horizon=4,
            safe=np.array([True, True]),
            action_values=(0, 1),
        )
        pi = uniform_policy(2, 2)
        q = q_dp(model, pi)
        assert np.all(q.values == 1.0)  # V is identically one
        certificate = certify(q, pi, CertificateConfig(epsilon=0.2), (0, 1))
        record = run_control(model, certificate, pi, 0, 1, 7)
        assert record.margins.tolist() == [[0.0] * 4]
        assert record.feasible.all()

    def test_one_transition_table_per_model(self, uniform2):
        """Offline generation and every run on one model draw next states
        from its one read-only ``transition_cdf``."""
        env = build_mismatch_env(horizon=3)  # a fresh model, with no table yet
        certificate = certify(q_dp(env.model, uniform2), uniform2, CertificateConfig(epsilon=0.2),
                              (0, 1))
        with mock.patch.object(mdp, "cdf_table", wraps=cdf_table) as spy:
            generate_offline(env.model, env.behavioral, 5, 0, 1)
            for seed in (1, 2):
                run_control(env.model, certificate, uniform2, 0, 1, seed)
        assert spy.call_count == 1
        table = env.model.transition_cdf
        assert table is env.model.transition_cdf
        for part, expected in zip(table, cdf_table(env.model.transition)):
            assert (part is None) == (expected is None)
            if part is not None:
                assert np.array_equal(part, expected)
                with pytest.raises(ValueError):
                    part[(0,) * part.ndim] = 0.0

    def test_records_full_trajectory(self, mismatch, mismatch_q, uniform2):
        certificate = certify(mismatch_q, uniform2, CertificateConfig(epsilon=0.2), (0, 1))
        record = run_control(mismatch.model, certificate, uniform2, 0, 1, 1)
        h = mismatch.model.horizon
        assert record.x.shape == (1, h + 1)
        assert record.u.shape == record.u_nominal.shape == record.margins.shape == (1, h)
        assert record.feasible.shape == (1, h)

    def test_tabulated_controller_matches_safe_action(self, driving, driving_q, uniform5):
        config = CertificateConfig(epsilon=0.2, selection_mode=MODE_MAX_ACTION)
        controller = proposed_controller(driving.model, driving_q, uniform5, config)
        for x in (0, 77, 155, 299):
            for t in (0, 3, 9):
                direct, _ = reference_safe_action(
                    margins_row(driving_q, uniform5, x, t),
                    driving.model.action_values, MODE_MAX_ACTION, 0,
                )
                assert controller.action_table[t, x] == direct
        assert not controller.fallback_mask.any()

    def test_unavailable_row_raises_when_visited(self, mismatch, mismatch_q, uniform2):
        h = mismatch.model.horizon
        available = np.ones((h + 1, 2), dtype=bool)
        available[h, 0] = False  # the start state at t = 0
        q = TabularQ(values=mismatch_q.values, available=available)
        certificate = certify(q, uniform2, CertificateConfig(epsilon=0.2), (0, 1))
        with pytest.raises(CertificateUnavailableError) as err:
            run_control(mismatch.model, certificate, uniform2, 0, 1, 1)
        assert str(err.value) == f"no fitted Q row for augmented state (x=0, k={h})"
        assert err.value.cell == (0, h)


class TestDtcbf:
    def test_barrier_periodic_in_position(self):
        for p in range(20):
            for v in range(10):
                a = _barrier(p % 30, v)
                b = _barrier((p + 10) % 30, v)
                assert abs(a - b) < 1e-12

    def test_barrier_value_at_origin(self):
        series = sum(
            (4 / (n * math.pi)) * math.sin(-(math.pi / 5) * n * 0.5) for n in (1, 3, 5, 7)
        )
        expected = math.tanh(4.5 + series)
        assert abs(_barrier(0, 0) - expected) < 1e-12
        assert abs(expected - 0.998) < 1e-3

    def test_barrier_decreasing_in_velocity(self):
        for p in range(30):
            values = [_barrier(p, v) for v in range(10)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_condition_always_true_for_slack_parameters(self, driving):
        rows, defined = p_offline_matrix(driving.model, driving.behavioral)
        ok = dtcbf_ok(OfflineKernel(rows, defined), DtcbfParams(alpha=0.0, delta=-1.0))
        for x in (0, 5, 113, 299):
            for u in range(5):
                assert ok[x, u]

    def test_condition_matches_direct_expectation(self, driving):
        rows, defined = p_offline_matrix(driving.model, driving.behavioral)
        params = DtcbfParams()
        ok = dtcbf_ok(OfflineKernel(rows, defined), params)

        def barrier(x):
            state = decode_driving(x)
            return _barrier(state.position, state.velocity)

        for x in (0, 34, 155):
            hx = barrier(x)
            for u in range(5):
                expected = sum(
                    rows[x, u, y] * barrier(y)
                    for y in range(300)
                    if rows[x, u, y] > 0
                )
                assert ok[x, u] == (expected >= params.alpha * hx + params.delta)

    def test_undefined_row_is_never_ok(self, driving):
        rows, defined = p_offline_matrix(driving.model, driving.behavioral)
        slack = DtcbfParams(alpha=0.0, delta=-1.0)  # every defined row meets it
        assert dtcbf_ok(OfflineKernel(rows, defined), slack)[0, 0]
        defined = defined.copy()
        defined[0, 0] = False
        assert not dtcbf_ok(OfflineKernel(rows, defined), slack)[0, 0]

    def test_controller_prefers_larger_actions(self, driving):
        rows, defined = p_offline_matrix(driving.model, driving.behavioral)
        kernel = OfflineKernel(rows, defined)
        controller = dtcbf_controller(driving.model, kernel, DtcbfParams())
        ok = dtcbf_ok(kernel, DtcbfParams())
        for x in (0, 40, 123):
            chosen = controller.action_table[0, x]
            for ui in range(chosen + 1, 5):
                assert not ok[x, ui]


    def test_non_driving_model_is_refused(self, mismatch):
        """The barrier reads state codes as (position, velocity): on the
        2-state mismatch toy it has no meaning, so neither call returns."""
        kernel = p_offline_matrix(mismatch.model, mismatch.behavioral)
        for call in (lambda: dtcbf_ok(kernel, DtcbfParams()),
                     lambda: dtcbf_controller(mismatch.model, kernel, DtcbfParams())):
            with pytest.raises(ModelError, match="the barrier reads the 300 driving states, not 2"):
                call()


class TestCertificateMonotonicity:
    def test_value_never_decays_under_certified_actions(self, driving, driving_q, uniform5):
        """The exact distribution-level chain that keeps long-term safety from decaying."""
        model = driving.model
        config = CertificateConfig(epsilon=0.2, selection_mode=MODE_MAX_ACTION)
        controller = proposed_controller(model, driving_q, uniform5, config)
        v = value_dp(model, uniform5)
        absorbing = absorbing_online_matrix(model)
        dist = np.zeros(model.n_states)
        dist[0] = 1.0
        h = model.horizon
        previous = float(dist @ v.values[h])
        for t in range(h):
            step = np.zeros(model.n_states)
            for x in np.flatnonzero(dist > 0):
                step += dist[x] * absorbing[x, controller.action_table[t, x]]
            dist = step
            current = float(dist @ v.values[h - t - 1])
            assert current >= previous - 1e-12
            previous = current


class TestConfigValidation:
    def test_bad_epsilon(self):
        with pytest.raises(ConfigurationError):
            CertificateConfig(epsilon=1.5)

    def test_bad_mode(self):
        with pytest.raises(ConfigurationError):
            CertificateConfig(epsilon=0.2, selection_mode="argmax")

    def test_no_remaining_time(self, mismatch, mismatch_q, uniform2):
        with pytest.raises(ConfigurationError):
            margins_row(mismatch_q, uniform2, 0, mismatch.model.horizon)
