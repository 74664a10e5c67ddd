"""Monte Carlo harness against the exact propagated curves."""

from unittest import mock

import numpy as np
import pytest
from conftest import random_law, read_curves_csv, reference_mc_curves
from hypothesis import given, settings
from hypothesis import strategies as st

from latentsafe import evaluation
from latentsafe.control import (
    MODE_MAX_ACTION,
    CertificateConfig,
    DeterministicController,
    DtcbfParams,
    OfflineKernel,
    dtcbf_controller,
    proposed_controller,
)
from latentsafe.errors import ConfigurationError
from latentsafe.evaluation import (
    METRIC_CUMULATIVE,
    METRIC_INSTANTANEOUS,
    METRIC_LONGTERM_EXACT,
    METRIC_LONGTERM_HYBRID,
    METRIC_LONGTERM_PURE,
    emit_report,
    exact_long_term_curve,
    run_experiment,
)
from latentsafe.mdp import ConfoundedMdpModel, TabularPolicy, p_offline_matrix
from latentsafe.oracle import q_dp, value_dp


@pytest.fixture(scope="module")
def setup(driving, uniform5):
    model = driving.model
    value = value_dp(model, uniform5)
    q = q_dp(model, uniform5)
    config = CertificateConfig(epsilon=0.2, selection_mode=MODE_MAX_ACTION)
    controller = proposed_controller(model, q, uniform5, config)
    return model, uniform5, value, controller


@pytest.fixture(scope="module")
def small_result(setup):
    model, policy, value, controller = setup
    return run_experiment(
        model,
        controller,
        policy,
        x0=0,
        seed=0,
        epsilon=0.2,
        batches=20,
        trajs_per_batch=60,
        env_id="driving",
        value=value,
    )


class TestCurveShapes:
    def test_hybrid_time_zero_is_exact_value(self, setup, small_result):
        model, _, value, _ = setup
        hybrid = small_result.curves[METRIC_LONGTERM_HYBRID]
        v0 = value.value(0, model.horizon)
        # every trajectory contributes the same summand: no prefix randomness,
        # so mean and band collapse to V(x0, H) up to float accumulation noise
        assert abs(hybrid.mean[0] - v0) < 1e-14
        assert hybrid.half_width[0] < 1e-14

    def test_pure_final_point_equals_cumulative(self, small_result):
        pure = small_result.curves[METRIC_LONGTERM_PURE]
        cumulative = small_result.curves[METRIC_CUMULATIVE]
        assert pure.mean[-1] == cumulative.mean[-1]

    def test_cumulative_nonincreasing(self, small_result):
        cumulative = small_result.curves[METRIC_CUMULATIVE].mean
        assert np.all(np.diff(cumulative) <= 1e-15)

    def test_instantaneous_dominates_cumulative(self, small_result):
        inst = small_result.curves[METRIC_INSTANTANEOUS].mean
        cum = small_result.curves[METRIC_CUMULATIVE].mean
        assert np.all(inst >= cum - 1e-15)

    def test_estimators_agree(self, small_result):
        hybrid = small_result.curves[METRIC_LONGTERM_HYBRID]
        pure = small_result.curves[METRIC_LONGTERM_PURE]
        combined = np.sqrt(hybrid.half_width**2 + pure.half_width**2) / 1.96
        assert np.all(np.abs(hybrid.mean - pure.mean) <= 3 * combined + 1e-12)

    def test_probabilities_in_range(self, small_result):
        for stats in small_result.curves.values():
            assert stats.mean.min() >= 0.0 and stats.mean.max() <= 1.0
            assert np.all(stats.half_width >= 0.0)


class TestExactCurve:
    def test_starts_at_value(self, setup):
        model, policy, value, controller = setup
        curve = exact_long_term_curve(model, controller, policy, 0, value)
        assert curve[0] == value.value(0, model.horizon)

    def test_matches_single_time_propagator(self, setup):
        from latentsafe.oracle import mixed_policy_long_term_safety

        model, policy, value, controller = setup
        curve = exact_long_term_curve(model, controller, policy, 0, value)
        for t in (0, 3, 7, model.horizon):
            single = mixed_policy_long_term_safety(
                model, controller.action_distribution, policy, t, 0
            )
            assert abs(curve[t] - single) < 1e-12

    def test_monte_carlo_brackets_exact(self, setup, small_result):
        model, policy, value, controller = setup
        curve = exact_long_term_curve(model, controller, policy, 0, value)
        hybrid = small_result.curves[METRIC_LONGTERM_HYBRID]
        assert np.all(np.abs(hybrid.mean - curve) <= hybrid.half_width + 1e-12)

    def test_pure_estimator_consistent_at_horizon(self, setup, small_result):
        """Monte Carlo cross-check of the exact propagation at full switch time."""
        model, policy, value, controller = setup
        curve = exact_long_term_curve(model, controller, policy, 0, value)
        pure = small_result.curves[METRIC_LONGTERM_PURE]
        se = pure.half_width[-1] / 1.96
        assert abs(pure.mean[-1] - curve[-1]) <= 3 * se + 1e-12

    def test_action_table_gather_equals_law_product(self, driving, setup):
        """A deterministic controller's kernel rows are gathered by action;
        the curve is the one its one-hot law gives through the general
        product, byte for byte, from several starts."""
        from types import SimpleNamespace

        model, policy, value, controller = setup
        baseline = dtcbf_controller(
            model, p_offline_matrix(model, driving.behavioral), DtcbfParams()
        )
        rng = np.random.default_rng(11)
        random = DeterministicController(
            "random", rng.integers(0, model.n_actions, (model.horizon, model.n_states)),
            model.n_actions,
        )
        for table in (controller, baseline, random):
            for x0 in (0, 44, 137):
                gathered = exact_long_term_curve(model, table, policy, x0, value)
                general = exact_long_term_curve(
                    model, SimpleNamespace(law=table.law), policy, x0, value
                )
                assert gathered.tobytes() == general.tobytes()

    def test_dtcbf_curve_differs(self, driving, setup):
        model, policy, value, _ = setup
        rows, defined = p_offline_matrix(model, driving.behavioral)
        baseline = dtcbf_controller(model, OfflineKernel(rows, defined), DtcbfParams())
        curve = exact_long_term_curve(model, baseline, policy, 0, value)
        assert curve[0] == value.value(0, model.horizon)
        assert curve.min() < 0.5  # the baseline collapses under online dynamics

    def test_objective_certified_for_attainable_tolerance(self, setup, small_result):
        """With a risk tolerance above 1 - V(x0, H), the certified controller
        keeps long-term safety over the threshold at every switch time."""
        model, policy, value, controller = setup
        v0 = value.value(0, model.horizon)
        epsilon = 1.0 - v0 + 0.005
        threshold = 1.0 - epsilon
        curve = exact_long_term_curve(model, controller, policy, 0, value)
        assert (curve >= threshold).all()
        hybrid = small_result.curves[METRIC_LONGTERM_HYBRID]
        assert np.all(hybrid.mean >= threshold - hybrid.half_width - 1e-12)

    def test_nearest_nominal_curve_is_also_certified(self, setup):
        """Marginalizing the nominal draw through the certificate projection
        keeps the exact long-term curve from decaying, like max-action."""
        from types import SimpleNamespace

        from latentsafe.control import MODE_NEAREST_NOMINAL, certify

        model, policy, value, _ = setup
        q = q_dp(model, policy)
        config = CertificateConfig(epsilon=0.2, selection_mode=MODE_NEAREST_NOMINAL)
        controller = SimpleNamespace(
            law=certify(q, policy, config, model.action_values).nominal_law(policy)
        )
        for x in (0, 44, 137):
            dist = controller.law[0, x]
            assert abs(dist.sum() - 1.0) < 1e-12
        curve = exact_long_term_curve(model, controller, policy, 0, value)
        assert curve[0] == value.value(0, model.horizon)
        assert (np.diff(curve) >= -1e-12).all()

    def test_band_calibration_over_seeds(self, setup):
        """Pointwise 95% bands cover the exact curve in >= 95% of entries
        pooled over repeated seeds at the full batch size."""
        model, policy, value, controller = setup
        curve = exact_long_term_curve(model, controller, policy, 0, value)
        total = inside = 0
        for seed in range(8):
            res = run_experiment(
                model, controller, policy, x0=0, seed=seed, epsilon=0.2,
                batches=100, trajs_per_batch=100, value=value,
            )
            hybrid = res.curves[METRIC_LONGTERM_HYBRID]
            hits = np.abs(hybrid.mean - curve) <= hybrid.half_width + 1e-12
            total += hits.size
            inside += int(hits.sum())
        assert inside / total >= 0.95


class TestDeterminism:
    def test_same_seed_same_curves(self, setup):
        model, policy, value, controller = setup
        kwargs = dict(
            x0=0, seed=123, epsilon=0.2, batches=5, trajs_per_batch=40, value=value
        )
        a = run_experiment(model, controller, policy, **kwargs)
        b = run_experiment(model, controller, policy, **kwargs)
        for metric in a.curves:
            assert np.array_equal(a.curves[metric].mean, b.curves[metric].mean)

    def test_worker_count_irrelevant(self, setup):
        model, policy, value, controller = setup
        kwargs = dict(
            x0=0, seed=123, epsilon=0.2, batches=6, trajs_per_batch=40, value=value
        )
        a = run_experiment(model, controller, policy, max_workers=1, **kwargs)
        b = run_experiment(model, controller, policy, max_workers=3, **kwargs)
        for metric in a.curves:
            assert np.array_equal(a.curves[metric].mean, b.curves[metric].mean)


@pytest.mark.parametrize(
    "batches, trajs, name",
    [(0, 40, "batches"), (-1, 40, "batches"), (5, 0, "trajs_per_batch")],
    ids=["no-batches", "negative-batches", "empty-batches"],
)
def test_empty_experiment_is_configuration_error(setup, batches, trajs, name):
    """No batch, or batches of no trajectory, is an error naming the size,
    not an IndexError or NaN curves."""
    model, policy, value, controller = setup
    with pytest.raises(ConfigurationError, match=f"{name} must be an integer >= 1"):
        run_experiment(model, controller, policy, x0=0, seed=0, epsilon=0.2,
                       batches=batches, trajs_per_batch=trajs, value=value)


def assert_curves_equal_reference(result, reference, exact):
    """The four Monte Carlo curves equal ``reference`` and the exact curve
    equals ``exact`` as a zero-width band, byte for byte."""
    reference = {**reference, METRIC_LONGTERM_EXACT: (exact, exact, exact)}
    assert sorted(result.curves) == sorted(reference)
    for metric, (mean, ci_lo, ci_hi) in reference.items():
        stats = result.curves[metric]
        assert stats.mean.tobytes() == mean.tobytes(), metric
        assert stats.ci_lo.tobytes() == ci_lo.tobytes(), metric
        assert stats.ci_hi.tobytes() == ci_hi.tobytes(), metric


@st.composite
def mc_problems(draw):
    """A small confounded MDP, a latent-blind evaluation policy, a random
    deterministic controller and a start state."""
    n, nu, nw = draw(st.integers(2, 6)), draw(st.integers(2, 3)), draw(st.integers(1, 3))
    horizon = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    safe = rng.random(n) < 0.7
    safe[rng.integers(n)] = True
    model = ConfoundedMdpModel(
        transition=random_law(rng, (n, nu, nw, n)), latent_dist=random_law(rng, (n, nw)),
        horizon=horizon, safe=safe, action_values=tuple(range(nu)),
    )
    policy = TabularPolicy(table=random_law(rng, (n, nu)))
    controller = DeterministicController("random", rng.integers(nu, size=(horizon, n)), nu)
    return model, policy, controller, draw(st.integers(0, n - 1))


class TestBatchReference:
    """Batches stepped in lockstep give the bytes of batches run one by one."""

    def test_driving(self, setup):
        model, policy, value, controller = setup
        result = run_experiment(
            model, controller, policy, x0=0, seed=17, epsilon=0.2, batches=7,
            trajs_per_batch=30, value=value,
        )
        reference = reference_mc_curves(model, controller, policy, value, 0, 17, 7, 30)
        exact = exact_long_term_curve(model, controller, policy, 0, value)
        assert_curves_equal_reference(result, reference, exact)

    @settings(max_examples=60, deadline=None)
    @given(
        mc_problems(), st.integers(0, 2**63 - 1), st.integers(1, 9), st.integers(1, 25),
        st.sampled_from([1, 200, 1 << 17]), st.sampled_from([1, 3]),
    )
    def test_random_mdps(self, problem, seed, batches, trajs, block, workers):
        model, policy, controller, x0 = problem
        value = value_dp(model, policy)
        with mock.patch.object(evaluation, "_BLOCK_DRAWS", block):
            result = run_experiment(
                model, controller, policy, x0=x0, seed=seed, epsilon=0.2, batches=batches,
                trajs_per_batch=trajs, value=value, max_workers=workers,
            )
        reference = reference_mc_curves(model, controller, policy, value, x0, seed, batches, trajs)
        exact = exact_long_term_curve(model, controller, policy, x0, value)
        assert_curves_equal_reference(result, reference, exact)

    @pytest.fixture(scope="class")
    def reference_37(self, setup):
        model, policy, value, controller = setup
        return reference_mc_curves(model, controller, policy, value, 0, 5, 37, 12)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("block_batches", [1, 3, 8])
    def test_batches_not_a_multiple_of_the_block(
        self, setup, reference_37, block_batches, workers
    ):
        """37 batches of 12 trajectories in blocks of 1, 3 or 8 (the last
        block short)."""
        model, policy, value, controller = setup
        h = model.horizon
        block = block_batches * (h + h * (h + 1) // 2) * 12
        with mock.patch.object(evaluation, "_BLOCK_DRAWS", block):
            result = run_experiment(
                model, controller, policy, x0=0, seed=5, epsilon=0.2, batches=37,
                trajs_per_batch=12, value=value, max_workers=workers,
            )
        exact = exact_long_term_curve(model, controller, policy, 0, value)
        assert_curves_equal_reference(result, reference_37, exact)


class TestReports:
    def test_empty_report_is_header_only(self, tmp_path):
        emit_report([], tmp_path, epsilon=0.2)
        lines = (tmp_path / "curves.csv").read_text().splitlines()
        assert lines == ["t,metric,mean,ci_lo,ci_hi,controller"]

    def test_roundtrip(self, setup, small_result, tmp_path):
        model, policy, value, controller = setup
        exact = exact_long_term_curve(model, controller, policy, 0, value)
        summary = emit_report([small_result], tmp_path, epsilon=0.2)
        parsed = read_curves_csv(tmp_path / "curves.csv")
        key = (controller.controller_id, METRIC_LONGTERM_HYBRID)
        hybrid = small_result.curves[METRIC_LONGTERM_HYBRID]
        assert np.array_equal(parsed[key]["mean"], hybrid.mean)
        assert np.array_equal(parsed[key]["ci_lo"], hybrid.ci_lo)
        exact_key = (controller.controller_id, "longterm_exact")
        assert np.array_equal(parsed[exact_key]["mean"], exact)
        assert summary["threshold"] == 0.8
        assert (tmp_path / "summary.json").exists()

    def test_summary_records_threshold_comparison(self, setup, small_result, tmp_path):
        model, policy, value, controller = setup
        exact = exact_long_term_curve(model, controller, policy, 0, value)
        summary = emit_report([small_result], tmp_path, epsilon=0.2)
        entry = summary["controllers"][controller.controller_id]
        assert entry["meets_threshold_at_all_t"] == bool((exact >= 0.8).all())
        assert entry["mc_within_ci_of_exact"] is True
