"""The tabulated certificate against per-cell references on random small
confounded MDPs: the array selection, the nonnegative argmax margin, the
nearest-nominal action law and its exact curve, the lockstep control loop,
and DP against enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_control_episode, reference_safe_action
from latentsafe.control import (
    MODE_MAX_ACTION,
    SELECTION_MODES,
    CertificateConfig,
    certify,
    margins_row,
    proposed_controller,
    run_control,
    select_actions,
)
from latentsafe.errors import CertificateUnavailableError
from latentsafe.mdp import ConfoundedMdpModel, TabularPolicy
from latentsafe.oracle import (
    TabularQ,
    brute_force_psi,
    mixed_policy_long_term_safety,
    q_dp,
    value_dp,
)

TOL = 1e-12


def _full_support(rng, shape):
    table = rng.random(shape) + 0.05
    return table / table.sum(axis=-1, keepdims=True)


@st.composite
def problems(draw):
    """A confounded MDP with a latent-blind (x, u) policy, uniform or random."""
    n = draw(st.integers(2, 5))
    nu = draw(st.integers(2, 3))
    nw = draw(st.integers(1, 3))
    horizon = draw(st.integers(1, 4))
    values = sorted(draw(st.lists(st.integers(-3, 3), min_size=nu, max_size=nu, unique=True)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    safe = rng.random(n) < 0.6
    safe[rng.integers(n)] = True
    model = ConfoundedMdpModel(
        transition=_full_support(rng, (n, nu, nw, n)),
        latent_dist=_full_support(rng, (n, nw)),
        horizon=horizon,
        safe=safe,
        action_values=tuple(values),
    )
    uniform = draw(st.booleans())
    table = np.full((n, nu), 1.0 / nu) if uniform else _full_support(rng, (n, nu))
    return model, TabularPolicy(table=table)


def _assert_matches_reference(certificate, model, mode):
    h, n, nu = certificate.margins.shape
    for t in range(h):
        for x in range(n):
            row = certificate.margins[t, x]
            for u_nom in range(nu):
                action, fallback = reference_safe_action(row, model.action_values, mode, u_nom)
                assert certificate.action[t, x, u_nom] == action
                assert certificate.fallback[t, x] == fallback


@settings(max_examples=100, deadline=None)
@given(problems())
def test_certificate_equals_per_cell_reference(problem):
    model, policy = problem
    q = q_dp(model, policy)
    h = model.horizon
    for mode in SELECTION_MODES:
        certificate = certify(q, policy, CertificateConfig(0.2, mode), model.action_values)
        assert certificate.margins.shape == (h, model.n_states, model.n_actions)
        assert certificate.available.all()
        _assert_matches_reference(certificate, model, mode)
        for t in range(h):
            for x in range(model.n_states):
                row = q.q_row(x, h - t)
                pi = policy.action_probs(x)
                assert np.array_equal(margins_row(q, policy, x, t), certificate.margins[t, x])
                assert np.max(np.abs(certificate.margins[t, x] - (row - pi @ row))) <= TOL
        # the argmax action always clears the certificate: no fallback with exact Q
        assert (certificate.margins.max(axis=-1) >= -TOL).all()
        assert not certificate.fallback.any()


@settings(max_examples=100, deadline=None)
@given(problems(), st.data())
def test_selection_with_ties_and_dust_equals_reference(problem, data):
    """Margins from a coarse grid, including float dust just past the slack,
    so that ties and empty feasible sets are common."""
    model, _ = problem
    shape = (model.horizon, model.n_states, model.n_actions)
    grid = st.sampled_from([-1.0, -3e-12, -1e-12, -5e-13, 0.0, 0.25, 0.5])
    size = int(np.prod(shape))
    margins = np.reshape(data.draw(st.lists(grid, min_size=size, max_size=size)), shape)
    values = np.asarray(model.action_values, dtype=float)
    for mode in SELECTION_MODES:
        action, fallback = select_actions(margins, values, mode)
        for idx in np.ndindex(shape[:2]):
            for u_nom in range(model.n_actions):
                expected = reference_safe_action(margins[idx], model.action_values, mode, u_nom)
                assert (action[idx + (u_nom,)], fallback[idx]) == expected


@settings(max_examples=100, deadline=None)
@given(problems())
def test_nominal_law_and_exact_curve_equal_per_cell_reference(problem):
    model, policy = problem
    h = model.horizon
    q = q_dp(model, policy)
    certificate = certify(q, policy, CertificateConfig(0.2), model.action_values)
    law = certificate.nominal_law(policy)
    for t in range(h):
        for x in range(model.n_states):
            nominal = policy.action_probs(x)
            expected = np.zeros(model.n_actions)
            for u_nom in range(model.n_actions):
                expected[certificate.action[t, x, u_nom]] += nominal[u_nom]
            assert np.array_equal(law[t, x], expected)
    curve = np.array([
        mixed_policy_long_term_safety(model, lambda x, s: law[s, x], policy, t, 0)
        for t in range(h + 1)
    ])
    # certified actions keep the policy value from decaying along the curve
    assert (np.diff(curve) >= -TOL).all()


@settings(max_examples=100, deadline=None)
@given(problems(), st.sampled_from(SELECTION_MODES), st.sampled_from([0.0, 0.2, 0.5]),
       st.integers(0, 2**32 - 1))
def test_lockstep_control_equals_per_episode_reference(problem, mode, drop, seed):
    """Every episode equals the scalar loop bit for bit, and with a share
    ``drop`` of the Q rows missing (the start row kept, so episodes part
    before they stop) the lockstep raises for the cell the episodes run one
    after another would stop at first."""
    model, policy = problem
    rng = np.random.default_rng(seed)
    x0 = int(rng.integers(model.n_states))
    q = q_dp(model, policy)
    available = rng.random(q.available.shape) >= drop
    available[model.horizon, x0] = True
    q = TabularQ(values=q.values, available=available)
    certificate = certify(q, policy, CertificateConfig(0.2, mode), model.action_values)
    seeds = rng.integers(0, 2**63, size=int(rng.integers(1, 13))).tolist()
    try:
        expected = [
            reference_control_episode(model, certificate, policy, x0, s) for s in seeds
        ]
    except CertificateUnavailableError as first:
        with pytest.raises(CertificateUnavailableError) as err:
            run_control(model, certificate, policy, x0, seeds)
        assert err.value.cell == first.cell and str(err.value) == str(first)
        return
    runs = run_control(model, certificate, policy, x0, seeds)
    for name, column in zip(runs._fields, zip(*expected)):
        assert getattr(runs, name).tolist() == list(column)


@settings(max_examples=100, deadline=None)
@given(problems())
def test_value_dp_equals_brute_force_enumeration(problem):
    model, policy = problem
    values = value_dp(model, policy).values
    for t in range(model.horizon + 1):
        for x in range(model.n_states):
            psi = brute_force_psi(model, policy, x, t)
            assert abs(values[model.horizon - t, x] - psi) <= TOL


def test_max_action_law_is_the_tabulated_controller(driving, uniform5):
    """In max-action mode the nominal draw is irrelevant: the pushed-through
    law is the one-hot law of the tabulated controller."""
    q = q_dp(driving.model, uniform5)
    config = CertificateConfig(0.2, MODE_MAX_ACTION)
    controller = proposed_controller(driving.model, q, uniform5, config)
    certificate = certify(q, uniform5, config, driving.model.action_values)
    one_hot = np.eye(controller.n_actions)[controller.action_table]
    assert np.array_equal(certificate.nominal_law(uniform5), one_hot)
