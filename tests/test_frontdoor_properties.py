"""Front-door estimation on exact tables equals the DP oracles on random
mediated confounded MDPs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
)
from latentsafe.oracle import q_dp, qm_dp

TOL = 1e-12


def _full_support(rng, shape):
    table = rng.random(shape) + 0.05
    return table / table.sum(axis=-1, keepdims=True)


@st.composite
def mediated_problems(draw):
    """A mediated confounded MDP with a full-support latent-aware behavioral
    policy and a full-support latent-blind evaluation policy."""
    n = draw(st.integers(2, 5))
    nu = draw(st.integers(2, 3))
    nm = draw(st.integers(2, 3))
    nw = draw(st.integers(1, 3))
    horizon = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mediator = MediatorModel(
        mediator_dist=_full_support(rng, (n, nu, nm)),
        mediated_transition=_full_support(rng, (n, nm, nw, n)),
    )
    safe = rng.random(n) < 0.5
    safe[rng.integers(n)] = True
    model = ConfoundedMdpModel(
        transition=np.einsum(
            "xum,xmwy->xuwy", mediator.mediator_dist, mediator.mediated_transition
        ),
        latent_dist=_full_support(rng, (n, nw)),
        horizon=horizon,
        safe=safe,
        action_values=tuple(range(nu)),
    )
    behavioral = TabularPolicy(table=_full_support(rng, (n, nw, nu)))
    policy = TabularPolicy(table=_full_support(rng, (n, nu)))
    return model, mediator, behavioral, policy


@settings(max_examples=100, deadline=None)
@given(mediated_problems())
def test_fitted_qm_on_exact_tables_equals_qm_dp(problem):
    model, mediator, behavioral, policy = problem
    tables = exact_offline_tables(model, mediator, behavioral)
    fit = fitted_qm(model, policy, tables)
    assert fit.iterations <= model.horizon + 1
    oracle = qm_dp(model, mediator, policy).values
    assert np.max(np.abs(fit.values - oracle)) <= TOL
    table = fitted_q_table(fit, tables)
    assert table.available.all()
    assert np.max(np.abs(table.values - q_dp(model, policy).values)) <= TOL


@settings(max_examples=100, deadline=None)
@given(mediated_problems())
def test_front_door_kernel_equals_online_kernel(problem):
    model, mediator, behavioral, _ = problem
    tables = exact_offline_tables(model, mediator, behavioral)
    online = absorbing_online_matrix(model)
    for k in range(1, model.horizon + 1):
        for x in range(model.n_states):
            for u in range(model.n_actions):
                row = front_door_online_kernel(tables, AugmentedState(x, k), u)
                assert np.max(np.abs(row - online[x, u])) <= TOL
