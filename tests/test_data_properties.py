"""Columnar offline generation, conversion and the inverse-CDF draw equal a
plain per-episode reference on random small confounded MDPs."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from latentsafe import seeding
from latentsafe.data import convert_dataset, generate_offline
from latentsafe.mdp import ConfoundedMdpModel, MediatorModel, TabularPolicy
from latentsafe.seeding import derive_seed, inverse_cdf


def _law(rng, shape, full_support):
    """Random conditional law over the last axis, with some zero entries
    unless ``full_support``."""
    table = rng.random(shape) + 0.05
    if not full_support:
        table *= rng.random(shape) < 0.6
        table[..., rng.integers(shape[-1])] += 0.05  # no row sums to zero
    return table / table.sum(axis=-1, keepdims=True)


@st.composite
def offline_problems(draw):
    """A confounded MDP, with or without a mediator, a full-support
    latent-aware behavioral policy, a start state and a dataset size."""
    n = draw(st.integers(2, 5))
    nu = draw(st.integers(2, 3))
    nw = draw(st.integers(1, 3))
    horizon = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mediator = None
    if draw(st.booleans()):
        nm = draw(st.integers(2, 3))
        mediator = MediatorModel(
            mediator_dist=_law(rng, (n, nu, nm), False),
            mediated_transition=_law(rng, (n, nm, nw, n), False),
        )
        # point-mass rows can sum past 1.0 by one ulp
        transition = np.minimum(
            np.einsum("xum,xmwy->xuwy", mediator.mediator_dist, mediator.mediated_transition),
            1.0,
        )
    else:
        transition = _law(rng, (n, nu, nw, n), False)
    safe = rng.random(n) < 0.6
    safe[rng.integers(n)] = True
    model = ConfoundedMdpModel(
        transition=transition,
        latent_dist=_law(rng, (n, nw), False),
        horizon=horizon,
        safe=safe,
        action_values=tuple(range(nu)),
    )
    behavioral = TabularPolicy(table=_law(rng, (n, nw, nu), True))
    return model, mediator, behavioral, draw(st.integers(0, n - 1)), draw(st.integers(0, 30))


def _category(cum_row, uniform):
    """Scalar inverse CDF, written independently of the package."""
    return min(int(np.searchsorted(cum_row, uniform, side="right")), len(cum_row) - 1)


def _draw(probs, uniform):
    return _category(np.cumsum(probs), uniform)


def reference_episodes(model, behavioral, n_episodes, x0, seed, mediator=None):
    """Episode by episode, step by step, in the documented draw order: per
    step the latent, the action, [the mediator,] the next state."""
    h = model.horizon
    per_step = 4 if mediator is not None else 3
    episodes = []
    for i in range(n_episodes):
        ep_seed = derive_seed(seed, i)
        uniforms = iter(np.random.default_rng(ep_seed).random(per_step * (h + 1)))
        xs, us, ms = [x0], [], []
        for t in range(h + 1):
            x = xs[-1]
            w = _draw(model.latent_dist[x], next(uniforms))
            u = _draw(behavioral.table[x, w], next(uniforms))
            us.append(u)
            if mediator is not None:
                ms.append(_draw(mediator.mediator_dist[x, u], next(uniforms)))
                row = mediator.mediated_transition[x, ms[-1], w]
            else:
                row = model.transition[x, u, w]
            x_next = _draw(row, next(uniforms))
            if t < h:
                xs.append(x_next)
        episodes.append((ep_seed, xs, us, ms if mediator is not None else None))
    return episodes


def reference_convert(xs, safe):
    """Copy the raw states until the first unsafe one, then repeat it."""
    out = [xs[0]]
    for t in range(len(xs) - 1):
        out.append(out[t] if not safe[out[t]] else xs[t + 1])
    return out


@settings(max_examples=100, deadline=None)
@given(offline_problems(), st.integers(0, 2**63 - 1))
def test_columnar_generation_and_conversion_equal_reference(problem, seed):
    model, mediator, behavioral, x0, n_episodes = problem
    raw = generate_offline(model, behavioral, n_episodes, x0, seed, mediator=mediator)
    conv = convert_dataset(raw, model.safe)
    reference = reference_episodes(model, behavioral, n_episodes, x0, seed, mediator)
    assert raw.x.shape == (n_episodes, model.horizon + 1)
    assert raw.seed.tolist() == [ep[0] for ep in reference]
    assert raw.x.tolist() == [ep[1] for ep in reference]
    assert raw.u.tolist() == [ep[2] for ep in reference]
    if mediator is None:
        assert raw.m is None
    else:
        assert raw.m.tolist() == [ep[3] for ep in reference]
    assert conv.x.tolist() == [reference_convert(ep[1], model.safe) for ep in reference]
    assert conv.u is raw.u and conv.seed is raw.seed


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(0, 40),
    st.integers(1, 9),
    st.integers(0, 2**32 - 1),
)
def test_inverse_cdf_equals_searchsorted_in_any_block_size(n, batch, block, seed):
    """Blocks of ``block`` entries give the same categories as whole rows,
    for batches and single draws, including draws that tie with a
    cumulative entry or lie beyond the last one."""
    rng = np.random.default_rng(seed)
    cum = np.cumsum(_law(rng, (3, n), False), axis=-1)
    rows = rng.integers(3, size=batch)
    u = rng.random(batch)
    u[::4] = cum[rows[::4], rng.integers(n)]
    u[1::5] = 1.0
    expected = [_category(cum[r], v) for r, v in zip(rows, u)]
    with mock.patch.object(seeding, "_BLOCK_ENTRIES", block):
        assert inverse_cdf(cum, (rows,), u).tolist() == expected
        assert [int(inverse_cdf(cum[r], (), v)) for r, v in zip(rows, u)] == expected
