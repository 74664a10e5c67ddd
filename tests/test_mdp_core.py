"""Kernel algebra: marginalized one-step laws and the absorbing auxiliary kernel,
the model's own read-only kernels and tables, and the policy table whose shape
says what it may see."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DrivingNoise, driving_latent_dist, driving_step
from latentsafe.control import (
    MODE_MAX_ACTION,
    CertificateConfig,
    OfflineKernel,
    certify,
    proposed_controller,
    run_control,
)
from latentsafe.envs import (
    DrivingState,
    build_driving_env,
    build_mismatch_env,
    encode_driving,
)
from latentsafe.errors import (
    EncodingError,
    LatentSafeError,
    ModelError,
    PositivityError,
)
from latentsafe.data import generate_offline
from latentsafe.evaluation import run_experiment
from latentsafe.frontdoor import exact_offline_tables, fitted_qm
from latentsafe.mdp import (
    ConfoundedMdpModel,
    MediatorModel,
    TabularPolicy,
    absorbing_offline_matrix,
    absorbing_online_matrix,
    absorbing_rows,
    divide_or_zero,
    p_offline,
    p_offline_matrix,
    p_online,
    p_online_matrix,
    uniform_policy,
)
from latentsafe.oracle import q_dp, qm_dp, value_dp
from latentsafe.seeding import cdf_table


class TestPOnline:
    def test_mismatch_marginalized_value(self, mismatch):
        assert abs(p_online(mismatch.model, 0, 0, 1) - 0.55) < 1e-12

    def test_single_latent_point_mass_is_raw_row(self):
        transition = np.zeros((2, 1, 1, 2))
        transition[0, 0, 0] = [0.3, 0.7]
        transition[1, 0, 0] = [0.0, 1.0]
        model = ConfoundedMdpModel(
            transition=transition,
            latent_dist=np.ones((2, 1)),
            horizon=2,
            safe=np.array([True, False]),
            action_values=(0,),
        )
        assert p_online(model, 1, 0, 0) == transition[0, 0, 0, 1]

    def test_driving_value_matches_independent_enumeration(self, driving):
        # Oracle: direct enumeration over (w, n1, n2) with the scalar step map.
        x = DrivingState(0, 0)
        target = DrivingState(0, 2)
        latent = driving_latent_dist(x)
        expected = 0.0
        for w, p_w in enumerate(latent):
            if p_w == 0.0:
                continue
            for n1 in (-1, 0, 1):
                for n2 in (-2, -1, 0, 1, 2):
                    if driving_step(x, 1, w, DrivingNoise(n1, n2)) == target:
                        expected += p_w / 15.0
        got = p_online(driving.model, encode_driving(target), encode_driving(x), 4)
        assert abs(got - expected) < 1e-12
        # Hand count, independent of any shared code: from velocity 0 under
        # action 1 the drive term is max(0, |1 + n1| - w), which for w = 1
        # reaches 2 only via n1 = 1, so velocity 2 needs (n1=1, n2=1) or
        # (any n1, n2=2) minus overlap: 3 of 15 noise draws per latent level
        # at w = 1, and exactly the n2 = 2 column (3 draws) at w in {2, 3}.
        assert abs(got - 0.2) < 1e-12

    def test_rows_sum_to_one(self, mismatch, driving):
        for model in (mismatch.model, driving.model):
            rows = p_online_matrix(model)
            assert np.allclose(rows.sum(axis=-1), 1.0, atol=1e-9)

    def test_unknown_state_raises(self, mismatch):
        with pytest.raises(EncodingError):
            p_online(mismatch.model, 0, 5, 0)
        with pytest.raises(EncodingError):
            p_online(mismatch.model, 0, 0, 9)


class TestPOffline:
    def test_mismatch_logged_value(self, mismatch):
        assert abs(p_offline(mismatch.model, mismatch.behavioral, 0, 0, 1) - 1.0) < 1e-12

    def test_latent_free_policy_reduces_to_online(self, mismatch):
        table = np.tile([[0.3, 0.7]], (2, 2, 1))  # same row for every latent
        blindish = TabularPolicy(table=table)
        for x in range(2):
            for u in range(2):
                assert abs(
                    p_offline(mismatch.model, blindish, 0, x, u)
                    - p_online(mismatch.model, 0, x, u)
                ) < 1e-12

    def test_two_term_ratio_hand_value(self, mismatch):
        # numerator 0.5*0.9*0.5 + 0.5*1*1, denominator 0.5*0.5 + 0.5*1
        assert abs(
            p_offline(mismatch.model, mismatch.behavioral, 0, 0, 0) - 0.725 / 0.75
        ) < 1e-12

    def test_zero_support_names_cell(self, mismatch):
        table = np.zeros((2, 2, 2))
        table[:, :, 0] = 1.0  # action 1 never taken anywhere
        never_one = TabularPolicy(table=table)
        with pytest.raises(PositivityError) as err:
            p_offline(mismatch.model, never_one, 0, 0, 1)
        assert err.value.cell == (0, 1)

    def test_defined_rows_sum_to_one(self, mismatch, driving):
        for env in (mismatch, driving):
            rows, defined = p_offline_matrix(env.model, env.behavioral)
            assert defined.all()
            assert np.allclose(rows.sum(axis=-1), 1.0, atol=1e-9)

    def test_blind_policy_rejected(self, mismatch, uniform2):
        with pytest.raises(ModelError):
            p_offline(mismatch.model, uniform2, 0, 0, 0)


class TestSharedOfflineChecks:
    """The DTCBF kernel, the absorbing offline kernel and the exact front-door
    tables read the behavioral policy through one weight table and one
    support check, so they reject the same tables the same way."""

    READERS = {
        "p_offline_matrix": lambda env, b: p_offline_matrix(env.model, b),
        "absorbing_offline_matrix": lambda env, b: absorbing_offline_matrix(env.model, b),
        "exact_offline_tables": lambda env, b: exact_offline_tables(env.model, env.mediator, b),
    }

    @pytest.mark.parametrize("reader", READERS)
    def test_misshaped_behavioral_is_model_error(self, mediator_toy, reader):
        three_states = TabularPolicy(table=np.full((3, 2, 2), 0.5))
        with pytest.raises(ModelError, match="does not match the model dimensions"):
            self.READERS[reader](mediator_toy, three_states)

    def test_unplayed_safe_action_names_one_cell(self, mediator_toy):
        table = np.zeros((2, 2, 2))
        table[:, :, 0] = 1.0  # action 1 never taken anywhere
        never_one = TabularPolicy(table=table)
        errors = []
        for reader in ("absorbing_offline_matrix", "exact_offline_tables"):
            with pytest.raises(PositivityError) as err:
                self.READERS[reader](mediator_toy, never_one)
            errors.append(err.value)
        assert [e.cell for e in errors] == [(0, 1), (0, 1)]
        assert str(errors[0]) == str(errors[1]) == "offline row undefined at safe state 0, action 1"

    @pytest.mark.parametrize("reader", ["exact_offline_tables", "generate_offline", "qm_dp"])
    @pytest.mark.parametrize("misfit", ["three-actions", "three-latents"])
    def test_misfit_mediator_is_model_error(self, mediator_toy, reader, misfit):
        """A mediator law over three actions, or a mediated kernel over three
        latents, on the 2-action, 2-latent toy names both shapes wherever it
        meets the model."""
        env = mediator_toy
        tables = {"mediator_dist": env.mediator.mediator_dist,
                  "mediated_transition": env.mediator.mediated_transition}
        if misfit == "three-actions":
            tables["mediator_dist"] = np.full((2, 3, 2), 0.5)
        else:
            tables["mediated_transition"] = np.full((2, 2, 3, 2), 0.5)
        mediator = MediatorModel(**tables)
        call = {
            "exact_offline_tables": lambda: exact_offline_tables(env.model, mediator,
                                                                 env.behavioral),
            "generate_offline": lambda: generate_offline(env.model, env.behavioral, 3, 0, 1,
                                                         mediator=mediator),
            "qm_dp": lambda: qm_dp(env.model, mediator, TabularPolicy(np.full((2, 2), 0.5))),
        }[reader]
        shapes = (tables["mediator_dist"].shape, tables["mediated_transition"].shape)
        message = f"shapes {shapes[0]} and {shapes[1]} do not fit a model of transition shape "
        with pytest.raises(ModelError, match=re.escape(message + "(2, 2, 2, 2)")):
            call()

    def test_offline_matrix_is_the_control_kernel(self, mediator_toy):
        kernel = p_offline_matrix(mediator_toy.model, mediator_toy.behavioral)
        assert isinstance(kernel, OfflineKernel)


class TestAbsorbingKernel:
    def test_unsafe_state_freezes(self, mismatch):
        for rows in (
            absorbing_online_matrix(mismatch.model),
            absorbing_offline_matrix(mismatch.model, mismatch.behavioral),
        ):
            assert np.array_equal(rows[1, 0], [0.0, 1.0])

    def test_safe_state_keeps_base_row(self, mismatch):
        row = absorbing_online_matrix(mismatch.model)[0, 1]
        assert row == pytest.approx([0.55, 0.45], abs=1e-12)

    def test_matrix_rows_are_point_masses_at_unsafe(self, driving):
        rows = absorbing_online_matrix(driving.model)
        for x in np.flatnonzero(~driving.model.safe):
            for u in range(driving.model.n_actions):
                expected = np.zeros(driving.model.n_states)
                expected[x] = 1.0
                assert np.array_equal(rows[x, u], expected)


@pytest.mark.parametrize("env", ["driving", "mismatch", "mediator_toy"])
def test_online_kernels_belong_to_the_model(env, request):
    """Each online kernel is built once per model, read-only, and equal to
    its explicit formula."""
    model = request.getfixturevalue(env).model
    online = np.einsum("xw,xuwy->xuy", model.latent_dist, model.transition)
    for kernel, expected in (
        (p_online_matrix, online),
        (absorbing_online_matrix, absorbing_rows(model, online)),
    ):
        rows = kernel(model)
        assert kernel(model) is rows
        assert np.array_equal(rows, expected)
        with pytest.raises(ValueError):
            rows[0, 0, 0] = 0.5


def _aliasing_model(transition=None, **rows):
    return ConfoundedMdpModel(
        transition=transition,
        latent_dist=np.ones((2, 1)),
        horizon=2,
        safe=np.array([True, False]),
        action_values=(0,),
        **rows,
    )


def _two_state_transition():
    transition = np.zeros((2, 1, 1, 2))
    transition[:, 0, 0] = [[0.3, 0.7], [0.0, 1.0]]
    return transition


def _two_state_rows():
    """The short rows of ``_two_state_transition``."""
    return {
        "successors": np.array([[[[0, 1]]], [[[1, 1]]]], dtype=np.int64),
        "probs": np.array([[[[0.3, 0.7]]], [[[1.0, 0.0]]]]),
    }


class TestTransitionAliasing:
    """The model copies every input, so no array of the caller aliases it,
    and a dense transition is compressed and never kept."""

    def test_writable_input_is_copied(self):
        transition, rows = _two_state_transition(), _two_state_rows()
        models = _aliasing_model(transition), _aliasing_model(**rows)
        transition[0, 0, 0] = [1.0, 0.0]
        rows["successors"][0, 0, 0] = [1, 1]
        rows["probs"][0, 0, 0] = [1.0, 0.0]
        for model in models:
            assert model.transition is not transition
            assert model.successors is not rows["successors"]
            assert model.probs is not rows["probs"]
            assert model.transition[0, 0, 0].tolist() == [0.3, 0.7]
        assert all(a.flags.writeable for a in (transition, *rows.values()))

    def test_read_only_view_of_writable_base_is_copied(self):
        base = _two_state_rows()
        views = {key: table.view() for key, table in base.items()}
        for view in views.values():
            view.setflags(write=False)
        model = _aliasing_model(**views)
        base["successors"][0, 0, 0] = [1, 1]
        base["probs"][0, 0, 0] = [1.0, 0.0]
        assert model.successors is not views["successors"]
        assert model.probs is not views["probs"]
        assert model.transition[0, 0, 0].tolist() == [0.3, 0.7]

    def test_read_only_input_is_still_checked(self):
        transition = _two_state_transition()
        transition[0, 0, 0] = [0.3, 0.6]
        transition.setflags(write=False)
        rows = _two_state_rows()
        rows["probs"][0, 0, 0] = [0.3, 0.6]
        for table in rows.values():
            table.setflags(write=False)
        for kernel in ({"transition": transition}, rows):
            with pytest.raises(
                ModelError,
                match=re.escape("transition rows must sum to 1 (worst deviation 1.000e-01)"),
            ):
                _aliasing_model(**kernel)

    @pytest.mark.parametrize(
        "successors, message",
        [
            ([[0, 2], [1, 1]], "transition successor ids outside [0, 2)"),
            ([[-1, 1], [1, 1]], "transition successor ids outside [0, 2)"),
            ([[1, 0], [1, 1]], "transition rows must list their successors first, ascending"),
        ],
    )
    def test_malformed_rows_are_refused(self, successors, message):
        rows = _two_state_rows()
        rows["successors"] = np.array(successors).reshape(2, 1, 1, 2)
        with pytest.raises(ModelError, match=re.escape(message)):
            _aliasing_model(**rows)

    def test_padding_before_an_entry_is_refused(self):
        rows = _two_state_rows()
        rows["probs"] = np.array([[0.3, 0.7], [0.0, 1.0]]).reshape(2, 1, 1, 2)
        with pytest.raises(ModelError, match="list their successors first"):
            _aliasing_model(**rows)

    def test_one_kernel_form_is_required(self):
        for kernel in ({}, {"transition": _two_state_transition(), **_two_state_rows()}):
            with pytest.raises(ModelError, match="either dense or as successors and probs"):
                _aliasing_model(**kernel)


class TestBarrier:
    """The barrier h(x) is model data: one finite value per state, 2 * 1{safe}
    - 1 unless given, read-only and copied."""

    def test_default_is_signed_safe_mask(self, mismatch):
        model = _aliasing_model(transition=_two_state_transition())
        for m in (model, mismatch.model):
            assert m.barrier.dtype == np.float64
            assert np.array_equal(m.barrier, np.where(m.safe, 1.0, -1.0))

    def test_given_barrier_is_a_read_only_copy(self):
        barrier = np.array([-0.25, 3.0])  # signs opposite to safe = [True, False]
        model = _aliasing_model(transition=_two_state_transition(), barrier=barrier)
        barrier[0] = 1.0
        assert model.barrier.tolist() == [-0.25, 3.0]
        with pytest.raises(ValueError):
            model.barrier[0] = 0.0

    @pytest.mark.parametrize(
        "barrier", [[1.0], [1.0, -1.0, 1.0], [[1.0, -1.0]], [np.nan, 1.0], [1.0, np.inf],
                    [-np.inf, 1.0]],
    )
    def test_one_finite_value_per_state_is_required(self, barrier):
        with pytest.raises(ModelError, match="barrier must hold one finite value per state"):
            _aliasing_model(transition=_two_state_transition(), barrier=barrier)


class TestProbabilityTableChecks:
    """Every probability table is checked for entries in [0, 1] and rows
    that sum to 1, whatever its size."""

    @pytest.mark.parametrize("row", [[1.5, -0.5], [-1e-300, 1.0]])
    def test_entry_outside_unit_interval(self, row):
        with pytest.raises(ModelError, match=re.escape("policy table has entries outside [0, 1]")):
            TabularPolicy(table=np.array([[0.5, 0.5], row]))

    def test_nan_entry_fails_the_row_sums(self):
        with pytest.raises(
            ModelError, match=re.escape("policy table rows must sum to 1 (worst deviation nan)")
        ):
            TabularPolicy(table=np.array([[0.5, 0.5], [np.nan, 1.0]]))

    def test_nan_transition_entry_is_refused(self):
        transition = _two_state_transition()
        transition[1, 0, 0, 0] = np.nan
        with pytest.raises(ModelError, match=re.escape("transition rows must sum to 1")):
            _aliasing_model(transition)

    @pytest.mark.parametrize("shape", [(0, 2), (0, 3, 2)])
    def test_zero_size_table_is_accepted(self, shape):
        assert TabularPolicy(table=np.zeros(shape)).table.shape == shape


class TestMarkovProperty:
    def test_two_step_histories_agree(self, mismatch):
        """P(X2 | X1=0, U1=u) is the same whichever (X0, U0) prefix produced X1."""
        model = mismatch.model
        n = 100_000
        rng = np.random.default_rng(97)
        freqs = {}
        counts = {}
        for prefix_u in (0, 1):
            w0 = rng.random(n) < model.latent_dist[0, 1]
            p_stay = np.where(
                w0, model.transition[0, prefix_u, 1, 0], model.transition[0, prefix_u, 0, 0]
            )
            x1 = np.where(rng.random(n) < p_stay, 0, 1)
            at_zero = x1 == 0
            m = int(at_zero.sum())
            w1 = rng.random(m) < model.latent_dist[0, 1]
            for u1 in (0, 1):
                p_stay1 = np.where(
                    w1, model.transition[0, u1, 1, 0], model.transition[0, u1, 0, 0]
                )
                x2 = rng.random(m) < p_stay1
                freqs[(prefix_u, u1)] = float(x2.mean())
                counts[(prefix_u, u1)] = m
        for u1 in (0, 1):
            a, b = freqs[(0, u1)], freqs[(1, u1)]
            na, nb = counts[(0, u1)], counts[(1, u1)]
            se = np.sqrt(a * (1 - a) / na + b * (1 - b) / nb)
            assert abs(a - b) <= 3 * se + 1e-12


class TestLatentPermutation:
    def test_online_kernel_invariant(self, mismatch):
        model = mismatch.model
        perm = [1, 0]
        permuted = ConfoundedMdpModel(
            transition=model.transition[:, :, perm, :],
            latent_dist=model.latent_dist[:, perm],
            horizon=model.horizon,
            safe=model.safe,
            action_values=model.action_values,
        )
        assert np.allclose(
            p_online_matrix(model), p_online_matrix(permuted), atol=1e-15
        )


def _normalized(rows: np.ndarray) -> np.ndarray:
    return rows / rows.sum(axis=-1, keepdims=True)


@st.composite
def small_models(draw):
    n = draw(st.integers(2, 4))
    nu = draw(st.integers(1, 3))
    nw = draw(st.integers(1, 3))
    raw_t = draw(
        st.lists(
            st.floats(0.01, 1.0), min_size=n * nu * nw * n, max_size=n * nu * nw * n
        )
    )
    raw_d = draw(st.lists(st.floats(0.01, 1.0), min_size=n * nw, max_size=n * nw))
    transition = _normalized(np.array(raw_t).reshape(n, nu, nw, n))
    latent = _normalized(np.array(raw_d).reshape(n, nw))
    safe = np.array([draw(st.booleans()) for _ in range(n)])
    safe[0] = True  # keep at least one safe state
    return ConfoundedMdpModel(
        transition=transition,
        latent_dist=latent,
        horizon=3,
        safe=safe,
        action_values=tuple(range(nu)),
    )


@settings(max_examples=50, deadline=None)
@given(small_models())
def test_online_rows_normalized_for_random_models(model):
    rows = p_online_matrix(model)
    assert np.allclose(rows.sum(axis=-1), 1.0, atol=1e-9)
    assert rows.min() >= -1e-15


@settings(max_examples=50, deadline=None)
@given(small_models(), st.randoms(use_true_random=False))
def test_latent_free_behavioral_matches_online_for_random_models(model, rand):
    rows = np.array(
        [[rand.random() + 0.05 for _ in range(model.n_actions)] for _ in range(model.n_states)]
    )
    rows = _normalized(rows)
    table = np.repeat(rows[:, None, :], model.n_latents, axis=1)
    behavioral = TabularPolicy(table=table)
    offline, defined = p_offline_matrix(model, behavioral)
    assert defined.all()
    assert np.allclose(offline, p_online_matrix(model), atol=1e-12)


@st.composite
def sparse_kernels(draw):
    """A dense P(x'|x,u,w) of rows with at most k positive entries, some a
    single entry or all mass in the last column; P(w|x); a behavioral policy
    that never plays some actions under some latents; and a numpy stream."""
    n = draw(st.integers(2, 17))
    nu, nw = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n, nu, nw)
    # each row's k candidate columns, of which a random count are used
    columns = np.argsort(rng.random((*shape, n)), axis=-1)[..., :k]
    used = np.arange(k) < rng.integers(1, k + 1, size=(*shape, 1))
    transition = np.zeros((*shape, n))
    np.put_along_axis(transition, columns, (rng.random(columns.shape) + 0.05) * used, axis=-1)
    transition[rng.random(shape) < 0.2] = np.eye(n)[-1]  # all mass in the last column
    transition /= transition.sum(axis=-1, keepdims=True)
    latent = rng.random((n, nw)) * (rng.random((n, nw)) < 0.7)
    latent[np.arange(n), rng.integers(nw, size=n)] += 0.05
    latent = _normalized(latent)
    plays = (rng.random((n, nw, nu)) < 0.6) | (np.arange(nu) == 0)
    behavioral = _normalized(rng.random((n, nw, nu)) * plays + 1e-3 * plays)
    return transition, latent, TabularPolicy(table=behavioral), rng


@settings(max_examples=60, deadline=None)
@given(sparse_kernels())
def test_short_rows_equal_the_dense_reference(case):
    """A model given a dense kernel keeps its short rows; the online,
    absorbing, offline and sampling tables, the draws and the dense view
    from them equal einsum and ``cdf_table`` on the dense input, byte for byte."""
    transition, latent, behavioral, rng = case
    n, nu, nw, _ = transition.shape
    safe = np.arange(n) != rng.integers(1, n + 1)  # maybe one unsafe state
    model = ConfoundedMdpModel(
        transition=transition, latent_dist=latent, horizon=2, safe=safe,
        action_values=tuple(range(nu)),
    )
    online = np.einsum("xw,xuwy->xuy", latent, transition)
    weight = latent[:, None, :] * np.transpose(behavioral.table, (0, 2, 1))
    denom = weight.sum(axis=2)
    offline = p_offline_matrix(model, behavioral)
    cdf, expected_cdf = model.transition_cdf, cdf_table(transition)
    assert (cdf.support is None) == (expected_cdf.support is None)
    pairs = [
        (p_online_matrix(model), online),
        (absorbing_online_matrix(model), absorbing_rows(model, online)),
        (offline.rows, divide_or_zero(np.einsum("xuw,xuwy->xuy", weight, transition), denom)),
        (offline.defined, denom > 0.0),
        (cdf.cum, expected_cdf.cum),
        (model.transition, transition),
    ]
    if cdf.support is not None:
        pairs.append((cdf.support, expected_cdf.support))
    for got, expected in pairs:
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
    cells = tuple(rng.integers(size, size=64) for size in (n, nu, nw))
    u = np.concatenate([rng.random(62), [0.0, np.nextafter(1.0, 0.0)]])
    assert np.array_equal(cdf.draw(cells, u), expected_cdf.draw(cells, u))
    x_next, x, u = (int(rng.integers(size)) for size in (n, n, nu))
    assert p_online(model, x_next, x, u) == online[x, u, x_next]
    if denom[x, u] > 0.0:
        assert p_offline(model, behavioral, x_next, x, u) == offline.rows[x, u, x_next]
    else:
        with pytest.raises(PositivityError):
            p_offline(model, behavioral, x_next, x, u)


@pytest.mark.parametrize(
    "reader", ["value_dp", "certify", "run_control", "fitted_qm", "run_experiment"]
)
def test_behavioral_table_rejected_where_blind_policy_is_read(mediator_toy, reader):
    """An (x, w, u) table is a behavioral policy: each reader of a
    latent-blind policy raises LatentSafeError for it, never a numpy error."""
    model, behavioral = mediator_toy.model, mediator_toy.behavioral
    blind = uniform_policy(model.n_states, model.n_actions)
    q = q_dp(model, blind)
    config = CertificateConfig(0.2, MODE_MAX_ACTION)
    calls = {
        "value_dp": lambda: value_dp(model, behavioral),
        "certify": lambda: certify(q, behavioral, config, model.action_values),
        "run_control": lambda: run_control(
            model, certify(q, blind, config, model.action_values), behavioral, 0, 1, 1
        ),
        "fitted_qm": lambda: fitted_qm(
            model, behavioral, exact_offline_tables(model, mediator_toy.mediator, behavioral)
        ),
        "run_experiment": lambda: run_experiment(
            model, proposed_controller(model, q, blind, config), behavioral, x0=0, seed=1,
            epsilon=0.2, batches=1, trajs_per_batch=1, value=value_dp(model, blind),
        ),
    }
    with pytest.raises(LatentSafeError):
        calls[reader]()
