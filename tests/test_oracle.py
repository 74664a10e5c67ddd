"""Exact DP oracles against trajectory enumeration and the Bellman identities."""

import csv
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_write_cells_csv
from latentsafe import oracle
from latentsafe.envs import build_mismatch_env
from latentsafe.errors import ConfigurationError, EnumerationSizeError
from latentsafe.mdp import (
    AugmentedState,
    TabularPolicy,
    absorbing_online_matrix,
    uniform_policy,
)
from latentsafe.oracle import (
    brute_force_psi,
    export_q_csv,
    export_v_csv,
    mixed_policy_long_term_safety,
    q_dp,
    qm_dp,
    value_dp,
    value_from_q,
    write_cells_csv,
)


def always(action: int, n_states: int, n_actions: int) -> TabularPolicy:
    table = np.zeros((n_states, n_actions))
    table[:, action] = 1.0
    return TabularPolicy(table=table)


class TestValueDp:
    def test_terminal_slice_is_safety_indicator(self, mismatch, uniform2):
        v = value_dp(mismatch.model, uniform2)
        assert np.array_equal(v.values[0], mismatch.model.safe.astype(float))

    def test_one_step_under_risky_action(self, mismatch):
        v = value_dp(mismatch.model, always(1, 2, 2))
        assert abs(v.value(0, 1) - 0.55) < 1e-12

    def test_matches_brute_force_enumeration(self, uniform2):
        env = build_mismatch_env(horizon=3)
        v = value_dp(env.model, uniform2)
        for x in range(2):
            for t in range(4):
                psi = brute_force_psi(env.model, uniform2, x, t)
                assert abs(v.value(x, 3 - t) - psi) < 1e-12

    def test_values_bounded(self, driving, uniform5):
        v = value_dp(driving.model, uniform5)
        assert v.values.min() >= 0.0 and v.values.max() <= 1.0

    def test_unsafe_states_worthless(self, driving, uniform5):
        v = value_dp(driving.model, uniform5)
        unsafe = ~driving.model.safe
        assert np.all(v.values[:, unsafe] == 0.0)


class TestQDp:
    def test_terminal_rows_ignore_action(self, mismatch, uniform2):
        q = q_dp(mismatch.model, uniform2)
        assert np.array_equal(q.values[0, 0], [1.0, 1.0])
        assert np.array_equal(q.values[0, 1], [0.0, 0.0])

    def test_unsafe_rows_zero(self, mismatch, uniform2):
        q = q_dp(mismatch.model, uniform2)
        assert np.all(q.values[1:, 1, :] == 0.0)

    def test_one_step_values(self, mismatch, uniform2):
        q = q_dp(mismatch.model, uniform2)
        assert abs(q.values[1, 0, 1] - 0.55) < 1e-12
        assert abs(q.values[1, 0, 0] - 0.95) < 1e-12

    def test_bellman_consistency(self, driving, uniform5):
        model = driving.model
        q = q_dp(model, uniform5)
        v = value_dp(model, uniform5)
        absorbing = absorbing_online_matrix(model)
        for k in range(1, model.horizon + 1):
            expected = absorbing @ v.values[k - 1]
            safe = model.safe
            assert np.max(np.abs(q.values[k][safe] - expected[safe])) < 1e-12

    def test_policy_average_consistency(self, driving, uniform5):
        model = driving.model
        q = q_dp(model, uniform5)
        v = value_dp(model, uniform5)
        for k in range(1, model.horizon + 1):
            avg = (uniform5.table * q.values[k]).sum(axis=1)
            safe = model.safe
            assert np.max(np.abs(v.values[k][safe] - avg[safe])) < 1e-12

    @pytest.mark.parametrize("env_name", ["mismatch", "driving"])
    def test_value_from_q_is_value_dp(self, request, env_name):
        """V read off the Q of one sweep is the V of a second sweep, byte
        for byte, under the uniform policy and a random one (whose average
        of a safe terminal row is not always exactly 1)."""
        model = request.getfixturevalue(env_name).model
        rng = np.random.default_rng(5)
        table = rng.random((model.n_states, model.n_actions))
        for policy in (uniform_policy(model.n_states, model.n_actions),
                       TabularPolicy(table=table / table.sum(axis=1, keepdims=True))):
            v = value_from_q(model, policy, q_dp(model, policy))
            assert v.values.tobytes() == value_dp(model, policy).values.tobytes()

    def test_missing_policy_rows_rejected(self, mismatch):
        short = TabularPolicy(table=np.full((1, 2), 0.5))
        with pytest.raises(ConfigurationError):
            q_dp(mismatch.model, short)


class TestQmDp:
    def test_mediator_average_recovers_q(self, mediator_toy):
        model, med = mediator_toy.model, mediator_toy.mediator
        pi = uniform_policy(model.n_states, model.n_actions)
        q = q_dp(model, pi)
        qm = qm_dp(model, med, pi)
        recovered = np.einsum("xum,kxum->kxu", med.mediator_dist, qm.values)
        assert np.max(np.abs(recovered - q.values)) < 1e-12

    def test_unsafe_rows_zero(self, mediator_toy):
        pi = uniform_policy(2, 2)
        qm = qm_dp(mediator_toy.model, mediator_toy.mediator, pi)
        assert np.all(qm.values[1:, 1] == 0.0)

    def test_terminal_rows(self, mediator_toy):
        pi = uniform_policy(2, 2)
        qm = qm_dp(mediator_toy.model, mediator_toy.mediator, pi)
        assert np.all(qm.values[0, 0] == 1.0)
        assert np.all(qm.values[0, 1] == 0.0)

    def test_bounded(self, mediator_toy):
        pi = uniform_policy(2, 2)
        qm = qm_dp(mediator_toy.model, mediator_toy.mediator, pi)
        assert qm.values.min() >= 0.0 and qm.values.max() <= 1.0


class TestBruteForce:
    def test_no_steps_left_is_indicator(self, mismatch, uniform2):
        h = mismatch.model.horizon
        assert brute_force_psi(mismatch.model, uniform2, 0, h) == 1.0
        assert brute_force_psi(mismatch.model, uniform2, 1, h) == 0.0

    def test_probability_range(self, mismatch, uniform2):
        for x in range(2):
            for t in range(mismatch.model.horizon + 1):
                psi = brute_force_psi(mismatch.model, uniform2, x, t)
                assert 0.0 <= psi <= 1.0

    def test_enumeration_guard(self, driving, uniform5):
        with pytest.raises(EnumerationSizeError):
            brute_force_psi(driving.model, uniform5, 0, 0)


class TestMixedPolicy:
    def test_zero_prefix_is_plain_value(self, mismatch, uniform2):
        v = value_dp(mismatch.model, uniform2)
        controller = lambda x, t: np.array([1.0, 0.0])
        got = mixed_policy_long_term_safety(mismatch.model, controller, uniform2, 0, 0)
        assert abs(got - v.value(0, mismatch.model.horizon)) < 1e-15

    def test_safe_action_prefix_matches_manual_propagation(self, mismatch, uniform2):
        # deterministic prefix playing action 0 (the safer one) for two steps
        model = mismatch.model
        controller = lambda x, t: np.array([1.0, 0.0])
        absorbing = absorbing_online_matrix(model)
        dist = np.zeros(2)
        dist[0] = 1.0
        for _ in range(2):
            dist = dist @ absorbing[:, 0, :]
        v = value_dp(model, uniform2)
        expected = float(dist @ v.values[model.horizon - 2])
        got = mixed_policy_long_term_safety(model, controller, uniform2, 2, 0)
        assert abs(got - expected) < 1e-15


class TestRawPhysicsCrossCheck:
    def test_driving_value_matches_unreduced_simulation(self, driving, uniform5):
        """Simulate the raw driving physics with unbounded positions and
        uncapped velocities under the uniform policy; the all-safe fraction
        must match the DP value computed on the reduced model."""
        v = value_dp(driving.model, uniform5)
        expected = v.value(driving.default_x0, driving.model.horizon)
        rng = np.random.default_rng(20250811)
        n = 200_000
        positions = np.zeros(n, dtype=np.int64)  # never wrapped
        velocities = np.zeros(n, dtype=np.int64)  # never capped
        all_safe = np.ones(n, dtype=bool)
        for _ in range(driving.model.horizon):
            actions = rng.integers(0, 5, size=n) - 3  # uniform on {-3..1}
            dry = positions % 6 >= 3
            w = np.where(
                dry,
                rng.integers(0, 2, size=n),  # {0, 1}
                rng.integers(1, 4, size=n),  # {1, 2, 3}
            )
            n1 = rng.integers(-1, 2, size=n)
            n2 = rng.integers(-2, 3, size=n)
            drive = actions + n1
            traction = np.sign(drive) * np.maximum(0, np.abs(drive) - w)
            positions = positions + velocities
            velocities = np.maximum(0, velocities + traction + n2)
            low_zone = positions % 10 < 4
            safe_now = np.where(low_zone, velocities <= 3, velocities <= 5)
            all_safe &= safe_now
        estimate = all_safe.mean()
        se = np.sqrt(expected * (1 - expected) / n)
        assert abs(estimate - expected) <= 3 * se


class TestExports:
    def test_q_csv_roundtrip(self, mismatch, uniform2, tmp_path):
        q = q_dp(mismatch.model, uniform2)
        path = tmp_path / "q.csv"
        export_q_csv(q, mismatch.model.action_values, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == (mismatch.model.horizon + 1) * 2 * 2
        for row in rows:
            k, x, u = int(row["k"]), int(row["x"]), int(row["u"])
            assert float(row["value"]) == q.values[k, x, u]

    def test_v_csv_header(self, mismatch, uniform2, tmp_path):
        path = tmp_path / "v.csv"
        export_v_csv(value_dp(mismatch.model, uniform2), path)
        header = open(path).readline().strip()
        assert header == "x,k,value"


# Values whose text is easy to get wrong: the smallest subnormal, a sum with a
# 17-digit repr, signed zero, and values outside [0, 1] a writer need not refuse.
CELL_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, 0.1 + 0.2, 1e300, -2.5]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def cell_tables(draw):
    """(columns, values, available, action_values) for a (k, x), (k, x, u)
    or (k, x, u, m) table: 3, 4 or 5 columns."""
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=4)))
    values = np.array(draw(st.lists(CELL_VALUES, min_size=int(np.prod(shape)),
                                    max_size=int(np.prod(shape))))).reshape(shape)
    n_rows = shape[0] * shape[1]
    mask = draw(st.lists(st.booleans(), min_size=n_rows, max_size=n_rows))
    available = np.array(mask).reshape(shape[:2])
    # negative action values, as the driving brake actions are
    actions = tuple(draw(st.lists(st.integers(-5, 5), min_size=3, max_size=3)))
    columns = ["x", "k", "u", "m"][: len(shape)] + ["value"]
    return columns, values, available, actions if len(shape) > 2 else ()


@settings(max_examples=100, deadline=None)
@given(cell_tables())
@example((["x", "k", "value"], np.array([[0.0, 1.0], [5e-324, 0.1 + 0.2]]), None, ()))
@example((["x", "k", "u", "value"], np.full((2, 2, 3), 0.1 + 0.2), np.zeros((2, 2), bool),
          (-2, 0, 2)))  # no row available: the header alone
# JSON spells NaN and the infinities its own way; repr writes 1e16 as 1e+16
@example((["x", "k", "value"], np.array([[np.nan, np.inf], [-np.inf, 1e16]]), None, ()))
@example((["x", "k", "u", "value"], np.array([[[5e-324, -0.0, 1e16]]]), None, (-1, 0, 1)))
@example((["x", "k", "u", "m", "value"], np.zeros((0, 2, 3, 2)), None, (-2, 0, 2)))  # no cell
def test_cells_csv_is_the_csv_writer_bytes(table):
    """``write_cells_csv`` joins lookup tokens; its bytes are those of
    ``csv.writer``, row for row."""
    columns, values, available, actions = table
    with tempfile.TemporaryDirectory() as tmp:
        fast, reference = Path(tmp, "fast.csv"), Path(tmp, "reference.csv")
        write_cells_csv(fast, columns, values, available, actions)
        reference_write_cells_csv(reference, columns, values, available, actions)
        assert fast.read_bytes() == reference.read_bytes()


def test_cell_values_take_one_encoder_call(tmp_path):
    """Every value token of a file comes from one ``json.dumps`` call, over
    several chunks of rows, with NaN and infinities on each side of every
    chunk boundary; the bytes are still ``csv.writer``'s."""
    values = np.arange(6600.0).reshape(3, 1100, 2) / 7
    edges = np.arange(oracle._CSV_ROWS, values.size, oracle._CSV_ROWS)
    values.reshape(-1)[edges - 1] = np.nan
    values.reshape(-1)[edges] = -np.inf
    values[-1, -1, -1] = np.inf
    columns, actions = ["x", "k", "u", "value"], (-1, 1)
    with mock.patch.object(oracle.json, "dumps", wraps=json.dumps) as dumps:
        write_cells_csv(tmp_path / "q.csv", columns, values, None, actions)
        write_cells_csv(tmp_path / "v.csv", ["x", "k", "value"], values[..., 0])
    assert dumps.call_count == 2
    reference_write_cells_csv(tmp_path / "reference.csv", columns, values, None, actions)
    assert (tmp_path / "q.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
