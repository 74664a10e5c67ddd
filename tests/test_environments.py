"""Concrete environment fixtures: dynamics, distributions, and construction."""

import tracemalloc

import numpy as np
import pytest

from conftest import (
    DrivingNoise,
    behavioral_policy_driving,
    driving_latent_dist,
    driving_safe,
    driving_step,
)
from latentsafe.envs import (
    DRIVING_ACTIONS,
    DRIVING_LATENTS,
    N1_VALUES,
    N2_VALUES,
    N_DRIVING_STATES,
    DrivingState,
    build_environment,
    decode_driving,
    encode_driving,
)
from latentsafe.errors import ConfigurationError, EncodingError
from latentsafe.mdp import (
    absorbing_online_matrix,
    absorbing_rows,
    divide_or_zero,
    p_offline_matrix,
    p_online_matrix,
)
from latentsafe.seeding import cdf_table


class TestDrivingStep:
    def test_traction_loss_on_slippery_road(self):
        assert driving_step(DrivingState(3, 2), 1, 3, DrivingNoise(0, 0)) == DrivingState(5, 2)

    def test_velocity_clamped_at_zero(self):
        assert driving_step(DrivingState(0, 0), -3, 0, DrivingNoise(0, 0)) == DrivingState(0, 0)

    def test_velocity_capped_at_nine(self):
        assert driving_step(DrivingState(7, 5), 1, 0, DrivingNoise(1, 2)) == DrivingState(12, 9)

    def test_position_wraps(self):
        assert driving_step(DrivingState(29, 5), 0, 3, DrivingNoise(0, 0)).position == 4

    def test_out_of_range_inputs(self):
        with pytest.raises(EncodingError):
            driving_step(DrivingState(0, 0), 2, 0, DrivingNoise(0, 0))
        with pytest.raises(EncodingError):
            driving_step(DrivingState(0, 0), 0, 4, DrivingNoise(0, 0))
        with pytest.raises(EncodingError):
            driving_step(DrivingState(0, 0), 0, 0, DrivingNoise(2, 0))
        with pytest.raises(EncodingError):
            DrivingState(30, 0)
        with pytest.raises(EncodingError):
            DrivingState(0, 10)


class TestDrivingLatent:
    def test_dry_zone(self):
        assert np.allclose(driving_latent_dist(DrivingState(3, 0)), [0.5, 0.5, 0, 0])

    def test_slippery_zone(self):
        assert np.allclose(driving_latent_dist(DrivingState(0, 0)), [0, 1 / 3, 1 / 3, 1 / 3])

    def test_zone_boundary_at_nine(self):
        # 9 mod 6 = 3, so position 9 is on the dry side of the boundary
        assert np.allclose(driving_latent_dist(DrivingState(9, 0)), [0.5, 0.5, 0, 0])


class TestBehavioralPolicy:
    def test_heavy_braking_when_most_slippery(self):
        row = behavioral_policy_driving(DrivingState(2, 2), 3)
        assert np.allclose(row, [0.9, 0.05, 0.03, 0.01, 0.01])

    def test_uniform_when_dry(self):
        for code in range(0, 300, 7):
            state = decode_driving(code)
            assert np.allclose(behavioral_policy_driving(state, 0), np.full(5, 0.2))

    def test_low_speed_gap_for_mild_slip(self):
        # velocity 1 in a low-limit zone is only covered by the w >= 2 rule
        row = behavioral_policy_driving(DrivingState(2, 1), 1)
        assert np.allclose(row, np.full(5, 0.2))
        row = behavioral_policy_driving(DrivingState(2, 1), 2)
        assert np.allclose(row, [0.5, 0.4, 0.05, 0.04, 0.01])

    def test_rows_sum_to_one_everywhere(self, driving):
        table = driving.behavioral.table
        assert table.shape == (300, 4, 5)
        assert np.all(np.abs(table.sum(axis=-1) - 1.0) < 1e-12)


class TestDrivingModel:
    def test_safe_set_decomposition(self, driving):
        safe = driving.model.safe
        assert int(safe.sum()) == 156
        low_cap = 0
        for code in range(300):
            state = decode_driving(code)
            if state.velocity > 5:
                assert not safe[code]
            if state.position % 10 < 4 and state.velocity in (4, 5):
                assert not safe[code]
                low_cap += 1
        # 180 pairs have velocity <= 5; 24 of them sit over the lower limit
        assert low_cap == 24
        assert int((np.arange(300) % 10 <= 5).sum()) == 180

    def test_transition_rows_marginalize_sixty_combinations(self, driving):
        assert np.allclose(driving.model.transition.sum(axis=-1), 1.0, atol=1e-9)

    def test_step_deterministic_given_inputs(self):
        a = driving_step(DrivingState(17, 4), -2, 1, DrivingNoise(-1, 1))
        b = driving_step(DrivingState(17, 4), -2, 1, DrivingNoise(-1, 1))
        assert a == b

    def test_position_wrap_preserves_predicates(self, driving):
        """The built safe mask and P(w | x) read off the unwrapped position."""
        model = driving.model
        for raw_position in range(120):
            wrapped = raw_position % 30
            for velocity in range(10):
                expect_safe = (
                    velocity <= 3 if raw_position % 10 < 4 else velocity <= 5
                )
                code = encode_driving(DrivingState(wrapped, velocity))
                assert model.safe[code] == expect_safe
                if raw_position % 6 >= 3:
                    expected = [0.5, 0.5, 0, 0]
                else:
                    expected = [0, 1 / 3, 1 / 3, 1 / 3]
                assert np.allclose(model.latent_dist[code], expected)

    def test_encoding_roundtrip(self, driving):
        for code in range(300):
            assert encode_driving(decode_driving(code)) == code
            fields = driving.decode(code)
            assert fields == (code // 10, code % 10)
            assert all(type(v) is int for v in fields)
            assert driving.encode(fields) == code

    def test_build_equals_per_cell_reference(self, driving):
        """The array build against the scalar reference rules of conftest: one
        ``driving_step`` per (x, u, w, n1, n2) cell, adding 1/15 per cell in
        loop order, and one rule call per state and latent: equal bytes. So
        are the online, absorbing, offline and sampling tables against einsum
        and ``cdf_table`` on that dense table, and the model's dense view."""
        nu, nw = len(DRIVING_ACTIONS), len(DRIVING_LATENTS)
        transition = np.zeros((300, nu, nw, 300))
        latent = np.zeros((300, nw))
        safe = np.zeros(300, dtype=bool)
        behavioral = np.zeros((300, nw, nu))
        for code in range(300):
            state = decode_driving(code)
            safe[code] = driving_safe(state)
            latent[code] = driving_latent_dist(state)
            for wi, w in enumerate(DRIVING_LATENTS):
                behavioral[code, wi] = behavioral_policy_driving(state, w)
            for ui, u in enumerate(DRIVING_ACTIONS):
                for wi, w in enumerate(DRIVING_LATENTS):
                    for n1 in N1_VALUES:
                        for n2 in N2_VALUES:
                            nxt = driving_step(state, u, w, DrivingNoise(n1, n2))
                            transition[code, ui, wi, encode_driving(nxt)] += 1 / 15
        model = driving.model
        assert model.latent_dist.tobytes() == latent.tobytes()
        assert model.safe.tobytes() == safe.tobytes()
        assert driving.behavioral.table.tobytes() == behavioral.tobytes()
        # the kernels the short rows give: those of einsum and cdf_table on the dense table
        online = np.einsum("xw,xuwy->xuy", latent, transition)
        weight = latent[:, None, :] * np.transpose(behavioral, (0, 2, 1))
        denom = weight.sum(axis=2)
        numer = np.einsum("xuw,xuwy->xuy", weight, transition)
        offline = p_offline_matrix(model, driving.behavioral)
        cdf, expected_cdf = model.transition_cdf, cdf_table(transition)
        for got, expected in (
            (p_online_matrix(model), online),
            (absorbing_online_matrix(model), absorbing_rows(model, online)),
            (offline.rows, divide_or_zero(numer, denom)),
            (offline.defined, denom > 0.0),
            (cdf.cum, expected_cdf.cum),
            (cdf.support, expected_cdf.support),
            (model.transition, transition),
        ):
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()


def test_driving_kernels_stay_under_one_dense_table():
    """The driving build and its online, absorbing, offline and sampling
    tables never hold a dense (x, u, w, x') table: their traced peak stays
    under that table's bytes (the dense build and einsums peaked at twice it)."""
    n = N_DRIVING_STATES
    dense_bytes = n * len(DRIVING_ACTIONS) * len(DRIVING_LATENTS) * n * 8
    tracemalloc.start()
    try:
        env = build_environment("driving")
        model = env.model
        p_online_matrix(model)
        absorbing_online_matrix(model)
        p_offline_matrix(model, env.behavioral)
        model.transition_cdf
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "transition" not in vars(model)
    assert peak < dense_bytes, f"traced peak {peak} B"


class TestMismatchEnv:
    def test_published_transition_table(self, mismatch):
        t = mismatch.model.transition  # (x, u, w, x')
        assert t[0, 0, 0, 0] == 0.9
        assert t[0, 0, 1, 0] == 1.0
        assert t[1, 0, 1, 0] == 0.0
        assert t[0, 1, 0, 0] == 1.0
        assert t[0, 1, 1, 0] == 0.1
        assert t[1, 1, 1, 0] == 0.0
        latent = mismatch.model.latent_dist
        assert latent[0, 0] == 0.5
        assert latent[1, 0] == 0.0

    def test_rows_complement(self, mismatch):
        assert np.allclose(mismatch.model.transition.sum(axis=-1), 1.0, atol=0)

    def test_behavioral_rows(self, mismatch):
        table = mismatch.behavioral.table
        assert table[0, 0, 0] == 0.5
        assert table[0, 1, 0] == 1.0

    def test_safety(self, mismatch):
        assert mismatch.model.safe.tolist() == [True, False]


class TestMediatorToyEnv:
    def test_mediator_law(self, mediator_toy):
        md = mediator_toy.mediator.mediator_dist
        assert md[0, 1, 1] == 0.8
        assert md[0, 1, 0] == pytest.approx(0.2)
        assert np.allclose(md.sum(axis=-1), 1.0, atol=0)

    def test_direct_kernel_is_mediator_marginal(self, mediator_toy):
        med = mediator_toy.mediator
        marginal = np.einsum("xum,xmwy->xuwy", med.mediator_dist, med.mediated_transition)
        assert np.allclose(marginal, mediator_toy.model.transition, atol=1e-15)

    def test_mediated_law_reuses_mismatch_rows(self, mediator_toy, mismatch):
        assert np.array_equal(
            mediator_toy.mediator.mediated_transition, mismatch.model.transition
        )


class TestRegistry:
    def test_builders(self):
        for env_id in ("driving", "mismatch", "mediator-toy"):
            bundle = build_environment(env_id, horizon=4)
            assert bundle.env_id == env_id
            assert bundle.model.horizon == 4

    def test_unknown_id(self):
        with pytest.raises(ConfigurationError):
            build_environment("rocketry")

    def test_action_values(self, driving):
        assert driving.model.action_values == DRIVING_ACTIONS
