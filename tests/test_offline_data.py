"""Dataset generation, absorbing conversion, empirical tables, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_episodes, episodes, repeated, three_sigma_match
from latentsafe.data import (
    convert_dataset,
    empirical_offline_tables,
    generate_offline,
    load_jsonl,
    save_jsonl,
)
from latentsafe.errors import ConfigurationError, DatasetFormError
from latentsafe.mdp import absorbing_offline_matrix, p_offline


class TestGeneration:
    def test_empty_dataset(self, mismatch):
        ds = generate_offline(mismatch.model, mismatch.behavioral, 0, x0=0, seed=1)
        assert ds.n_episodes == 0 and ds.form == "raw"

    def test_deterministic_and_order_free(self, mismatch):
        a = generate_offline(mismatch.model, mismatch.behavioral, 50, x0=0, seed=9)
        b = generate_offline(mismatch.model, mismatch.behavioral, 50, x0=0, seed=9)
        assert_same_episodes(a, b)
        # episode i is the i-th block of one stream, whatever the dataset size
        c = generate_offline(mismatch.model, mismatch.behavioral, 10, x0=0, seed=9)
        for name in ("x", "u"):
            assert np.array_equal(getattr(a, name)[:10], getattr(c, name))

    def test_offline_frequency_hides_risky_action(self, mismatch_raw_100k):
        x, u = mismatch_raw_100k.x, mismatch_raw_100k.u
        cell = (x[:, :-1] == 0) & (u[:, :-1] == 1)
        total = int(cell.sum())
        stay = int((cell & (x[:, 1:] == 0)).sum())
        assert total > 10_000
        assert stay == total  # offline statistics make action 1 look perfectly safe

    def test_safe_action_frequency_matches_ratio_formula(
        self, mismatch_h4, mismatch_raw_100k
    ):
        exact = p_offline(mismatch_h4.model, mismatch_h4.behavioral, 0, 0, 0)
        x, u = mismatch_raw_100k.x, mismatch_raw_100k.u
        cell = (x[:, :-1] == 0) & (u[:, :-1] == 0)
        total = int(cell.sum())
        stay = int((cell & (x[:, 1:] == 0)).sum())
        assert three_sigma_match(stay / total, exact, total)

    def test_blind_policy_rejected(self, mismatch, uniform2):
        with pytest.raises(ConfigurationError):
            generate_offline(mismatch.model, uniform2, 1, x0=0, seed=0)

    def test_sequences_cover_final_time(self, mediator_toy):
        ds = generate_offline(
            mediator_toy.model,
            mediator_toy.behavioral,
            3,
            x0=0,
            seed=2,
            mediator=mediator_toy.mediator,
        )
        assert ds.x.shape == ds.u.shape == ds.m.shape == (3, mediator_toy.model.horizon + 1)


class TestConversion:
    def test_safe_episode_unchanged(self, mismatch):
        raw = episodes("raw", [[0, 0, 0, 0]], [[0, 1, 0, 1]])
        conv = convert_dataset(raw, mismatch.model.safe)
        assert conv.x.tolist() == [[0, 0, 0, 0]]
        assert conv.horizon == 3  # columns have remaining time k = 3, 2, 1, 0
        assert conv.u.tolist() == [[0, 1, 0, 1]]

    def test_freeze_at_first_unsafe(self, mismatch):
        raw = episodes("raw", [[0, 0, 1, 0, 0]], [[0, 0, 0, 0, 0]])
        conv = convert_dataset(raw, mismatch.model.safe)
        # the raw trajectory recovers at t = 3; the converted one must not
        assert conv.x.tolist() == [[0, 0, 1, 1, 1]]

    def test_double_conversion_rejected(self, mismatch):
        raw = episodes("raw", [[0, 0]], [[0, 0]])
        conv = convert_dataset(raw, mismatch.model.safe)
        with pytest.raises(DatasetFormError):
            convert_dataset(conv, mismatch.model.safe)

    def test_counts_conserved(self, mismatch_raw_100k, mismatch_converted_100k):
        raw, conv = mismatch_raw_100k, mismatch_converted_100k
        assert conv.n_episodes == raw.n_episodes
        assert raw.x[:100].shape == conv.x[:100].shape
        assert np.array_equal(raw.u[:100], conv.u[:100])

    @settings(max_examples=100, deadline=None)
    @given(
        xs=st.lists(st.integers(0, 1), min_size=6, max_size=6),
        us=st.lists(st.integers(0, 1), min_size=6, max_size=6),
    )
    def test_freeze_rule_for_arbitrary_episodes(self, xs, us):
        """State 1 is unsafe: after its first appearance the converted path is
        constant, before it the raw path is copied, and actions never change."""
        safe = np.array([True, False])
        conv = convert_dataset(episodes("raw", [xs], [us]), safe)
        assert conv.u[0].tolist() == list(us)
        assert conv.horizon == 5  # columns have remaining time k = 5, ..., 0
        first_unsafe = xs.index(1) if 1 in xs else None
        for t in range(6):
            if first_unsafe is None or t <= first_unsafe:
                assert conv.x[0, t] == xs[t]
            else:
                assert conv.x[0, t] == 1

    def test_converted_frequencies_match_absorbing_offline_kernel(
        self, mismatch_h4, mismatch_converted_100k
    ):
        model = mismatch_h4.model
        tables = empirical_offline_tables(mismatch_converted_100k, model)
        kernel = absorbing_offline_matrix(model, mismatch_h4.behavioral)
        for k in range(1, model.horizon + 1):
            for x in range(model.n_states):
                for u in range(model.n_actions):
                    counts = tables.count_trans[k, x, u]
                    n_cell = int(counts.sum())
                    if n_cell == 0:
                        continue
                    for x_next in range(model.n_states):
                        assert three_sigma_match(
                            counts[x_next] / n_cell, kernel[x, u, x_next], n_cell
                        )


class TestEmpiricalTables:
    def test_point_mass_from_repeated_episode(self, mediator_toy):
        ds = episodes("converted", [[0, 0, 1, 1]] * 5, [[1, 0, 1, 0]] * 5, m=[[1, 0, 1, 0]] * 5)
        tables = empirical_offline_tables(ds, mediator_toy.model, mediator_toy.mediator)
        assert np.array_equal(tables.p_action(3, 0), [0.0, 1.0])
        assert np.array_equal(tables.mediator_law[3, 0, 1], [0.0, 1.0])
        assert np.array_equal(tables.next_law[3, 0, 1, 1], [1.0, 0.0])
        assert tables.p_action(3, 1) is None  # never visited

    def test_mediator_parameter_recovery(self, mediator_toy, mediator_tables_100k):
        for k in range(1, 4):
            row = mediator_tables_100k.mediator_law[k, 0, 1]
            n_cell = int(mediator_tables_100k.count_trans[k, 0, 1].sum())
            assert three_sigma_match(row[1], 0.8, n_cell)

    def test_requires_converted_form(self, mismatch, mismatch_raw_100k):
        with pytest.raises(DatasetFormError):
            empirical_offline_tables(mismatch_raw_100k, mismatch.model)

    @pytest.mark.parametrize("key, value", [("x", 2), ("u", 2), ("m", 2), ("x", -1), ("m", -1)])
    def test_out_of_range_id_is_named(self, mediator_toy, key, value):
        """Each count is a bincount of flat cell codes, where an id out of
        range would land in another cell: it is refused instead."""
        rows = {"x": [[0, 0, 1, 1]], "u": [[1, 0, 1, 0]], "m": [[1, 0, 1, 0]]}
        rows[key][0][1] = value
        ds = episodes("converted", rows["x"], rows["u"], m=rows["m"])
        with pytest.raises(DatasetFormError, match=f"field '{key}' holds an id outside 0..1"):
            empirical_offline_tables(ds, mediator_toy.model, mediator_toy.mediator)

    def test_duplicating_episodes_leaves_tables_identical(self, mediator_toy):
        ds = generate_offline(
            mediator_toy.model,
            mediator_toy.behavioral,
            200,
            x0=0,
            seed=5,
            mediator=mediator_toy.mediator,
        )
        conv = convert_dataset(ds, mediator_toy.model.safe)
        doubled = repeated(conv, 2)
        t1 = empirical_offline_tables(conv, mediator_toy.model, mediator_toy.mediator)
        t2 = empirical_offline_tables(doubled, mediator_toy.model, mediator_toy.mediator)
        for k in range(4):
            for x in range(2):
                a1, a2 = t1.p_action(k, x), t2.p_action(k, x)
                assert (a1 is None) == (a2 is None)
                if a1 is not None:
                    assert np.array_equal(a1, a2)


class TestSerialization:
    def test_raw_roundtrip(self, mismatch, tmp_path):
        ds = generate_offline(mismatch.model, mismatch.behavioral, 20, x0=0, seed=3)
        path = tmp_path / "raw.jsonl"
        save_jsonl(ds, path)
        loaded = load_jsonl(path, mismatch.model)
        assert loaded.form == "raw"
        assert_same_episodes(loaded, ds)

    def test_converted_roundtrip(self, mismatch, tmp_path):
        ds = generate_offline(mismatch.model, mismatch.behavioral, 20, x0=0, seed=3)
        conv = convert_dataset(ds, mismatch.model.safe)
        path = tmp_path / "conv.jsonl"
        save_jsonl(conv, path)
        loaded = load_jsonl(path, mismatch.model)
        assert loaded.form == "converted"
        assert_same_episodes(loaded, conv)

    def test_byte_identical_files(self, mismatch, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (a, b):
            save_jsonl(
                generate_offline(mismatch.model, mismatch.behavioral, 30, x0=0, seed=8),
                path,
            )
        assert a.read_bytes() == b.read_bytes()

    def test_empty_file_needs_horizon(self, mismatch, tmp_path):
        """An empty file has no horizon of its own; it takes the model's."""
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        loaded = load_jsonl(path, mismatch.model)
        assert loaded.n_episodes == 0 and loaded.horizon == mismatch.model.horizon
        assert loaded.form == "raw"
