"""Front-door estimation on exact tables equals the DP oracles on random
mediated confounded MDPs; the one-pass fitted-Q equals the Jacobi reference
on exact and sampled tables; the one-pass Q CSV loader equals the
csv.DictReader reference on valid, corrupted and edge-case files."""

import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from conftest import reference_fitted_qm, reference_load_q_table_csv
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latentsafe import frontdoor
from latentsafe.frontdoor import (
    exact_offline_tables,
    fitted_q_table,
    fitted_qm,
    front_door_online_kernel,
    load_q_table_csv,
)
from latentsafe.data import convert_dataset, empirical_offline_tables, generate_offline
from latentsafe.errors import ConfigurationError, FittedQConvergenceError
from latentsafe.mdp import (
    AugmentedState,
    ConfoundedMdpModel,
    MediatorModel,
    TabularPolicy,
    absorbing_online_matrix,
    uniform_policy,
)
from latentsafe.oracle import export_q_csv, q_dp, qm_dp

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


@st.composite
def fit_cases(draw):
    """(model, policy, tables, max_iters, tolerance): a mediated problem with
    its exact tables or the empirical tables of 1-300 episodes from a drawn
    start. Unsafe starts give all-zero rows, few episodes unseen cells and
    positivity errors."""
    model, mediator, behavioral, policy = draw(mediated_problems())
    if draw(st.booleans()):
        tables = exact_offline_tables(model, mediator, behavioral)
    else:
        raw = generate_offline(
            model, behavioral, draw(st.integers(1, 300)),
            x0=draw(st.integers(0, model.n_states - 1)),
            seed=draw(st.integers(0, 2**32 - 1)), mediator=mediator,
        )
        tables = empirical_offline_tables(convert_dataset(raw, model.safe), model, mediator)
    max_iters = draw(st.integers(-1, model.horizon + 2) | st.just(1000))
    return model, policy, tables, max_iters, draw(st.sampled_from([1e-10, 0.95]))


def _fit_outcome(fit, model, policy, tables, max_iters, tolerance):
    try:
        q = fit(model, policy, tables, tolerance=tolerance, max_iters=max_iters)
    except Exception as exc:  # noqa: BLE001 - the outcome compared is the exception
        return type(exc), str(exc), getattr(exc, "iterations", None), getattr(exc, "residual", None)
    return q.values.tobytes(), q.iterations, q.residual, q.default_cell_warnings


@settings(max_examples=200, deadline=None)
@given(fit_cases())
def test_one_pass_fit_matches_jacobi_reference(case):
    assert _fit_outcome(fitted_qm, *case) == _fit_outcome(reference_fitted_qm, *case)


@pytest.mark.parametrize("max_iters", [-1, 0, 1, 1000])
@pytest.mark.parametrize("tolerance", [1e-10, 0.95])
@pytest.mark.parametrize("x0", [0, 1])
def test_one_pass_fit_edge_cases_match_jacobi_reference(mediator_toy, x0, tolerance, max_iters):
    model, mediator = mediator_toy.model, mediator_toy.mediator
    raw = generate_offline(model, mediator_toy.behavioral, 50, x0=x0, seed=13, mediator=mediator)
    tables = empirical_offline_tables(convert_dataset(raw, model.safe), model, mediator)
    case = (model, uniform_policy(2, 2), tables, max_iters, tolerance)
    assert _fit_outcome(fitted_qm, *case) == _fit_outcome(reference_fitted_qm, *case)
    if x0 == 1:  # unsafe start: every row is zero, and a fit fills at most one
        fit = fitted_qm(*case[:3], tolerance=tolerance, max_iters=max_iters)
        assert fit.iterations == (1 if max_iters >= 1 else 0)
        assert not fit.values.any()
    elif max_iters <= 0:  # no row filled; row 0 is the safe state's 1.0
        with pytest.raises(FittedQConvergenceError) as err:
            fitted_qm(*case[:3], tolerance=tolerance, max_iters=max_iters)
        assert (err.value.iterations, err.value.residual) == (0, 1.0)


# field texts that int() or float() read in their own ways, or reject
ODD_FIELDS = ["", "a", " 1 ", "+1", "1_0", "1.0", "1.5", "-1", "-0.0", "1e-3", "nan", "inf",
              "0x1", "99999999999999999999", "-99999999999999999999", "9223372036854775808"]


@st.composite
def q_csv_files(draw):
    """(text, horizon, n_states, action_values): the rows of a valid Q CSV
    in some order, then up to four corruptions, each at a random line. Half
    end their lines with CR LF, as the writer does, so that a file with the
    writer's header takes the array path; the rest with LF."""
    horizon, n_states = draw(st.integers(0, 3)), draw(st.integers(1, 4))
    action_values = tuple(draw(st.lists(st.integers(-2, 3), min_size=1, max_size=3, unique=True)))
    listed = draw(st.lists(
        st.tuples(st.integers(0, n_states - 1), st.integers(0, horizon)), unique=True))
    rows = [[str(x), str(k), str(u), repr(draw(st.floats(0.0, 1.0)))]
            for x, k in listed for u in action_values]
    rows = draw(st.permutations(rows))
    header = ["x", "k", "u", "value"]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(
            ["delete", "repeat", "field", "number", "value", "blank", "short", "long", "header"]))
        at = draw(st.integers(0, len(rows)))
        j = min(at, len(rows) - 1)  # an existing row, or the end of an empty list
        row = list(rows[j]) if rows and len(rows[j]) >= 4 else ["0", "0", "0", "0.5"]
        if kind == "delete" and rows:
            del rows[j]
        elif kind == "repeat":
            rows.insert(at, row)
        elif kind in ("field", "number", "value"):
            col = 3 if kind == "value" else draw(st.integers(0, 3))
            row[col] = (draw(st.sampled_from(ODD_FIELDS)) if kind == "field"
                        else str(draw(st.integers(-2, 5))) if col < 3
                        else repr(draw(st.floats(-0.5, 1.5))))
            rows[j : j + 1] = [row]
        elif kind == "blank":
            rows.insert(at, [])
        elif kind == "short":
            rows.insert(at, row[:draw(st.integers(1, 3))])
        elif kind == "long":
            rows.insert(at, row + ["9"])
        elif kind == "header":
            header = draw(st.sampled_from([
                ["x", "k", "u"], ["x", "k", "u", "value", "x"], ["k", "x", "u", "value"], [],
            ]))
    newline = draw(st.sampled_from(["\r\n", "\n"]))
    text = newline.join(",".join(r) for r in [header, *rows]) + newline
    return text, horizon, n_states, action_values


def _q_file(*rows):
    """A Q CSV in the writer's layout (its header, CR LF line ends) for
    horizon 3, 4 states and actions (0, 3): a ``q_csv_files`` draw."""
    return "".join(f"{line}\r\n" for line in ("x,k,u,value", *rows)), 3, 4, (0, 3)


def _outcome(load, path, *args):
    try:
        q = load(path, *args)
    except Exception as exc:  # noqa: BLE001 - the outcome compared is the exception
        return type(exc), str(exc)
    return q.values.tobytes(), q.available.tobytes()


@settings(max_examples=200, deadline=None)
@given(q_csv_files(), st.booleans())
# int fields numpy and int() could read apart: a float, a sign, a space,
# an underscore, a non-ASCII digit, an ASCII separator byte
@example(_q_file("3.0,3,0,0.5", "3,3,3,0.25"), False)
@example(_q_file("3,+3,0,0.5", "3,3,3,0.25"), False)
@example(_q_file("3,3,0,0.5", "3,3, 3,0.25"), False)
@example(_q_file("1_0,3,0,0.5", "3,3,3,0.25"), False)
@example(_q_file("3,\u0663,0,0.5", "3,3,3,0.25"), False)
@example(_q_file("3,3\x1c,0,0.5", "3,3,3,0.25"), False)  # numpy strips it as whitespace
# values: NaN, inf, 1.5 and -0.5 are outside [0, 1]; a tiny value and a
# signed zero load
@example(_q_file("3,3,0,nan", "3,3,3,0.25"), False)
@example(_q_file("3,3,0,inf", "3,3,3,0.25"), False)
@example(_q_file("3,3,0,1.5", "3,3,3,0.25"), False)
@example(_q_file("3,3,0,-0.5", "3,3,3,0.25"), False)
@example(_q_file("3,3,0,1e-05", "3,3,3,0.25"), False)
@example(_q_file("3,3,0,-0.0", "3,3,3,0.25"), False)
# whole files: a comment line, a quoted value, an extra column, a blank
# line, the header alone, a repeated cell, a (k, x) missing an action, an
# unknown action in its place
@example(_q_file("# oracle", "3,3,0,0.5", "3,3,3,0.25"), False)
@example(_q_file('3,3,0,"0.5"', "3,3,3,0.25"), False)
@example(_q_file("3,3,0,0.5,9", "3,3,3,0.25"), False)
@example(_q_file("3,3,0,0.5", "", "3,3,3,0.25"), False)
@example(_q_file(), False)
@example(_q_file("3,3,0,0.5", "3,3,3,0.25", "3,3,0,0.5"), False)
@example(_q_file("3,3,0,0.5"), False)
@example(_q_file("3,3,0,0.5", "3,3,4,0.25"), False)
def test_q_csv_loader_equals_row_reference(file, bad_bytes):
    text, *args = file
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "q.csv")
        with open(path, "wb") as fh:
            # undecodable bytes at the end: a file this small fails to decode
            # before its first row is read
            fh.write(text.encode() + (b"\xff\xfe\n" if bad_bytes else b""))
        assert _outcome(load_q_table_csv, path, *args) == _outcome(
            reference_load_q_table_csv, path, *args
        )


@pytest.mark.parametrize("bad_row, error", [(None, ConfigurationError), (5, ConfigurationError)])
def test_q_csv_rows_before_a_read_error_are_checked(tmp_path, bad_row, error):
    # rows over several 8 KB decode chunks, then undecodable bytes: the rows
    # read before the decode error are checked, and a bad one is reported
    rows = [f"{x},{k},{u},0.5" for k in range(4) for x in range(200) for u in (0, 1)]
    if bad_row is not None:
        rows[bad_row] = rows[bad_row].replace("0.5", "1.5")
    path = tmp_path / "q.csv"
    path.write_bytes(("x,k,u,value\n" + "\n".join(rows) + "\n").encode() + b"\xff\n")
    outcome = _outcome(load_q_table_csv, path, 3, 200, (0, 1))
    assert outcome == _outcome(reference_load_q_table_csv, path, 3, 200, (0, 1))
    assert outcome[0] is error


HEADER = b"x,k,u,value"


@pytest.mark.parametrize("data, expected", [
    (b"\xef\xbb\xbf" + HEADER + b"\n0,0,0,0.5\n", "line 2 is not a cell row"),  # "\ufeffx"
    (HEADER + b"\n", None),
    (b"", None),
    (HEADER + b"\r\n0,0,0,0.5\r\n0,0,1,0.25\r\n1,1,1,oops\r\n", "line 4 is not a cell row"),
    (HEADER + b"\r0,0,0,0.5\r0,0,1,0.25\r1,1,1,oops\r", "line 4 is not a cell row"),
    (HEADER + b'\n0,0,0,"0.5\n"\n0,0,1,0.25\n', None),
    (HEADER + b",x\n0,0,0,0.5\n", "line 2 is not a cell row"),  # x is the fifth column
    (HEADER + b",x\n9,0,0,0.5,0\n9,0,1,0.5,0\n", None),
    (HEADER + b"\n0,0,0,0.5\n \n", "line 3 is not a cell row"),
    (b"\n" + HEADER + b"\n0,0,0,0.5\n", "line 2 is not a cell row"),  # a blank header
    (HEADER + b"\n0,0,0,0.5\x00\n", ""),  # a csv.Error before Python 3.11, a bad value since
], ids=["bom", "header-only", "empty", "crlf", "cr-only", "quoted-newline",
        "repeated-name-short-row", "repeated-name-long-row", "whitespace-line",
        "blank-first-line", "nul"])
def test_q_csv_edge_file_equals_row_reference(tmp_path, data, expected):
    path = tmp_path / "q.csv"
    path.write_bytes(data)
    outcome = _outcome(load_q_table_csv, path, 1, 2, (0, 1))
    assert outcome == _outcome(reference_load_q_table_csv, path, 1, 2, (0, 1))
    if expected is None:  # a table, not an error
        assert isinstance(outcome[0], bytes)
    else:
        assert outcome[0] is ConfigurationError and expected in outcome[1]


@pytest.mark.parametrize("load", [load_q_table_csv, reference_load_q_table_csv])
@pytest.mark.parametrize("data, message", [
    (HEADER + b"\n\n0,0,0,0.5\n\n0,0,1,oops\n", "line 5 is not a cell row"),
    (HEADER + b'\n0,0,0,"0.5\n"\n0,0,1,0.25\n0,0,0,0.5\n',
     "line 5 repeats table entry (x=0, k=0, u=0)"),
], ids=["blank-lines", "two-line-field"])
def test_q_csv_error_names_the_file_line(tmp_path, load, data, message):
    # the line a bad row ends on, counting blank lines and every line of a
    # quoted field, not the rows read before it
    path = tmp_path / "q.csv"
    path.write_bytes(data)
    with pytest.raises(ConfigurationError) as err:
        load(path, 1, 2, (0, 1))
    assert str(err.value) == f"{path}: {message}"


def test_writer_layout_loads_without_the_row_loop(tmp_path, driving, uniform5):
    """``export_q_csv``'s own file loads in one array parse, without a
    ``csv.reader``, to the table the row reference reads and the DP wrote."""
    q = q_dp(driving.model, uniform5)
    path = tmp_path / "oracle_q.csv"
    args = (path, driving.model.horizon, driving.model.n_states, driving.model.action_values)
    export_q_csv(q, driving.model.action_values, path)
    expected = _outcome(reference_load_q_table_csv, *args)
    with mock.patch.object(frontdoor.csv, "reader", wraps=frontdoor.csv.reader) as reader:
        assert _outcome(load_q_table_csv, *args) == expected
    assert reader.call_count == 0
    assert expected == (q.values.tobytes(), q.available.tobytes())
