"""The columnar artifact writer against the row-by-row writer it replaced.

``row_emit`` is that writer, kept as the oracle: every row through
``csv.writer``, every float through ``repr(float(v))``, and JSON through
``json.dumps(indent=2)``.  ``cli.emit`` must write the same bytes.
"""

import contextlib
import csv
import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinfridge.cli as cli
from spinfridge import (
    FridgeConfig, carnot_limit, cop, exchange_sweep, run_cycles, scan_phase_diagram,
)
from spinfridge.cli import emit, main

META = {"command": "test", "delta_scale": 2.5, "config": {"theta": [0.5, math.inf], "n": 3}}


def _json_value(value):
    if isinstance(value, float):
        value = float(value)
        if not math.isfinite(value):
            return repr(value)  # 'inf', '-inf', 'nan'
        return value
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    if isinstance(value, (int, str)) or value is None:
        return value
    return str(value)


def row_emit(rows: list[dict], fmt: str, path, meta: dict) -> int:
    """The row-by-row writer: the oracle for cli.emit."""
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        if rows:
            writer.writerow(list(rows[0].keys()))
            for row in rows:
                writer.writerow(
                    [repr(float(v)) if isinstance(v, float) else str(v) for v in row.values()]
                )
        payload = buffer.getvalue()
    else:
        document = {
            "meta": {k: _json_value(v) for k, v in meta.items()},
            "data": [{k: _json_value(v) for k, v in row.items()} for row in rows],
        }
        payload = json.dumps(document, indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(payload)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(payload)
    return 0


def expanded(column):
    """The column's values in row order: a factored (values, index) column laid out."""
    if isinstance(column, tuple):
        values, index = column
        return values[index].tolist()
    return column.tolist() if isinstance(column, np.ndarray) else list(column)


def as_rows(columns: dict) -> list[dict]:
    return [dict(zip(columns, row)) for row in zip(*map(expanded, columns.values()))]


def written(writer, data, fmt: str, meta=META) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        writer(data, fmt, None, meta)
    return out.getvalue()


SPECIAL_FLOATS = (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
                  2.2250738585072014e-308 / 3, 1e16, 1e-5, 0.1, 123456789.0)
floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
int64s = st.integers(-2**63, 2**63 - 1)
# each text needs CSV quoting, JSON escaping, both or neither
texts = st.text(alphabet=st.sampled_from(list('ab ,"\n\r%\\é€ ')), max_size=6)


# row counts from none to 200, and the columns of 24 to 44 rows, where the
# table rule's cut (more than cli.TABLE_REPEATS + rows // 12 repeats) is
# nearly all the rows
row_counts = st.one_of(st.integers(0, 10), st.integers(cli.TABLE_REPEATS, cli.TABLE_REPEATS + 20),
                       st.integers(0, 200))


@st.composite
def columns(draw):
    n_rows = draw(row_counts)
    names = draw(st.lists(st.one_of(texts, st.sampled_from(["T2", "dQ1", "n"])),
                          min_size=1, max_size=4, unique=True))
    table = {}
    for name in names:
        # what emit takes: a float64 or int64 array, a factored column of one
        # (values, index), or a list of strings
        kind = draw(st.sampled_from([floats, st.integers(-5, 5), int64s, texts]))
        pool = draw(st.lists(kind, min_size=1, max_size=12))
        if kind is not texts and draw(st.booleans()):
            index = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n_rows, max_size=n_rows))
            column = (np.array(pool, dtype=np.float64 if kind is floats else np.int64),
                      np.array(index, dtype=np.intp))
        else:
            column = draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows))
            if kind is floats:
                column = np.array(column, dtype=np.float64)
            elif kind is not texts:
                column = np.array(column, dtype=np.int64)
        table[name] = column
    return table


# what a meta holds: nested dicts, lists and tuples, empty ones included, of
# strings that need JSON escapes or are not ASCII, floats, ints, None and
# bools, and numpy scalars, which JSON writes as a number or as the string of
# their str()
meta_leaves = st.one_of(st.none(), st.booleans(), st.integers(), int64s.map(np.int64), floats,
                        floats.map(np.float64), texts, st.text(max_size=4))
metas = st.dictionaries(
    st.one_of(texts, st.text(max_size=4)),
    st.recursive(meta_leaves, lambda items: st.one_of(
        st.lists(items, max_size=3), st.lists(items, max_size=3).map(tuple),
        st.dictionaries(st.one_of(texts, st.text(max_size=4)), items, max_size=3)),
        max_leaves=12),
    max_size=4)


@settings(max_examples=400, deadline=None)
@given(columns(), st.sampled_from(["csv", "json"]), st.one_of(st.just(META), metas))
def test_emit_writes_the_bytes_of_the_row_writer(table, fmt, meta):
    assert written(emit, table, fmt, meta) == written(row_emit, as_rows(table), fmt, meta)


def distinct_key(value):
    """The value as np.unique tells numbers apart: every nan alike, -0.0 as 0.0."""
    return "nan" if math.isnan(value) else value


def twin(value):
    """A value np.unique does not tell from value: the other zero or nan, else itself."""
    return -value if value == 0.0 or math.isnan(value) else value


@st.composite
def repeat_columns(draw):
    """A float64 or int64 array column with no repeat, exactly one repeat, or one
    value throughout (a zero or nan with either sign), by np.unique's count, of
    up to 200 rows."""
    kind = draw(st.sampled_from(["float", "int"]))
    if kind == "float":
        values = st.one_of(floats, st.sampled_from(SPECIAL_FLOATS))
    else:
        values = st.one_of(int64s, st.sampled_from([-2**63, 2**63 - 1, 0, -1]))
    size = draw(row_counts.filter(lambda n: n >= 1))
    distinct = draw(st.lists(values, min_size=size, max_size=size, unique_by=distinct_key))
    shape = draw(st.sampled_from(["no repeat", "one repeat", "one value"]))
    if shape == "one repeat":
        index = draw(st.integers(0, len(distinct) - 1))
        repeat = twin(distinct[index]) if kind == "float" and draw(st.booleans()) else distinct[index]
        distinct.insert(draw(st.integers(0, len(distinct))), repeat)
    elif shape == "one value":
        count = draw(row_counts.filter(lambda n: n >= 2))
        distinct = [twin(distinct[0]) if kind == "float" and draw(st.booleans()) else distinct[0]
                    for _ in range(count)]
    return np.array(distinct, dtype=np.float64 if kind == "float" else np.int64)


@settings(max_examples=400, deadline=None)
@given(repeat_columns(), st.sampled_from(["csv", "json"]))
def test_emit_writes_columns_with_and_without_repeats_as_the_row_writer(column, fmt):
    table = {"x": column, "n": np.arange(len(column))}
    assert written(emit, table, fmt) == written(row_emit, as_rows(table), fmt)


SPECIAL_COLUMN = [-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324]


def assert_special_texts(column, fmt):
    table = {"column": column}
    text = written(emit, table, fmt)
    assert text == written(row_emit, as_rows(table), fmt)
    for marker in ("-0.0", "5e-324", '"nan"' if fmt == "json" else "nan",
                   '"-inf"' if fmt == "json" else "-inf"):
        assert marker in text


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_nearly_all_distinct_column_keeps_zero_signs_and_nonfinite_texts(fmt):
    assert_special_texts(np.array(SPECIAL_COLUMN + [1.0 + k / 7.0 for k in range(20)]
                                  + SPECIAL_COLUMN), fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_mostly_repeated_column_keeps_zero_signs_and_nonfinite_texts(fmt):
    assert_special_texts(np.array((SPECIAL_COLUMN + [1.5]) * 5), fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_factored_column_keeps_zero_signs_and_nonfinite_texts(fmt):
    # both zeros and both nans are values of their own, each repeated out of order
    index = np.array([6, 0, 1, 1, 0, 2, 3, 4, 5, 2, 0, 3, 7, 7])
    assert_special_texts((np.array(SPECIAL_COLUMN + [1.5]), index), fmt)


def column_at_the_cut(rows: int, extra: int, apart: bool = False) -> np.ndarray:
    """A float column of rows values with cli.TABLE_REPEATS + rows // 12 + extra
    repeats: -0.0 repeats 0.0, the others repeat random distinct values, and a
    nan repeats nothing.  Each copy of a value follows the one before it, so
    the repeats are equal neighbours in row order; apart, the k-th copy of each
    value is in the k-th pass over the values, so few of them are."""
    repeats = cli.TABLE_REPEATS + rows // 12 + extra
    rng = np.random.default_rng(rows)
    distinct = np.concatenate([[0.0, math.nan], rng.uniform(-3.0, 3.0, rows - repeats - 2)])
    copies = 1 + np.bincount(rng.integers(2, len(distinct), repeats - 1), minlength=len(distinct))
    copies[0] = 2
    order = rng.permutation(len(distinct))
    column = np.repeat(distinct[order], copies[order])
    column[np.flatnonzero(column == 0.0)[1]] = -0.0
    if apart:
        rank = np.arange(rows) - np.repeat(np.cumsum(copies[order]) - copies[order], copies[order])
        column = column[np.argsort(rank, kind="stable")]
    return column


def sorted_repeats(column: np.ndarray) -> int:
    ordered = np.sort(column)
    return int(np.count_nonzero(ordered[1:] == ordered[:-1]))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", [30, 40, 64, 121, 361, 1681])
def test_columns_on_each_side_of_the_table_cut_write_the_row_writer_bytes(rows, fmt):
    needed = cli.TABLE_REPEATS + rows // 12
    # one value throughout (rows - 1 repeats) pays only where the rows hold the cut
    column = np.zeros(rows)
    assert cli._table_pays(column) is (rows - 1 > needed)
    assert written(emit, {"x": column}, fmt) == written(row_emit, as_rows({"x": column}), fmt)
    # room for the cut's repeats beside a zero, a nan and a random value; the
    # repeats count only as equal neighbours in row order, so the same values
    # apart take no table
    sides = ((0, False), (1, True)) if needed + 4 <= rows else ()
    for extra, pays in sides:
        for apart in (False, True):
            column = column_at_the_cut(rows, extra, apart)
            assert sorted_repeats(column) == needed + extra
            assert cli._table_pays(column) is (pays and not apart)
            table = {"x": column, "n": np.arange(rows)}
            assert written(emit, table, fmt) == written(row_emit, as_rows(table), fmt)
    # too few rows to hold the cut's repeats, and repeated nans, which the count
    # does not see as repeats
    assert not cli._table_pays(np.zeros(cli.TABLE_REPEATS))
    assert not cli._table_pays(np.full(200, math.nan))
    assert cli._table_pays(np.zeros(cli.TABLE_REPEATS + 4))  # 33 repeats of 34 rows


def scaled_outcome(columns, scale):
    try:
        return [repr(value) for value in expanded(cli._scaled(columns, {"x"}, scale)["x"])]
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(floats, min_size=1, max_size=8), st.data(),
       st.sampled_from([2.5, 0.5, 1e300, 1e-300, 5e-324, 1.7976931348623157e308]))
def test_a_scaled_factored_column_names_the_value_of_its_first_row_out_of_range(values, data,
                                                                               scale):
    index = np.array(data.draw(st.lists(st.integers(0, len(values) - 1), min_size=1,
                                        max_size=30)), dtype=np.intp)
    values = np.array(values, dtype=np.float64)
    factored = scaled_outcome({"x": (values, index)}, scale)
    assert factored == scaled_outcome({"x": values[index]}, scale)


def test_emit_rejects_columns_of_unequal_length():
    with pytest.raises(ValueError, match="equal lengths"):
        emit({"a": np.array([1.0, 2.0]), "b": np.array([1.0])}, "csv", None, META)


# every command at small sizes, with and without a delta scale
COMMANDS = (
    ["exchange"],
    ["exchange", "--t1", "5", "--t2", "3", "--t3", "12", "--theta", "0.7"],
    ["ledger", "--theta=-2.4"],
    ["cycles", "--cycles", "12", "--theta", "0,0.7,3.141592653589793"],
    ["phase-diagram", "--grid", "1,5,3,9,7", "--theta", "0.4", "--t1", "3"],
    ["cop", "--grid", "1,12,2,10,17", "--t1", "3"],
    ["bcs", "--bits", "1000", "--rounds", "3", "--seed", "7"],
    ["verify-decomposition", "--theta", "0.1,0.2"],
)


@pytest.fixture
def spied_emit(monkeypatch):
    """cli.emit, recording the columns of each call."""
    calls = []

    def spy(columns, *args):
        calls.append(columns)
        return emit(columns, *args)

    monkeypatch.setattr(cli, "emit", spy)
    return calls


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("args", COMMANDS, ids=lambda args: args[0])
def test_every_command_writes_its_columns_as_the_row_writer_would(args, fmt, tmp_path, capsys,
                                                                  spied_emit):
    command = args[0]
    argv = args + ["--format", fmt]
    out = tmp_path / "artifact"
    main(argv + ["--out", str(out)])
    (columns,) = spied_emit
    rows = as_rows(columns)
    meta = cli._meta(cli.parse_config(argv))
    expected = tmp_path / "expected"
    row_emit(rows, fmt, str(expected), meta)
    assert out.read_bytes() == expected.read_bytes()
    # --out - writes the same bytes to stdout
    capsys.readouterr()
    main(argv + ["--out", "-"])
    assert capsys.readouterr().out.encode() == out.read_bytes()

    # the delta-scale columns are the unscaled ones times the scale, value by value
    scaled = cli._COMMANDS[command][1]
    if not scaled:
        return
    main(argv + ["--delta-scale", "2.5", "--out", str(out)])
    rows = [{k: v * 2.5 if k in scaled else v for k, v in row.items()} for row in rows]
    row_emit(rows, fmt, str(expected), cli._meta(cli.parse_config(argv + ["--delta-scale", "2.5"])))
    assert out.read_bytes() == expected.read_bytes()


def is_normal(value: float) -> bool:
    return sys.float_info.min <= abs(value) <= sys.float_info.max


@pytest.mark.parametrize("grid, scale", [
    ("1,1e10,1,2,5", 1e300),  # T2 overflows from its second value on
    ("1,2,1,1e10,5", 1e300),  # T3 overflows in each block of rows, T2 nowhere
    ("2,6,2,10,5", 5e-324),  # every temperature turns subnormal
])
def test_a_rejected_delta_scale_on_phase_diagram_names_its_first_row_out_of_range(grid, scale,
                                                                                 capsys):
    """The first column with a row that leaves the normal float range, and the
    value of its first such row, as the row-by-row check named them."""
    assert main(["phase-diagram", f"--grid={grid}", f"--delta-scale={scale!r}"]) == 1
    t2_min, t2_max, t3_min, t3_max, steps = (float(part) for part in grid.split(","))
    columns = scan_phase_diagram((t2_min, t2_max), (t3_min, t3_max), int(steps))
    name, value = next((name, value) for name, column in zip(("T2", "T3", "dQ1"), columns)
                       for value in column.tolist()
                       if is_normal(value) and not is_normal(value * scale))
    assert capsys.readouterr().err == (f"error: delta-scale {scale!r} takes {name} = {value!r} "
                                       "out of the normal float range\n")


def phase_diagram_rows(t2_range, t3_range, steps, base):
    """The rows the phase-diagram command wrote from scan_phase_diagram's cells."""
    columns = scan_phase_diagram(t2_range, t3_range, steps, base=base)
    return [dict(zip(("T2", "T3", "dQ1"), cell))
            for cell in zip(*(column.tolist() for column in columns))]


def cop_rows(t2_min, t2_max, steps, base):
    """The rows the cop command wrote, one exchange_sweep over the T2 axis."""
    t2s = [t2_min + (t2_max - t2_min) * index / (steps - 1) for index in range(steps)]
    rows = []
    for t2, flow in zip(t2s, exchange_sweep(base, t2s, base.T3).tolist()):
        limit = carnot_limit(base.T1, t2, base.T3) if base.T1 <= t2 < base.T3 else math.nan
        rows.append({"T2": t2, "cop": cop(base), "carnot_limit": limit,
                     "dQ1": base.E1 * flow, "dQ3": base.E3 * flow})
    return rows


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("grid", [(2.0, 6.0, 2.0, 10.0, 41), (1.0, 5.0, 3.0, 9.0, 7),
                                  (0.5, 20.0, 0.5, 20.0, 60)])
def test_sweeps_write_the_rows_of_the_per_cell_builders(grid, fmt, tmp_path):
    t2_min, t2_max, t3_min, t3_max, steps = grid
    base = FridgeConfig(T1=2.5, theta=1.1)
    argv = ["--grid=" + ",".join(map(repr, grid)), "--t1=2.5", "--theta=1.1", "--format", fmt]
    out, expected = tmp_path / "artifact", tmp_path / "expected"
    for command, rows in (
        ("phase-diagram", phase_diagram_rows((t2_min, t2_max), (t3_min, t3_max), steps, base)),
        ("cop", cop_rows(t2_min, t2_max, steps, base)),
    ):
        assert main([command, *argv, "--out", str(out)]) == 0
        row_emit(rows, fmt, str(expected), cli._meta(cli.parse_config([command, *argv])))
        assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cycles_writes_each_angle_in_a_block_of_rows_from_cycle_0(fmt, tmp_path):
    thetas, n_cycles = (0.3, -0.0, 1.1, 0.3), 7
    base = FridgeConfig(T1=2.5)
    columns = run_cycles(base, n_cycles, thetas)._asdict()
    del columns["n"]
    rows = [{"n": row % (n_cycles + 1), "theta": thetas[row // (n_cycles + 1)],
             **{name: column[row] for name, column in columns.items()}}
            for row in range(len(thetas) * (n_cycles + 1))]
    argv = ["cycles", f"--cycles={n_cycles}", "--t1=2.5",
            "--theta=" + ",".join(map(repr, thetas)), "--format", fmt]
    out, expected = tmp_path / "artifact", tmp_path / "expected"
    assert main([*argv, "--out", str(out)]) == 0
    row_emit(rows, fmt, str(expected), cli._meta(cli.parse_config(argv)))
    assert out.read_bytes() == expected.read_bytes()
