"""CLI output rendering. CSV and JSON tables share one assembler, which
sorts nothing: it writes a plain column's cells one per row and a
``cli.Coded`` column's values once each, as bytes, gathers the texts by row
in numpy and never lets a NaN or an infinity into a cell of either format.
A table column is a numpy array, a ``cli.Coded`` array or a sequence of
Python scalars, and a report holds bools, ints, floats, strings, None, lists
and dicts; any other cell, a numpy scalar or array among them, is a
TypeError. The old per-cell renderers live in ``oracles`` and must give the
same bytes."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kerrsqueeze import ModelError, cli

from oracles import csv_table, py_tree, repr_cells


# signed zeros, subnormals, the extremes and a few everyday values, as bit patterns
SPECIAL64 = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                      1.7976931348623157e308, -1.7976931348623157e308, 1.0, 0.1]
                     ).view(np.int64).tolist()
SPECIAL32 = np.array([0.0, -0.0, 1e-45, -1e-45, 1.1754943508222875e-38,
                      3.4028234663852886e38, 1.0, 0.1], dtype=np.float32).view(np.int32).tolist()


def _column(pool, picks, dtype):
    """Column of ``picks`` indices into the finite values of ``pool``, so
    values repeat; the bit patterns in ``pool`` are of ``dtype``'s width."""
    ints = np.int64 if dtype == np.float64 else np.int32
    values = np.array(pool, dtype=ints).view(dtype)
    values = values[np.isfinite(values)]
    if values.size == 0:
        return values
    return values[np.array(picks, dtype=np.intp) % values.size]


_picks = st.lists(st.integers(min_value=0, max_value=10**6), max_size=200)


@settings(max_examples=300, deadline=None)
@given(pool=st.lists(st.one_of(st.integers(min_value=-2**63, max_value=2**63 - 1),
                               st.sampled_from(SPECIAL64)), min_size=1, max_size=20),
       picks=_picks)
def test_float64_cells_match_repr_per_cell(pool, picks):
    column = _column(pool, picks, np.float64)
    rendered = cli.render_csv(["x", "y"], [column, column[::-1]])
    lines = ["x,y", *map(",".join, zip(repr_cells(column), repr_cells(column[::-1])))]
    assert rendered == ("\n".join(lines) + "\n").encode()


@settings(max_examples=200, deadline=None)
@given(pool=st.lists(st.one_of(st.integers(min_value=-2**31, max_value=2**31 - 1),
                               st.sampled_from(SPECIAL32)), min_size=1, max_size=20),
       picks=_picks)
def test_float32_cells_match_repr_per_cell(pool, picks):
    # tolist() widens float32 to the same double the cast gives
    column = _column(pool, picks, np.float32)
    assert cli.render_csv(["x"], [column]) == _csv_lines("x", *repr_cells(column))


def _edge_values():
    """Every power of two and of ten a double holds, the extremes and the
    limits of the positional layout, each with its neighbours one ulp away,
    then 1 .. 10^4; both signs."""
    centres = [math.ldexp(1.0, k) for k in range(-1074, 1024)]
    centres += [float(f"1e{k}") for k in range(-323, 309)]
    centres += [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                1e16, 9999999999999998.0, 1e-4, 1e-5]
    values = [v for c in centres for v in (math.nextafter(c, -math.inf), c,
                                            math.nextafter(c, math.inf))]
    values += [float(i) for i in range(1, 10**4 + 1)]
    column = np.array(values)
    column = column[np.isfinite(column)]
    return np.concatenate([column, -column])


def _texts(rows):
    """The text of each row of the float kernel: its bytes within the NULs."""
    assert rows.dtype == np.uint8 and rows.shape[1:] == (32,)
    return [row.tobytes().strip(b"\0").decode("ascii") for row in rows]


def _csv_lines(*lines):
    return "".join(line + "\n" for line in lines).encode()


def test_float_kernel_matches_repr_on_the_edges():
    from kerrsqueeze._floatrepr import repr_rows

    column = _edge_values()
    # 2098 powers of two, 632 of ten, 8 more, with neighbours (but the inf past
    # DBL_MAX) and 10^4 integers, in both signs
    assert column.size == 2 * (3 * (2098 + 632 + 8) - 1 + 10**4)
    assert _texts(repr_rows(column)) == repr_cells(column)
    # the layout switches: positional from 1e-4 up to below 1e16
    assert _texts(repr_rows(np.array([1e16, 9999999999999998.0, 1e-4, 1e-5, -0.0, 5e-324]))) == [
        "1e+16", "9999999999999998.0", "0.0001", "1e-05", "-0.0", "5e-324"]


def test_float_kernel_matches_repr_on_random_bit_patterns():
    from kerrsqueeze._floatrepr import repr_rows

    bits = np.random.default_rng(17).integers(0, 2**64, size=200_000, dtype=np.uint64)
    column = bits.view(np.float64)
    column = column[np.isfinite(column)]
    assert _texts(repr_rows(column)) == repr_cells(column)
    assert repr_rows(np.array([], dtype=np.float64)).shape == (0, 32)


def test_signed_zeros_keep_their_own_cells():
    column = np.array([0.0, -0.0, 0.0, -0.0, 1.5, 1.5])
    assert cli.render_csv(["x"], [column]) == _csv_lines("x", "0.0", "-0.0", "0.0", "-0.0",
                                                         "1.5", "1.5")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_float_array_cell_names_column_and_row(bad):
    columns = [np.array([1.0, 2.0, 3.0]), np.array([0.5, bad, bad])]
    for render in (lambda: cli.render_csv(["a", "b"], columns),
                   lambda: cli._render((["a", "b"], columns, ()), "json")):
        with pytest.raises(ModelError) as err:
            render()
        assert str(err.value) == f"output column 'b' row 2: {bad!r} is not finite"
    with pytest.raises(ModelError, match="output column 'c' row 1"):
        cli.render_csv(["c"], [np.array([bad], dtype=np.float32)])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_generic_cell_names_column_and_row(bad):
    # tuple columns (the locking table) go through _fmt
    columns = [(1e-3, 2e-3, 3e-3), ("x", np.float64(1.0), bad)]
    for out_format in ("csv", "json"):
        with pytest.raises(ModelError) as err:
            cli._render((["p", "v"], columns, ()), out_format)
        assert str(err.value) == f"output column 'v' row 3: {bad!r} is not finite"
    # so does the key,value CSV of a report
    with pytest.raises(ModelError, match=r"output column 'value' row 2: "):
        cli._render({"a": 1.0, "b": {"c": bad}}, "csv")


@pytest.mark.parametrize("names,columns,message", [
    (["a", "b"], [[1.0, 2.0], [1.0]], "table column 'b' has 1 rows, column 'a' has 2"),
    (["a", "b"], [np.array([1.0]), cli.Coded(np.array([1.0]), np.zeros(3, np.intp))],
     "table column 'b' has 3 rows, column 'a' has 1"),
    (["a"], [], "table has 1 column names ['a'] and 0 columns"),
    ([], [[1.0]], "table has 0 column names [] and 1 columns"),
])
def test_ragged_table_is_refused(names, columns, message):
    # zip and the shortest column would drop rows or columns without a word;
    # ModelError is a ValueError
    for render in (lambda: cli.render_csv(names, columns),
                   lambda: cli.render_json((names, columns, ()))):
        with pytest.raises(ModelError) as err:
            render()
        assert str(err.value) == message


def _assert_same_bytes(got: bytes, want: bytes) -> None:
    """got == want, reported as the first line that differs: pytest's diff of
    two strings of megabytes runs for minutes before it reports anything."""
    got_lines, want_lines = got.split(b"\n"), want.split(b"\n")
    i = next((i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b), None)
    assert i is None, f"line {i} differs: {got_lines[i]!r} != {want_lines[i]!r}"
    assert len(got_lines) == len(want_lines), (len(got_lines), len(want_lines))


def test_sweep_table_renders_the_per_cell_bytes(tmp_path):
    # the benchmark's hysteresis sweep, at a tenth of its grid
    config = {"resonator": {"kappa_rad_s": 500e6, "gamma_rad_s": 50e6, "g_opt_rad_s": 1.5,
                            "g_th_rad_s": 100.0, "lambda_m": 1.55e-6, "radius_m": 22.5e-6,
                            "n_eff": 2.05},
              "pump": {"p_in_w": [0.002, 0.004], "direction": ["down", "up"]},
              "grid": {"delta_p_rad_s": {"start": -30e9, "stop": 5e9, "points": 3000}}}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    names, coded, meta = cli.cmd_sweep(cli.load_config(str(path)))
    columns = [c.values[c.codes] if isinstance(c, cli.Coded) else c for c in coded]
    # CSV: repr of every float cell in turn
    lines = [",".join(names)]
    for row in zip(*(repr_cells(c) if c.dtype.kind == "f" else list(map(cli._fmt, c.tolist()))
                     for c in columns)):
        lines.append(",".join(row))
    for idx, line in reversed(sorted(meta, key=lambda m: m[0])):
        lines.insert(idx + 1, f"# {line}")
    _assert_same_bytes(cli._render((names, coded, meta), None), ("\n".join(lines) + "\n").encode())
    # JSON: the per-element recursion
    rows = list(zip(*map(py_tree, columns)))
    old = json.dumps(py_tree({"columns": names, "rows": rows}), allow_nan=False, indent=2) + "\n"
    _assert_same_bytes(cli._render((names, coded, meta), "json"), old.encode())


@pytest.mark.parametrize("value", [np.bool_(True), np.int64(3), np.float32(0.5)],
                         ids=["bool_", "int64", "float32"])
def test_numpy_scalar_cells_are_type_errors(value):
    # a float64 is a float, so it is a cell; no other numpy scalar is
    for render in (lambda: cli._render((["p", "v"], [(1.0, 2.0), (0.5, value)], ()), "csv"),
                   lambda: cli._render((["v"], [(value,)], ()), "json"),
                   lambda: cli._render({"a": {"b": value}}, "csv"),
                   lambda: cli._render({"a": {"b": value}}, None)):
        with pytest.raises(TypeError, match=type(value).__name__):
            render()


def test_arrays_and_other_objects_in_a_report_are_type_errors():
    for value in (np.array([0.5, 1.5]), np.array([True]), object()):
        for out_format in ("csv", "json"):
            with pytest.raises(TypeError, match=type(value).__name__):
                cli._render({"a": value}, out_format)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_finite32 = st.floats(allow_nan=False, allow_infinity=False, width=32)
# quotes, backslashes, control and non-ASCII characters all need JSON escapes
_text = st.text(max_size=6)
# what a tuple column of the locking table may hold
_scalar = st.one_of(_finite, _finite.map(np.float64), st.sampled_from([0.0, -0.0]),
                    st.booleans(), st.integers(-2**70, 2**70), _text, st.none())
_array_elements = {"f8": st.one_of(_finite, st.sampled_from([0.0, -0.0])), "f4": _finite32,
                   "b": st.booleans(), "U": _text}


@st.composite
def _tables(draw, nul=True):
    """(names, columns, meta): up to 4 columns of one kind each, 0 to 5 rows,
    and '#' lines at ascending indices from 0 to the row count, with repeats;
    ``nul=False`` draws no NUL into a string cell, which a CSV cell cannot hold.
    Half the tables hold only tuples and lists, which the writer joins without
    numpy; the others may hold arrays too, which it assembles in blocks."""
    rows = draw(st.integers(min_value=0, max_value=5))
    plain = draw(st.booleans())
    names, columns = [], []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        names.append(draw(_text))
        kind = draw(st.sampled_from(["tuple", "list", *([] if plain else _array_elements)]))
        element = _array_elements.get(kind, _scalar)
        if not nul:
            element = element.filter(lambda v: not (isinstance(v, str) and "\0" in v))
        cells = draw(st.lists(element, min_size=rows, max_size=rows))
        columns.append(tuple(cells) if kind == "tuple" else cells if kind == "list"
                       else np.array(cells, dtype=kind))
    end = rows if columns else 0  # a table without columns has no rows
    at = sorted(draw(st.lists(st.integers(min_value=0, max_value=end), max_size=4)))
    return names, columns, [(i, draw(_text)) for i in at]


@settings(max_examples=300, deadline=None)
@given(table=_tables())
def test_json_table_matches_json_dumps_of_the_old_tree(table):
    names, columns, meta = table
    rows = list(zip(*map(py_tree, columns)))
    old = json.dumps(py_tree({"columns": names, "rows": rows}), indent=2, allow_nan=False)
    # a JSON table carries no '#' lines
    assert cli._render((names, columns, meta), "json") == (old + "\n").encode()


@settings(max_examples=300, deadline=None)
@given(table=_tables(nul=False))
def test_csv_table_matches_the_per_cell_writer(table):
    assert cli._render(table, "csv") == cli._render(table, None) == csv_table(*table)


def test_csv_string_cells_keep_every_byte():
    texts = ["é", "日本", ",", '"', 'x,"y"', "", "\r\n"]
    columns = [np.array(texts), tuple(texts), np.array([0.5] * len(texts))]
    assert cli.render_csv(["u", "t", "f"], columns) == csv_table(["u", "t", "f"], columns)
    # numpy drops a string's trailing NULs, so this cell is empty
    assert cli.render_csv(["u"], [np.array(["\x00"])]) == b"u\n\n"
    # NUL pads the texts, so a CSV string cell that holds one is an error; JSON
    # writes it as \u0000
    for column in [("\x00",), ("a\x00b",), ("\x00,",), ("é,\x00",), ("\x00\x00",),
                   np.array(["a\x00b"]), np.array(["\x00,"])]:
        with pytest.raises(ModelError, match="table column 't' holds a NUL character"):
            cli.render_csv(["t"], [column])
    assert cli._render((["t"], [("\x00",)], ()), "json") == (
        b'{\n  "columns": [\n    "t"\n  ],\n  "rows": [\n    [\n      "\\u0000"\n    ]\n  ]\n}\n')


def test_nul_cells_and_unordered_comment_lines_are_refused():
    # NUL is the only pad byte, so a CSV string cell that holds one raises in
    # an array column and in a tuple column alike; JSON escapes it and renders
    names = ["f", "t"]
    for column in (np.array(["a", "b\x00c"]), ("a", "b\x00c")):
        columns = [np.array([0.5, 1.5]), column]
        with pytest.raises(ModelError) as err:
            cli.render_csv(names, columns)
        assert str(err.value) == "table column 't' holds a NUL character"
        assert json.loads(cli._render((names, columns, ()), "json"))["rows"] == [
            [0.5, "a"], [1.5, "b\x00c"]]
    # a report's key,value CSV is such a table too; its JSON escapes the NUL
    with pytest.raises(ModelError, match="table column 'value' holds a NUL character"):
        cli._render({"a": {"b": "x\x00y"}}, "csv")
    assert json.loads(cli._render({"a": {"b": "x\x00y"}}, None)) == {"a": {"b": "x\x00y"}}
    # '#' lines go before rows 0 .. n in ascending order, and nowhere else, in
    # a table with an array column and in one of tuples alike
    for columns in ([np.array([0.5, 1.5]), ("a", "b")], [(0.5, 1.5), ("a", "b")]):
        assert cli.render_csv(names, columns, [(0, "x"), (2, "y"), (2, "z")]) == _csv_lines(
            "f,t", "# x", "0.5,a", "1.5,b", "# y", "# z")
        for meta, message in [
                ([(-1, "x")], "'#' line 'x' at row -1: need a row in [0, 2]"),
                ([(3, "x")], "'#' line 'x' at row 3: need a row in [0, 2]"),
                ([(1, "x"), (0, "y")], "'#' line 'y' at row 0: need a row in [1, 2]")]:
            with pytest.raises(ModelError) as err:
                cli.render_csv(names, columns, meta)
            assert str(err.value) == message


def _outcome(render):
    """The bytes a render gives, or the message of the ModelError it raises."""
    try:
        return render()
    except ModelError as e:
        return str(e)


# the special bit patterns, NaN and both infinities
_CODED64 = SPECIAL64 + np.array([math.nan, math.inf, -math.inf]).view(np.int64).tolist()


@settings(max_examples=300, deadline=None)
@given(pool=st.lists(st.one_of(st.integers(min_value=-2**63, max_value=2**63 - 1),
                               st.sampled_from(_CODED64)), min_size=1, max_size=12),
       codes=st.lists(st.integers(min_value=0, max_value=10**6), max_size=40),
       words=st.lists(_text, min_size=1, max_size=4))
@example(pool=[np.array(math.nan).view(np.int64).item(), 0], codes=[1, 1], words=["up"])
# a CSV string value that holds NUL, which no row shows or which a row shows
@example(pool=[0], codes=[0], words=["up", "\x00a"])
@example(pool=[0], codes=[0], words=["\x00a"])
def test_coded_columns_render_as_the_arrays_of_their_rows(pool, codes, words):
    # values may repeat, hold both zeros and subnormals, or go unused, and the
    # codes come in any order; a NaN or an infinity, or a NUL in a CSV string,
    # is an error only where a row shows it
    values = np.array(pool, dtype=np.int64).view(np.float64)
    codes = np.array(codes, dtype=np.intp) % values.size
    texts = np.array(words)
    word_codes = codes[::-1] % texts.size
    coded = [cli.Coded(values, codes), cli.Coded(texts, word_codes)]
    plain = [values[codes], texts[word_codes]]
    for out_format in ("csv", "json"):
        assert (_outcome(lambda: cli._render((["x", "w"], coded, ()), out_format))
                == _outcome(lambda: cli._render((["x", "w"], plain, ()), out_format)))
