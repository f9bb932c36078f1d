"""CLI output rendering. CSV and JSON tables share one cell writer, ``_cells``:
it formats each distinct float once, quotes JSON strings once per distinct
value, and never lets a NaN or an infinity into a cell of either format.
Reports go through one JSON encoder, whose ``default`` hook converts numpy
arrays and scalars with ``tolist()``. The old per-cell renderers live in
``oracles`` and must give the same bytes."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kerrsqueeze import ModelError, cli

from oracles import py_tree, repr_cells


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
    assert cli._cells("x", column) == repr_cells(column)
    rendered = cli.render_csv(["x", "y"], [column, column[::-1]])
    lines = ["x,y", *map(",".join, zip(repr_cells(column), repr_cells(column[::-1])))]
    assert rendered == "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(pool=st.lists(st.one_of(st.integers(min_value=-2**31, max_value=2**31 - 1),
                               st.sampled_from(SPECIAL32)), min_size=1, max_size=20),
       picks=_picks)
def test_float32_cells_match_repr_per_cell(pool, picks):
    # tolist() widens float32 to the same double the cast gives
    column = _column(pool, picks, np.float32)
    assert cli._cells("x", column) == repr_cells(column)


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


def test_float_kernel_matches_repr_on_the_edges():
    from kerrsqueeze._floatrepr import reprs

    column = _edge_values()
    # 2098 powers of two, 632 of ten, 8 more, with neighbours (but the inf past
    # DBL_MAX) and 10^4 integers, in both signs
    assert column.size == 2 * (3 * (2098 + 632 + 8) - 1 + 10**4)
    assert reprs(column) == repr_cells(column)
    # the layout switches: positional from 1e-4 up to below 1e16
    assert reprs(np.array([1e16, 9999999999999998.0, 1e-4, 1e-5, -0.0, 5e-324])) == [
        "1e+16", "9999999999999998.0", "0.0001", "1e-05", "-0.0", "5e-324"]


def test_float_kernel_matches_repr_on_random_bit_patterns():
    from kerrsqueeze._floatrepr import reprs

    bits = np.random.default_rng(17).integers(0, 2**64, size=200_000, dtype=np.uint64)
    column = bits.view(np.float64)
    column = column[np.isfinite(column)]
    assert reprs(column) == repr_cells(column)
    assert reprs(np.array([], dtype=np.float64)) == []


def test_signed_zeros_keep_their_own_cells():
    column = np.array([0.0, -0.0, 0.0, -0.0, 1.5, 1.5])
    assert cli._cells("x", column) == ["0.0", "-0.0", "0.0", "-0.0", "1.5", "1.5"]


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
    # tuple columns (the spectrum and locking tables) go through _fmt
    columns = [(1e-3, 2e-3, 3e-3), ("x", np.float64(1.0), bad)]
    for out_format in ("csv", "json"):
        with pytest.raises(ModelError) as err:
            cli._render((["p", "v"], columns, ()), out_format)
        assert str(err.value) == f"output column 'v' row 3: {bad!r} is not finite"
    # so does the key,value CSV of a report
    with pytest.raises(ModelError, match=r"output column 'value' row 2: "):
        cli._render({"a": 1.0, "b": {"c": bad}}, "csv")


def _assert_same_text(got: str, want: str) -> None:
    """got == want, reported as the first line that differs: pytest's diff of
    two strings of megabytes runs for minutes before it reports anything."""
    got_lines, want_lines = got.split("\n"), want.split("\n")
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
    names, columns, meta = cli.cmd_sweep(cli.load_config(str(path)))
    # CSV: repr of every float cell in turn
    lines = [",".join(names)]
    for row in zip(*(repr_cells(c) if c.dtype.kind == "f" else list(map(cli._fmt, c.tolist()))
                     for c in columns)):
        lines.append(",".join(row))
    for idx, line in reversed(sorted(meta, key=lambda m: m[0])):
        lines.insert(idx + 1, f"# {line}")
    _assert_same_text(cli._render((names, columns, meta), None), "\n".join(lines) + "\n")
    # JSON: the per-element recursion
    rows = list(zip(*map(py_tree, columns)))
    old = json.dumps(py_tree({"columns": names, "rows": rows}), allow_nan=False, indent=2) + "\n"
    _assert_same_text(cli._render((names, columns, meta), "json"), old)


def test_json_encodes_numpy_arrays_and_scalars_with_tolist():
    arrays = [np.array([0.1, -0.0]), np.array([True, False]), np.array(["up", "down"]),
              np.array([3, 4], dtype=np.int32), np.array([1.5], dtype=np.float32)]
    for a in arrays:
        assert cli._dumps(a) == json.dumps(py_tree(a))
        assert cli._dumps(a[0]) == json.dumps(a.tolist()[0])  # a numpy scalar
        assert cli.render_json({"a": a}) == json.dumps(py_tree({"a": a}), indent=2) + "\n"
    mixed = np.array([np.float64(0.5), np.int64(2), "x"], dtype=object)
    assert cli._dumps(mixed) == json.dumps(py_tree(mixed)) == '[0.5, 2, "x"]'
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._dumps({"a": object()})


def test_report_holding_a_numpy_bool_renders_in_both_formats():
    # the old element-wise conversion left np.bool_ as it was, so JSON raised TypeError
    report = {"ok": np.bool_(True), "flags": np.array([False, True]), "n": np.int64(3)}
    assert cli._render(report, None) == (
        '{\n  "ok": true,\n  "flags": [\n    false,\n    true\n  ],\n  "n": 3\n}\n')
    assert cli._render(report, "csv") == 'key,value\nok,true\nflags,"[false, true]"\nn,3\n'


_finite = st.floats(allow_nan=False, allow_infinity=False)
_finite32 = st.floats(allow_nan=False, allow_infinity=False, width=32)
# quotes, backslashes, control and non-ASCII characters all need JSON escapes
_text = st.text(max_size=6)
# what a tuple column of the spectrum or locking tables may hold
_scalar = st.one_of(_finite, _finite.map(np.float64), _finite32.map(np.float32),
                    st.sampled_from([0.0, -0.0]), st.booleans(), st.integers(-2**70, 2**70),
                    st.integers(-2**63, 2**63 - 1).map(np.int64), _text, st.none())
_array_elements = {"f8": st.one_of(_finite, st.sampled_from([0.0, -0.0])), "f4": _finite32,
                   "b": st.booleans(), "U": _text}


@st.composite
def _tables(draw):
    rows = draw(st.integers(min_value=0, max_value=5))
    names, columns = [], []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        names.append(draw(_text))
        kind = draw(st.sampled_from(["tuple", *_array_elements]))
        element = _scalar if kind == "tuple" else _array_elements[kind]
        cells = draw(st.lists(element, min_size=rows, max_size=rows))
        columns.append(tuple(cells) if kind == "tuple" else np.array(cells, dtype=kind))
    return names, columns


@settings(max_examples=300, deadline=None)
@given(table=_tables())
def test_json_table_matches_json_dumps_of_the_old_tree(table):
    names, columns = table
    rows = list(zip(*map(py_tree, columns)))
    old = json.dumps(py_tree({"columns": names, "rows": rows}), indent=2, allow_nan=False)
    assert cli._render((names, columns, ()), "json") == old + "\n"
