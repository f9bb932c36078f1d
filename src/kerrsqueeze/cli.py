"""Deterministic command-line front end: JSON configs in, CSV/JSON out.

Scalar values in configs carry explicit unit suffixes (kappa_rad_s, p_in_w,
lambda_m) so no unit inference ever happens. Identical configs and input
files produce byte-identical outputs: floats are written with Python's
shortest round-trip repr, row order is fixed by the config grids, and no
timestamps or environment state enter the files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple, Union)

from . import core
from .errors import ModelError, SchemaError

# numpy and the physics modules are imported inside the functions that use
# them, so a subcommand loads only what it runs: threshold, report and losses
# start without numpy. The modules are called through their attributes
# (steady_state.sweep, not sweep), where a tracer can replace them.
if TYPE_CHECKING:
    import numpy as np

    from . import characterize, detection, steady_state


# ---------------------------------------------------------------------------
# config parsing

@dataclass
class RunConfig:
    """Validated view of one JSON config file."""

    path: Path
    raw: Dict[str, Any]

    def section(self, name: str, required: bool = True) -> Dict[str, Any]:
        sec = self.raw.get(name)
        if sec is None:
            if required:
                raise SchemaError(f"config key '{name}': section missing")
            return {}
        if not isinstance(sec, dict):
            raise SchemaError(f"config key '{name}': expected an object")
        return sec

    def resolve(self, name: str, rel: Any) -> Path:
        if not isinstance(rel, str):
            raise SchemaError(f"config key '{name}': expected a file path string, got {rel!r}")
        # joined as written: an absolute rel replaces the config's directory
        return _regular_file(self.path.parent / rel, f"config key '{name}': file", rel)


def _regular_file(path: Path, what: str, shown: str) -> Path:
    """``path``, or a SchemaError that says whether it is missing or not a regular file."""
    if not path.is_file():
        raise SchemaError(f"{what} {'is not a regular file' if path.exists() else 'not found'}: "
                          f"{shown}")
    return path


def _read_text(path: Path, where: str) -> str:
    """A file's text, decoded as UTF-8 whatever the locale."""
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:
        raise SchemaError(f"{where}: not UTF-8: {e.reason} at byte {e.start}") from None


def _read_json(path: Path, where: str) -> Any:
    """Parsed JSON file; syntax errors, NaN/Infinity literals, a key repeated in
    one object, nesting deeper than the interpreter's recursion limit and
    integers longer than its int-string digit limit are SchemaErrors."""
    def reject(literal: str) -> Any:
        raise SchemaError(f"{where}: {literal} is not a finite number")

    def unique(pairs: List[Tuple[str, Any]]) -> Dict[str, Any]:
        obj: Dict[str, Any] = {}
        for key, value in pairs:
            if key in obj:
                raise SchemaError(f"{where}: duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        return json.loads(_read_text(path, where), parse_constant=reject, object_pairs_hook=unique)
    except json.JSONDecodeError as e:
        raise SchemaError(f"{where}: line {e.lineno}: {e.msg}") from e
    except RecursionError:
        raise SchemaError(f"{where}: nested too deeply") from None
    except ModelError:  # from _read_text, reject or unique
        raise
    except ValueError as e:  # an int longer than the int-string conversion limit
        raise SchemaError(f"{where}: {str(e).partition(';')[0]}") from None


def load_config(path: str) -> RunConfig:
    p = _regular_file(Path(path), "config file", path)
    raw = _read_json(p, f"config {path}")
    if not isinstance(raw, dict):
        raise SchemaError(f"config {path}: top level must be an object")
    return RunConfig(path=p, raw=raw)


def _number(value: Any, where: str) -> float:
    """A finite JSON number as a float; ``where`` names it in the error."""
    # the bound also rejects NaN, infinities and ints too large for a float
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise SchemaError(f"{where}: expected a finite number, got {value!r}")
    return float(value)


def _schema(where: str, make: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """make(*args, **kwargs), re-raising its ModelError as a SchemaError naming where."""
    try:
        return make(*args, **kwargs)
    except ModelError as e:
        raise SchemaError(f"{where}: {e}") from e


def _num(sec: Dict[str, Any], key: str, path: str, *, required: bool = True,
         default: Optional[float] = None) -> Optional[float]:
    if key not in sec:
        if required:
            raise SchemaError(f"config key '{path}.{key}': missing")
        return default
    return _number(sec[key], f"config key '{path}.{key}'")


def _flag(sec: Dict[str, Any], key: str, path: str) -> bool:
    """A JSON true or false; an absent key is false."""
    value = sec.get(key, False)
    if not isinstance(value, bool):
        raise SchemaError(f"config key '{path}.{key}': expected true or false, got {value!r}")
    return value


def _num_list(sec: Dict[str, Any], key: str, path: str) -> List[float]:
    v = sec.get(key)
    if v is None:
        raise SchemaError(f"config key '{path}.{key}': missing")
    items = v if isinstance(v, list) else [v]
    if not items:
        raise SchemaError(f"config key '{path}.{key}': must not be empty")
    return [_number(x, f"config key '{path}.{key}'") for x in items]


# most points a {"start", "stop", "points"} axis may ask np.linspace for
_MAX_GRID_POINTS = 10_000_000


def _grid(sec: Dict[str, Any], key: str, path: str) -> np.ndarray:
    import numpy as np

    from . import steady_state

    v = sec.get(key)
    if isinstance(v, dict):
        start = _num(v, "start", f"{path}.{key}")
        stop = _num(v, "stop", f"{path}.{key}")
        points = v.get("points")
        if (not isinstance(points, int) or isinstance(points, bool)
                or not 1 <= points <= _MAX_GRID_POINTS):
            raise SchemaError(f"config key '{path}.{key}.points': expected an integer "
                              f"from 1 to {_MAX_GRID_POINTS}, got {points!r}")
        # a span that overflows comes out non-finite, which the axis rule reports
        with np.errstate(over="ignore", invalid="ignore"):
            grid = np.linspace(start, stop, points)
    else:
        grid = np.array(_num_list(sec, key, path))
    return _schema(f"config key '{path}.{key}'", steady_state.check_axis, grid, "grid")


# optional 'resonator' config keys and the ResonatorParams fields they set
_RESONATOR_OPTIONAL = {"g_opt_rad_s": "g_opt", "g_th_rad_s": "g_th", "lambda_m": "lambda_r",
                       "omega_r_rad_s": "omega_r", "radius_m": "radius", "n_eff": "n_eff"}


def parse_resonator(cfg: RunConfig) -> core.ResonatorParams:
    sec = cfg.section("resonator")
    kwargs = {"kappa": _num(sec, "kappa_rad_s", "resonator"),
              "gamma": _num(sec, "gamma_rad_s", "resonator")}
    for key, field in _RESONATOR_OPTIONAL.items():
        if key in sec:
            kwargs[field] = _num(sec, key, "resonator")
    return _schema("config key 'resonator'", core.ResonatorParams, **kwargs)


def parse_pump(cfg: RunConfig,
               params: core.ResonatorParams) -> Tuple[List[float], float, List[str]]:
    """Pump powers, the resolved pump frequency and the sweep directions."""
    sec = cfg.section("pump")
    powers = _num_list(sec, "p_in_w", "pump")
    for p in powers:
        _schema("config key 'pump.p_in_w'", core.check_power, p)
    omega_p = _num(sec, "omega_p_rad_s", "pump", required=False)
    dirs = sec.get("direction", "down")
    dirs = dirs if isinstance(dirs, list) else [dirs]
    if not dirs:
        raise SchemaError("config key 'pump.direction': must not be empty")
    for d in dirs:
        _schema("config key 'pump.direction'", core.check_direction, d)
    return powers, _resolve_omega_p(params, omega_p), list(dirs)


def parse_detection(cfg: RunConfig) -> Tuple[List[float], Optional[detection.LossBudget]]:
    """Efficiency list for the run plus the loss budget, when one is given."""
    sec = cfg.section("detection", required=False)
    if not sec:
        return [1.0], None
    if "eta" in sec:
        etas = _num_list(sec, "eta", "detection")
        for e in etas:
            _schema("config key 'detection.eta'", core.check_eta, e)
        return etas, None
    budget = _parse_budget(cfg, sec, "detection", "'eta', 'budget_path' or 'entries'")
    return [budget.eta], budget


def _parse_budget(cfg: RunConfig, sec: Dict[str, Any], name: str,
                  need: str) -> detection.LossBudget:
    """Loss budget from a section's 'budget_path' file or inline 'entries'."""
    if "budget_path" in sec:
        return read_budget_json(cfg.resolve(f"{name}.budget_path", sec["budget_path"]))
    if "entries" in sec:
        return _budget_from_obj(sec["entries"], f"{name}.entries")
    raise SchemaError(f"config key '{name}': need {need}")


def _resolve_omega_p(params: core.ResonatorParams, omega_p: Optional[float]) -> float:
    if omega_p is not None:
        return omega_p
    try:
        return params.resonance_omega
    except ModelError as e:
        raise SchemaError(
            "config: pump.omega_p_rad_s missing and resonator has no "
            "lambda_m / omega_r_rad_s to fall back on"
        ) from e


def _quality_factor(params: core.ResonatorParams) -> Optional[float]:
    """Loaded Q, or None when the config fixes no resonance frequency."""
    try:
        return core.quality_factor(params)
    except ModelError:
        return None


# ---------------------------------------------------------------------------
# deterministic serialization

def _fmt(v: Any, quote: Callable[[str], str] = str) -> str:
    """A cell's text: a str ``quote``d, a bool, int, float or None as JSON writes it."""
    if isinstance(v, str):
        return quote(v)
    if v is not None and not isinstance(v, (int, float)):  # a bool is an int
        raise TypeError(f"Object of type {type(v).__name__} is not a table or report cell")
    if isinstance(v, float) and not math.isfinite(v):
        raise ModelError(f"output value {float(v)!r} is not finite")
    return json.dumps(v)


def _dumps(obj: Any, **kwargs: Any) -> str:
    """JSON text of ``obj``; a NaN or an infinity in it is a ModelError."""
    try:
        return json.dumps(obj, allow_nan=False, **kwargs)
    except ValueError as e:
        raise ModelError(f"output is not valid JSON: {e}") from e


def _not_finite(name: str, row: int, value: Any) -> ModelError:
    return ModelError(f"output column '{name}' row {row + 1}: {float(value)!r} is not finite")


def _csv_quote(text: str) -> str:
    """A CSV string cell, quoted as RFC 4180 asks when it holds ',', '"', CR or LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


class Coded(NamedTuple):
    """A table column as a float, bool or str array ``values``, which may repeat
    or hold values no row uses, and the rows ``values[codes]``: the writer
    renders each value once, where a plain column is rendered one cell per row."""

    values: np.ndarray
    codes: np.ndarray


def _encoded(name: str, values: Sequence[Any], csv: bool) -> List[bytes]:
    """The ``_fmt`` text of each cell, quoted for the format, in UTF-8. Of these
    only a CSV string can hold NUL (JSON writes it as \\u0000), and NUL pads the
    writer's texts, so no cell that a row shows may hold one. A NaN or an
    infinity names the column and row."""
    quote = _csv_quote if csv else json.dumps
    cells = []
    for row, v in enumerate(values):
        try:
            cells.append(_fmt(v, quote).encode())
        except ModelError:
            raise _not_finite(name, row, v) from None
    return cells


def _nul_cell(name: str) -> ModelError:
    return ModelError(f"table column {name!r} holds a NUL character")


def _row_count(names: Sequence[str], lengths: Sequence[int]) -> int:
    """The rows of columns with these lengths, which must all be the same."""
    n = lengths[0] if lengths else 0
    for name, length in zip(names, lengths):
        if length != n:
            raise ModelError(f"table column {name!r} has {length} rows, "
                             f"column {names[0]!r} has {n}")
    return n


def _texts(name: str, column: Sequence[Any], csv: bool) -> Tuple[np.ndarray, np.ndarray]:
    """(texts, codes): a column's cells (a Coded column's values) as the rows of
    a uint8 array, each padded with NUL, and each row's index into it. Floats
    are repr; other cells are ``_encoded``."""
    import numpy as np

    values, codes = column if isinstance(column, Coded) else (column, np.arange(len(column)))
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        from ._floatrepr import repr_rows

        bad = ~np.isfinite(values)
        if bad.any():
            rows = np.flatnonzero(bad[codes])
            if rows.size:
                raise _not_finite(name, int(rows[0]), values[codes[rows[0]]])
            values = np.where(bad, 0.0, values)  # no row shows them
        texts = repr_rows(values)
        # the bytes some text reaches, from an OR of the rows' 8-byte words:
        # over a (-1, 4096) view first, whose rows reduce at full vector width
        words = texts.view(np.uint64).ravel()
        cut = words.size - words.size % 4096
        acc = np.bitwise_or.reduce(words[:cut].reshape(-1, 4096), axis=0)
        acc = np.bitwise_or.reduce(np.concatenate([acc, words[cut:]]).reshape(-1, 4), axis=0)
        reach = acc.view(np.uint8) != 0
        texts = texts[:, reach.argmax():reach.size - reach[::-1].argmax()]
        return np.ascontiguousarray(texts), codes
    data = _encoded(name, values.tolist() if isinstance(values, np.ndarray) else values, csv)
    # a value no row shows may hold NUL
    if np.array([b"\0" in d for d in data], bool)[codes].any():
        raise _nul_cell(name)
    width = max(map(len, data), default=0)
    padded = b"".join(d.ljust(width, b"\0") for d in data)
    return np.frombuffer(padded, np.uint8).reshape(len(data), width), codes


# the bytes of rows start to stop, as one or more bytes-like parts
Rows = Callable[[int, int], Iterable[Any]]
Frame = Tuple[bytes, bytes, bytes]  # the bytes before, between and after a row's cells

_ROWS_PER_BLOCK = 4096  # the block and its mask stay in the cache


def _blocks(names: Sequence[str], columns: Sequence[Sequence[Any]], csv: bool,
            frame: Frame) -> Tuple[int, Rows]:
    """(n, rows) of a table, assembled in blocks of rows: a uint8 block holds
    each row's fixed bytes and, in each cell's slot, its column's padded text
    gathered by row; the block is then written without the padding."""
    import numpy as np

    cols = [_texts(name, column, csv) for name, column in zip(names, columns)]
    n = _row_count(names, [len(codes) for _, codes in cols])
    lead, sep, tail = frame
    layout, slots = bytearray(lead), []
    for texts, _ in cols:
        layout += sep if slots else b""
        slots.append(slice(len(layout), len(layout) + texts.shape[1]))
        layout += bytes(texts.shape[1])
    # one block buffer: each block overwrites every slot and keeps the fixed bytes
    buffer = np.tile(np.frombuffer(layout + tail, np.uint8), (min(n, _ROWS_PER_BLOCK), 1))

    def rows(start: int, stop: int) -> Iterator[np.ndarray]:
        for a in range(start, stop, _ROWS_PER_BLOCK):
            block = buffer[:min(stop - a, _ROWS_PER_BLOCK)]
            for (texts, codes), slot in zip(cols, slots):
                block[:, slot] = texts.take(codes[a:a + len(block)], axis=0)
            yield block[block != 0]

    return n, rows


def _joined(names: Sequence[str], columns: Sequence[Sequence[Any]], csv: bool,
            frame: Frame) -> Tuple[int, Rows]:
    """(n, rows) of a table of lists and tuples, without numpy: each row is its
    ``_encoded`` cells joined in the frame."""
    cols = []
    for name, column in zip(names, columns):
        data = _encoded(name, column, csv)
        if any(b"\0" in d for d in data):
            raise _nul_cell(name)
        cols.append(data)
    n = _row_count(names, [len(data) for data in cols])
    lead, sep, tail = frame
    table = [lead + sep.join(cells) + tail for cells in zip(*cols)]
    return n, lambda start, stop: table[start:stop]


def _table(names: Sequence[str], columns: Sequence[Sequence[Any]],
           meta: Sequence[Tuple[int, str]], csv: bool) -> bytes:
    """A table's CSV or JSON bytes. A table whose columns are all lists or
    tuples (the locking table, a report's key,value CSV) is ``_joined`` a row
    at a time without numpy; any other is assembled in ``_blocks``."""
    if len(names) != len(columns):
        raise ModelError(f"table has {len(names)} column names {list(names)!r} "
                         f"and {len(columns)} columns")
    frame = (b"", b",", b"\n") if csv else (b"    [\n      ", b",\n      ", b"\n    ],\n")
    plain = all(type(column) in (list, tuple) for column in columns)
    n, rows = (_joined if plain else _blocks)(names, columns, csv, frame)
    if not csv:  # no comma after the last row
        body = [*rows(0, n)]
        body = [b"[\n", *body[:-1], body[-1][:-2], b"\n  ]"] if body else [b"[]"]
        head = json.dumps({"columns": list(names)}, indent=2)[:-2].encode()
        return b"".join([head, b',\n  "rows": ', *body, b"\n}\n"])
    # a '#' line goes before the row of its index, in ascending index order
    parts, start = [",".join(names).encode() + b"\n"], 0
    for i, line in meta:
        if not start <= i <= n:
            raise ModelError(f"'#' line {line!r} at row {i}: need a row in [{start}, {n}]")
        parts += [*rows(start, i), f"# {line}\n".encode()]
        start = i
    return b"".join([*parts, *rows(start, n)])


def render_csv(names: Sequence[str], columns: Sequence[Sequence[Any]],
               meta: Sequence[Tuple[int, str]] = ()) -> bytes:
    """CSV bytes from equal-length columns, with '#' metadata lines inserted
    before the given row indices, which ascend."""
    return _table(names, columns, meta, csv=True)


def render_json(obj: Any) -> bytes:
    """JSON bytes of a report, or of a table as {"columns": names, "rows": rows}."""
    if isinstance(obj, dict):
        return (_dumps(obj, indent=2) + "\n").encode()
    return _table(obj[0], obj[1], (), csv=False)


def _flatten(obj: Any, prefix: str = "") -> List[Tuple[str, Any]]:
    if isinstance(obj, dict):
        return [kv for k, v in obj.items() for kv in _flatten(v, f"{prefix}.{k}" if prefix else k)]
    if isinstance(obj, (list, tuple)):
        return [(prefix, _dumps(obj))]
    return [(prefix, obj)]


# what a subcommand returns: a report dict or a (names, columns, meta) table
Table = Tuple[Sequence[str], Sequence[Sequence[Any]], Sequence[Tuple[int, str]]]
Result = Union[Dict[str, Any], Table]


def _render(result: Result, out_format: Optional[str]) -> bytes:
    """Reports default to JSON (flattened key,value CSV on request), tables to CSV."""
    if isinstance(result, dict) and out_format == "csv":  # a table of two list columns
        pairs = _flatten(result)
        return render_csv(["key", "value"], [[k for k, _ in pairs], [v for _, v in pairs]])
    if isinstance(result, dict) or out_format == "json":
        return render_json(result)
    return render_csv(*result)


def _sha256(path: Path) -> str:
    import hashlib

    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# file readers

def _read_table(path: Path) -> Tuple[Dict[str, str], List[str], List[List[str]], List[int]]:
    meta: Dict[str, str] = {}
    columns: List[str] = []
    rows: List[List[str]] = []
    lineno_of_row: List[int] = []
    for lineno, line in enumerate(_read_text(path, path.name).splitlines(), start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            body = text.lstrip("#").strip()
            if "=" in body:
                k, _, v = body.partition("=")
                meta[k.strip()] = v.strip()
            continue
        cells = [c.strip() for c in text.split(",")]
        if not columns:
            columns = cells
        else:
            rows.append(cells)
            lineno_of_row.append(lineno)
    if not columns:
        raise SchemaError(f"{path.name}: no header row found")
    if not rows:
        raise SchemaError(f"{path.name}: no data rows")
    return meta, columns, rows, lineno_of_row


def _csv_number(text: str, where: str) -> float:
    """A finite float from CSV text; ``where`` names it in the error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise SchemaError(f"{where}: not a finite number: {text!r}")
    return value


def _column(path: Path, columns: List[str], rows: List[List[str]],
            lineno_of_row: List[int], name: str) -> np.ndarray:
    import numpy as np

    if name not in columns:
        raise SchemaError(f"{path.name}: missing required column '{name}'")
    j = columns.index(name)
    vals = []
    for row, lineno in zip(rows, lineno_of_row):
        try:
            value = float(row[j])
        except (IndexError, ValueError):
            value = math.nan
        if not math.isfinite(value):  # only a failing cell pays for its location
            if j >= len(row):
                raise SchemaError(f"{path.name}: line {lineno}: row has no column '{name}'")
            _csv_number(row[j], f"{path.name}: line {lineno}: column '{name}'")
        vals.append(value)
    return np.array(vals)


def _meta_number(path: Path, meta: Dict[str, str], key: str,
                 default: Optional[float] = None) -> float:
    """Numeric '# key=value' metadata; a missing or empty value takes the default."""
    text = meta.get(key)
    if not text and default is not None:
        return default
    if text is None:
        raise SchemaError(f"{path.name}: missing metadata line '# {key}=...'")
    return _csv_number(text, f"{path.name}: metadata '{key}'")


def read_transmission_csv(path: Path) -> characterize.TransmissionTrace:
    from . import characterize

    meta, columns, rows, lines = _read_table(path)
    freq_col = "delta_p_rad_s" if "delta_p_rad_s" in columns else "omega_p_rad_s"
    freq = _column(path, columns, rows, lines, freq_col)
    trans = _column(path, columns, rows, lines, "transmission")
    p_in = _meta_number(path, meta, "p_in_w", default=0.0)
    direction = meta.get("direction", "down")
    return _schema(path.name, characterize.TransmissionTrace,
                   freq=freq, transmission=trans, p_in=p_in, direction=direction)


def read_resonance_csv(path: Path) -> characterize.ResonanceList:
    from . import characterize

    _, columns, rows, lines = _read_table(path)
    mu = _column(path, columns, rows, lines, "mu").tolist()
    omega = _column(path, columns, rows, lines, "omega_rad_s")
    if not all(m.is_integer() for m in mu):
        raise SchemaError(f"{path.name}: column 'mu': mode numbers must be integers")
    # Python int is exact for any integral float; an int64 cast wraps above 2**63
    return _schema(path.name, characterize.ResonanceList, tuple(zip(map(int, mu), omega)))


def read_zero_span_csv(path: Path) -> characterize.ZeroSpanTrace:
    from . import characterize

    meta, columns, rows, lines = _read_table(path)
    center_hz, rbw_hz, vbw_hz = (_meta_number(path, meta, key)
                                 for key in ("center_hz", "rbw_hz", "vbw_hz"))
    t = _column(path, columns, rows, lines, "t_s")
    p = _column(path, columns, rows, lines, "power_dbm")
    return _schema(path.name, characterize.ZeroSpanTrace, t=t, power_dbm=p,
                   center_hz=center_hz, rbw_hz=rbw_hz, vbw_hz=vbw_hz)


def _budget_from_obj(obj: Any, where: str) -> detection.LossBudget:
    from . import detection

    if not isinstance(obj, list):
        raise SchemaError(f"{where}: expected a list of {{label, loss_db}} entries")
    entries = []
    for i, item in enumerate(obj):
        if not isinstance(item, dict) or "label" not in item or "loss_db" not in item:
            raise SchemaError(f"{where}: entry {i}: need 'label' and 'loss_db'")
        label = item["label"]
        if not isinstance(label, str):
            raise SchemaError(f"{where}: entry {i}: 'label' must be a string, got {label!r}")
        entries.append((label, _number(item["loss_db"], f"{where}: entry {i}: 'loss_db'")))
    return _schema(where, detection.LossBudget, tuple(entries))


def read_budget_json(path: Path) -> detection.LossBudget:
    return _budget_from_obj(_read_json(path, path.name), path.name)


# ---------------------------------------------------------------------------
# subcommands

def _sweeps(params: core.ResonatorParams, powers: List[float], omega_p: float, dirs: List[str],
            delta_p: np.ndarray) -> List[steady_state.SweepTrace]:
    """One sweep for each pump power and then each direction."""
    from . import steady_state

    return [steady_state.sweep(params, steady_state.PumpConfig(
                p_in=p_in, delta_p=delta_p, omega_p=omega_p, direction=direction))
            for p_in in powers for direction in dirs]


def cmd_sweep(cfg: RunConfig) -> Table:
    """branch-continued steady-state sweep over detuning"""
    import numpy as np

    params = parse_resonator(cfg)
    powers, omega_p, dirs = parse_pump(cfg, params)
    delta_p = _grid(cfg.section("grid"), "delta_p_rad_s", "grid")

    traces = _sweeps(params, powers, omega_p, dirs, delta_p)
    # The columns go to the writer coded, so it renders each distinct cell once:
    # each power's first direction gives every row a cell, and a later
    # direction only the rows where its n differs (the hysteresis window)
    size = delta_p.size
    rows = np.arange(len(traces) * size).reshape(len(powers), len(dirs), size)
    bits = np.concatenate([t.n for t in traces]).view(np.int64)[rows]
    new = (rows == rows[:, :1]) | (bits != bits[:, :1])
    codes = (np.cumsum(new) - 1)[np.where(new, rows, rows[:, :1])].ravel()
    n, delta_cl, trans = (np.concatenate([getattr(t, key) for t in traces])[new.ravel()]
                          for key in ("n", "delta_cl", "transmission"))
    # out-of-range resonator keys overflow here; the finite check below reports them
    with np.errstate(over="ignore", invalid="ignore"):
        table: Dict[str, Any] = {
            "delta_p_rad_s": Coded(delta_p, np.tile(np.arange(size), len(traces))),
            "n_photons": Coded(n, codes),
            "energy_j": Coded(core.HBAR * omega_p * n, codes),
            "delta_cl_rad_s": Coded(delta_cl, codes),
            "transmission": Coded(trans, codes),
            "stable": Coded(np.array([False, True]),
                            np.concatenate([t.stable for t in traces]).astype(np.intp)),
            "direction": Coded(np.array(dirs), np.repeat(np.arange(len(traces)) % len(dirs), size)),
        }
        if params.radius is not None and params.n_eff is not None:
            # free spectral range converts stored energy to circulating power
            fsr = core.C_VACUUM / (params.n_eff * 2.0 * math.pi * params.radius)
            table["circulating_power_w"] = Coded(core.HBAR * omega_p * n * fsr, codes)
    for name, column in table.items():
        if isinstance(column, Coded) and column.values.dtype.kind == "f":
            finite = np.isfinite(column.values)
            if not finite.all():  # every value is some row's
                at = float(delta_p[np.flatnonzero(~finite[column.codes])[0] % size])
                raise ModelError(f"{name} not finite at delta_p = {at!r} rad/s")
    meta = [(k * size, f"p_in_w={_fmt(t.p_in)}")
            for k, t in enumerate(traces) if k % len(dirs) == 0]
    return list(table), list(table.values()), meta


def _db(ratio: np.ndarray) -> np.ndarray:
    """10 log10 of ratios that the spectrum kernels checked are in (0, inf)."""
    import numpy as np

    # math.log10, not np.log10: the two differ in the last bit on some inputs
    log = map(math.log10, ratio.ravel().tolist())
    return 10.0 * np.fromiter(log, float, count=ratio.size).reshape(ratio.shape)


def cmd_spectrum(cfg: RunConfig) -> Table:
    """quadrature variance spectra"""
    import numpy as np

    from . import spectrum, steady_state

    params = parse_resonator(cfg)
    powers, omega_p, dirs = parse_pump(cfg, params)
    etas, _ = parse_detection(cfg)
    sec = cfg.section("spectrum", required=False)
    mode = sec.get("mode", "locking")
    if mode not in ("locking", "detuning"):
        raise SchemaError(f"config key 'spectrum.mode': expected 'locking' or 'detuning', got {mode!r}")
    locked = mode == "locking"
    optimize_phi = _flag(sec, "optimize_phi", "spectrum")
    grid_sec = cfg.section("grid")
    omega = _grid(grid_sec, "omega_rad_s", "grid")
    phi = None if optimize_phi else _grid(grid_sec, "phi_lo_rad", "grid")

    # operating points as (leading row cells, eta, branch, sigma_tilde): a locked
    # branch, or a sweep trace whose cells hold one entry per grid point; the
    # locked closed forms use sigma_tilde, so detuning mode leaves it unset
    points: List[Tuple[List[Any], float, Any, Optional[float]]]
    if locked:
        head = ["eta", "p_in_w"]
        p_th = core.threshold_power(params, omega_p)
        locks = [(p_in, steady_state.injection_locking_point(params, p_in, omega_p)[1])
                 for p_in in powers]
        # sigma_tilde is p_in / p_th = 2 g_opt n / Gamma at the lock, but the two
        # forms round apart in the last bit; each layout keeps the one its bytes hold
        points = [([eta, p_in], eta, branch, p_in / p_th if optimize_phi
                   else 2.0 * params.g_opt * branch.n / core.total_loss(params))
                  for eta in etas for p_in, branch in locks]
    else:
        head = ["eta", "p_in_w", "direction", "delta_p_rad_s", "n_photons"]
        swept = _sweeps(params, powers, omega_p, dirs, _grid(grid_sec, "delta_p_rad_s", "grid"))
        points = [([eta, trace.p_in, trace.direction, trace.delta_p, trace.n], eta, trace, None)
                  for eta in etas for trace in swept]

    if optimize_phi:
        columns = head + ["omega_rad_s", "v_s_ratio", "v_s_db", "v_as_ratio", "v_as_db",
                          "phi_opt_rad"]
        if locked:
            columns += ["v_s_locked_ratio", "v_as_locked_ratio"]
    else:
        columns = head + ["omega_rad_s", "phi_lo_rad", "v_ratio", "v_db"]
        if locked:
            columns.append("v_locked_ratio")

    # the leading cells and grid axes (omega, and phi unless optimized) go to the
    # writer coded by their place in each point's broadcast, counted on from the
    # earlier points' values; the kernel's outputs hold one value per row
    values: List[List[np.ndarray]] = [[] for _ in columns]
    codes: List[List[np.ndarray]] = [[] for _ in columns[:len(head) + 2 - optimize_phi]]
    for lead, eta, branch, st in points:
        # one kernel call's cells after the leading ones: points, then omega, then phi
        w = omega
        if locked:
            y, c = spectrum.spectral_numbers(params, omega, eta)
            overflow = np.flatnonzero(~np.isfinite(y))
            if overflow.size:  # a kernel failure at a row up to the first overflow comes first
                w = omega[:overflow[0] + 1]
        if optimize_phi:
            v_min, v_max, phi_min = spectrum.variance_extrema(params, branch, w, eta)
            cells = [w, v_min, _db(v_min), v_max, _db(v_max), phi_min]
        else:
            v = spectrum.variance_spectrum(params, branch, w[:, None], phi, eta)
            cells = [w[:, None], phi, v, _db(v)]
        if w is not omega:
            raise ModelError(f"y = 1 + (2w/Gamma)^2 out of float range at omega = "
                             f"{float(w[-1])!r} rad/s")
        if locked and optimize_phi:
            cells.extend(spectrum.locked_extrema(st, y, c))
        elif locked:
            cells.append(spectrum.locked_raw_variance(st, y[:, None], c, phi))
        shape = np.shape(cells[2])
        # a leading cell has one entry per point, on the leading axis
        lead = [np.reshape(x, np.shape(x) + (1,) * (len(shape) - np.ndim(x))) for x in lead]
        for k, x in enumerate(lead + cells):
            if k < len(codes):
                place = np.arange(np.size(x)).reshape(np.shape(x)) + sum(map(len, values[k]))
                codes[k].append(np.broadcast_to(place, shape).ravel())
            values[k].append(np.ravel(x))
    return columns, [Coded(*map(np.concatenate, pair)) for pair in zip(values, codes)] + [
        np.concatenate(column) for column in values[len(codes):]], ()


def cmd_locking(cfg: RunConfig) -> Table:
    """injection locking point per pump power"""
    from . import steady_state

    params = parse_resonator(cfg)
    powers, omega_p, _ = parse_pump(cfg, params)
    columns = ["p_in_w", "delta_p_lock_rad_s", "n_lock_photons", "delta_cl_rad_s",
               "delta_f_rad_s", "transmission"]
    rows = []
    for p_in in powers:
        dpl, branch = steady_state.injection_locking_point(params, p_in, omega_p)
        rows.append([p_in, dpl, branch.n, branch.delta_cl, branch.delta_f,
                     steady_state.transmission(params, branch)])
    return columns, list(zip(*rows)), ()


def _threshold_or_none(p_th: float) -> Optional[float]:
    """The threshold power, or None (JSON null) where it is absent (g_opt = 0)."""
    return None if math.isinf(p_th) else p_th


def cmd_threshold(cfg: RunConfig) -> Dict[str, Any]:
    """parametric threshold power report"""
    params = parse_resonator(cfg)
    sec = cfg.section("pump", required=False)
    omega_p_cfg = _num(sec, "omega_p_rad_s", "pump", required=False)
    omega_p = _resolve_omega_p(params, omega_p_cfg)
    p_th = core.threshold_power(params, omega_p)
    return {
        "kappa_rad_s": params.kappa,
        "gamma_rad_s": params.gamma,
        "g_opt_rad_s": params.g_opt,
        "g_th_rad_s": params.g_th,
        "omega_p_rad_s": omega_p,
        "total_loss_rad_s": core.total_loss(params),
        "quality_factor": _quality_factor(params),
        "p_th_w": _threshold_or_none(p_th),
    }


def cmd_report(cfg: RunConfig) -> Dict[str, Any]:
    """end-to-end operating point summary"""
    params = parse_resonator(cfg)
    powers, omega_p, _ = parse_pump(cfg, params)
    etas, budget = parse_detection(cfg)
    for key, what, values in (("pump.p_in_w", "power", powers), ("detection.eta", "eta", etas)):
        if len(values) > 1:
            raise SchemaError(f"config key '{key}': report takes one {what}, got {len(values)}")
    (p_in,), (eta,) = powers, etas
    rep_sec = cfg.section("report", required=False)
    p_th_model = core.threshold_power(params, omega_p)
    p_th_override = _num(rep_sec, "p_th_w", "report", required=False)
    p_th_used = p_th_model if p_th_override is None else p_th_override

    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        drv = core.drive_state(params, p_in, omega_p, eta=eta, p_th=p_th_used)
        if math.isfinite(p_th_used):
            chip = core.locked_variances(p_in, p_th_used, params.kappa,
                                         params.gamma, eta=1.0)
            measured = core.locked_variances(p_in, p_th_used, params.kappa,
                                             params.gamma, eta=eta)
        else:
            chip = measured = None
    caught = list(dict.fromkeys(str(w.message) for w in wlist))  # each once, first seen first

    def _block(res: Optional[core.SqueezingResult]) -> Optional[Dict[str, float]]:
        if res is None:
            return None
        return {
            "v_s_ratio": res.v_s,
            "v_s_db": core.db_from_linear(res.v_s),
            "v_as_ratio": res.v_as,
            "v_as_db": core.db_from_linear(res.v_as),
        }

    return {
        "resonator": {
            "kappa_rad_s": params.kappa,
            "gamma_rad_s": params.gamma,
            "g_opt_rad_s": params.g_opt,
            "g_th_rad_s": params.g_th,
        },
        "pump": {"p_in_w": p_in, "omega_p_rad_s": omega_p},
        "total_loss_rad_s": core.total_loss(params),
        "quality_factor": _quality_factor(params),
        "p_th_model_w": _threshold_or_none(p_th_model),
        "p_th_w": _threshold_or_none(p_th_used),
        "drive": {
            "sigma_tilde": drv.sigma_tilde,
            "x": drv.x,
            "n_fluct_out": drv.n_fluct_out,
            "r": drv.r,
            "phi_opt_rad": chip.phi_opt if chip is not None and p_in > 0 else None,
        },
        "detection": {
            "eta": eta,
            "budget": None if budget is None else {
                "entries": [{"label": l, "loss_db": v} for l, v in budget.entries],
                "total_db": budget.total_db,
            },
        },
        "chip": _block(chip),
        "measured": _block(measured),
        "warnings": caught,
    }


def cmd_fit_transmission(cfg: RunConfig) -> Dict[str, Any]:
    """fit a linear resonance lineshape"""
    from . import characterize

    sec = cfg.section("fit")
    path = cfg.resolve("fit.input", sec.get("input"))
    regime = sec.get("coupling_regime", "over")
    if regime not in ("over", "under"):
        raise SchemaError("config key 'fit.coupling_regime': expected 'over' or 'under'")
    max_residual = _num(sec, "max_residual", "fit", required=False, default=0.05)
    trace = read_transmission_csv(path)
    fit = characterize.fit_linear_resonance(trace, regime, max_residual=max_residual)
    return {
        "model": "linear_resonance",
        "input": str(sec.get("input")),
        "input_sha256": _sha256(path),
        "coupling_regime": regime,
        "parameters": {
            "center_rad_s": {"value": fit.omega_r, "stderr": fit.stderr[0]},
            "kappa_rad_s": {"value": fit.kappa, "stderr": fit.stderr[1]},
            "gamma_rad_s": {"value": fit.gamma, "stderr": fit.stderr[2]},
        },
        "residual_rel": fit.residual,
    }


def cmd_fit_dispersion(cfg: RunConfig) -> Dict[str, Any]:
    """fit mode dispersion coefficients"""
    from . import characterize

    sec = cfg.section("dispersion")
    path = cfg.resolve("dispersion.input", sec.get("input"))
    resonances = read_resonance_csv(path)
    fit = characterize.fit_dispersion(resonances)
    return {
        "model": "quadratic_dispersion",
        "input": str(sec.get("input")),
        "input_sha256": _sha256(path),
        "parameters": {
            "omega_0_rad_s": {"value": fit.omega_0, "stderr": fit.stderr[0]},
            "d1_rad_s": {"value": fit.d1, "stderr": fit.stderr[1]},
            "d2_rad_s": {"value": fit.d2, "stderr": fit.stderr[2]},
        },
        "regime": characterize.dispersion_regime(fit.d2),
        "residual_norm_rad_s": fit.residual_norm,
        "d_int_rad_s": [float(v) for v in fit.d_int],
    }


def cmd_reduce_trace(cfg: RunConfig) -> Dict[str, Any]:
    """reduce a zero-span trace to squeezing dB"""
    import numpy as np

    from . import characterize

    sec = cfg.section("trace")
    t_path = cfg.resolve("trace.input", sec.get("input"))
    r_path = cfg.resolve("trace.reference", sec.get("reference"))
    low = _num(sec, "low_percentile", "trace", required=False, default=1.0)
    high = _num(sec, "high_percentile", "trace", required=False, default=99.0)
    detrend = _flag(sec, "detrend", "trace")
    trace = read_zero_span_csv(t_path)
    reference = read_zero_span_csv(r_path)
    v_s_db, v_as_db = characterize.reduce_homodyne_trace(
        trace, reference, low_percentile=low, high_percentile=high, detrend=detrend
    )
    return {
        "model": "zero_span_reduction",
        "input": str(sec.get("input")),
        "input_sha256": _sha256(t_path),
        "reference": str(sec.get("reference")),
        "reference_sha256": _sha256(r_path),
        "metadata": {
            "center_hz": trace.center_hz,
            "rbw_hz": trace.rbw_hz,
            "vbw_hz": trace.vbw_hz,
        },
        "percentiles": [low, high],
        "detrend": detrend,
        "reference_level_dbm": float(np.mean(reference.power_dbm)),
        "v_s_db": v_s_db,
        "v_as_db": v_as_db,
        "v_s_ratio": core.linear_from_db(v_s_db),
        "v_as_ratio": core.linear_from_db(v_as_db),
    }


def cmd_losses(cfg: RunConfig) -> Dict[str, Any]:
    """evaluate a detection loss budget"""
    budget = _parse_budget(cfg, cfg.section("losses"), "losses", "'budget_path' or 'entries'")
    return {
        "entries": [{"label": l, "loss_db": v} for l, v in budget.entries],
        "total_db": budget.total_db,
        "eta": budget.eta,
    }


# ---------------------------------------------------------------------------
# entry point

_DISPATCH: Dict[str, Callable[[RunConfig], Result]] = {
    "sweep": cmd_sweep,
    "spectrum": cmd_spectrum,
    "locking": cmd_locking,
    "threshold": cmd_threshold,
    "report": cmd_report,
    "fit-transmission": cmd_fit_transmission,
    "fit-dispersion": cmd_fit_dispersion,
    "reduce-trace": cmd_reduce_trace,
    "losses": cmd_losses,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerrsqueeze",
        description="Kerr microring squeezed-light model and characterization fits",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="JSON config file")
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument("--format", dest="out_format", choices=("csv", "json"),
                        default=None, help="output format (default: csv for tables, json for reports)")
    for name, cmd in _DISPATCH.items():
        sub.add_parser(name, parents=[common], help=cmd.__doc__)
    return parser


# C0 control characters and DEL as \xNN, so an error is one line of plain text
_CONTROL = {c: f"\\x{c:02x}" for c in (*range(32), 127)}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        result = _DISPATCH[args.command](load_config(args.config))
        data = _render(result, args.out_format)
        if args.out is None:
            _write_stdout(data)
        else:
            Path(args.out).write_bytes(data)
    except (ModelError, OSError) as e:
        print(f"error: {str(e).translate(_CONTROL)}", file=sys.stderr)
        return 1
    return 0


def _write_stdout(data: bytes) -> None:
    """Writes ``data`` to stdout and flushes it, so a reader that has gone is
    an OSError here rather than at interpreter exit. The bytes it leaves
    buffered then go to the null device, where the exit's flush cannot fail."""
    try:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        raise


if __name__ == "__main__":  # kerrsqueeze.__main__ is the one entry: it sets the BLAS default
    print("error: run the CLI as python -m kerrsqueeze", file=sys.stderr)
    sys.exit(2)
