"""In-process fuzz gate over the CLI's input domain.

Each example takes one sample config, sets one of its numeric leaves to an
extreme or invalid value and runs ``cli.main`` with both ``--format`` values.
The run must either exit 0 with every output cell finite, or exit 1 with one
``error:`` line, no traceback and no output file. In process the warnings
module never reaches stderr, so a run that warns fails too, except for
``LinearizationWarning``, which a report carries by design.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from kerrsqueeze import LinearizationWarning, cli

from test_cli import CONFIGS

SAMPLES = Path(__file__).resolve().parent.parent / "sample_data"
VALUES = (0, 1e-300, -1e-300, 1e300, -1e300, -1, 2.5)


def _leaves(obj, path=()):
    """Paths of the numeric (not bool) leaves of a parsed JSON config."""
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _leaves(v, path + (k,))]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _leaves(v, path + (i,))]
    return [path] if isinstance(obj, (int, float)) and not isinstance(obj, bool) else []


def _with_files_absolute(obj):
    """The config with every string naming a sample file made absolute."""
    if isinstance(obj, dict):
        return {k: _with_files_absolute(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_with_files_absolute(v) for v in obj]
    if isinstance(obj, str) and (SAMPLES / obj).is_file():
        return str(SAMPLES / obj)
    return obj


_SAMPLE_CONFIGS = {name: _with_files_absolute(json.loads((SAMPLES / name).read_text()))
                   for _, name in CONFIGS}
CASES = [(cmd, name, path) for cmd, name in CONFIGS for path in _leaves(_SAMPLE_CONFIGS[name])]


def _set(config, path, value):
    config = json.loads(json.dumps(config))
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return config


def _finite_tree(obj):
    if isinstance(obj, dict):
        return all(map(_finite_tree, obj.values()))
    if isinstance(obj, list):
        return all(map(_finite_tree, obj))
    return not isinstance(obj, float) or math.isfinite(obj)


def _reject_constant(literal):
    raise AssertionError(f"output JSON holds {literal}")


def _cell_is_finite(cell):
    """A CSV cell: numbers must be finite; a JSON list cell is parsed as JSON."""
    if cell.startswith("["):
        return _finite_tree(json.loads(cell, parse_constant=_reject_constant))
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return True  # a word such as "down", "true" or "None"


def check_outputs_finite(text, out_format):
    if out_format == "json":
        body = json.loads(text, parse_constant=_reject_constant)
        assert _finite_tree(body), body
        return
    rows = list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))
    assert all(len(row) == len(rows[0]) for row in rows), rows[0]
    bad = [c for row in rows[1:] for c in row if not _cell_is_finite(c)]
    assert not bad, bad[:5]


def run_case(cmd, config, workdir):
    """Run one config in both formats and check the outcome of each."""
    cfg = Path(workdir) / "c.json"
    cfg.write_text(json.dumps(config))
    for out_format in ("csv", "json"):
        out = Path(workdir) / f"out.{out_format}"
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = cli.main([cmd, "--config", str(cfg), "--out", str(out), "--format", out_format])
        err = err.getvalue()
        warned = [f"{w.category.__name__}: {w.message}" for w in caught
                  if not issubclass(w.category, LinearizationWarning)]
        assert not warned, warned
        if rc == 0:
            check_outputs_finite(out.read_text(), out_format)
            out.unlink()
        else:
            assert rc == 1, (rc, err)
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "Traceback" not in err, err
            assert not out.exists()


# all 532 (leaf, value) cases take ~6.5 s on a 2-core host, 200 draws ~3.5 s
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.sampled_from(CASES), value=st.sampled_from(VALUES))
# the free spectral range of the sweep's circulating power once divided by a
# zero ring radius or index
@example(case=("sweep", "config_sweep.json", ("resonator", "radius_m")), value=0)
@example(case=("sweep", "config_sweep.json", ("resonator", "n_eff")), value=0)
@pytest.mark.filterwarnings("ignore::kerrsqueeze.LinearizationWarning")
def test_one_extreme_config_value_gives_finite_output_or_one_error_line(case, value):
    cmd, name, path = case
    with tempfile.TemporaryDirectory() as workdir:
        run_case(cmd, _set(_SAMPLE_CONFIGS[name], path, value), workdir)


# keys that no sample config sets, each inserted into every sample config with
# a resonator section (threshold's gains a pump section)
UNSET_CASES = [(cmd, name, section, key) for cmd, name in CONFIGS
               if "resonator" in _SAMPLE_CONFIGS[name]
               for section, key in (("pump", "omega_p_rad_s"), ("resonator", "omega_r_rad_s"))]


@pytest.mark.parametrize("value", VALUES, ids=repr)
@pytest.mark.parametrize("cmd,name,section,key", UNSET_CASES,
                         ids=[f"{name}-{key}" for _, name, _, key in UNSET_CASES])
@pytest.mark.filterwarnings("ignore::kerrsqueeze.LinearizationWarning")
def test_one_unset_config_key_gives_finite_output_or_one_error_line(cmd, name, section, key,
                                                                    value):
    config = _SAMPLE_CONFIGS[name]
    config = {**config, section: {**config.get(section, {}), key: value}}
    with tempfile.TemporaryDirectory() as workdir:
        run_case(cmd, config, workdir)


# a grid axis whose span is beyond the float range: numpy's step overflowed,
# and its RuntimeWarning came before the error line
SPAN_CASES = [(cmd, name, key, axis) for cmd, name, key in (
                  ("spectrum", "config_spectrum_locking.json", "omega_rad_s"),
                  ("spectrum", "config_spectrum_detuning.json", "delta_p_rad_s"),
                  ("sweep", "config_sweep.json", "delta_p_rad_s"))
              for axis in ([-1e308, 1e308], [1.7e308, -1.7e308])]


@pytest.mark.parametrize("cmd,name,key,axis", SPAN_CASES,
                         ids=[f"{name}-{key}-{axis[0]:g}" for _, name, key, axis in SPAN_CASES])
def test_grid_axis_spanning_beyond_the_float_range_gives_one_error_line(cmd, name, key, axis):
    config = _SAMPLE_CONFIGS[name]
    with tempfile.TemporaryDirectory() as workdir:
        run_case(cmd, {**config, "grid": {**config["grid"], key: axis}}, workdir)


def test_fuzz_cases_cover_every_sample_config_with_numbers():
    # these two configs hold only file paths
    no_numbers = {"config_fit_dispersion.json", "config_losses.json"}
    assert {name for _, name, _ in CASES} == {name for _, name in CONFIGS} - no_numbers
    assert len(CASES) * len(VALUES) == 532


def _data_rows(lines):
    """Indices of the header and of the data rows of an input CSV's lines."""
    rows = [i for i, line in enumerate(lines) if line.strip() and not line.startswith("#")]
    return rows[0], rows[1:]


def _input_leaves(file):
    """Where one value can go in a sample input file: each cell of the first,
    middle and last data rows and each '#' metadata value of a CSV, as
    (line, column) or (line, key); each 'loss_db' entry of the loss budget."""
    if file.endswith(".json"):
        return [(i, "loss_db") for i in range(len(json.loads((SAMPLES / file).read_text())))]
    lines = (SAMPLES / file).read_text().splitlines()
    header, rows = _data_rows(lines)
    meta = [(i, line[1:].partition("=")[0].strip()) for i, line in enumerate(lines)
            if line.startswith("#") and "=" in line]
    picked = sorted({rows[0], rows[len(rows) // 2], rows[-1]})
    return meta + [(i, column) for i in picked for column in lines[header].split(",")]


def _with_value(file, leaf, value):
    """The sample input file's text with ``value`` at ``leaf``."""
    text = (SAMPLES / file).read_text()
    i, key = leaf
    if file.endswith(".json"):
        entries = json.loads(text)
        entries[i][key] = value
        return json.dumps(entries)
    lines = text.splitlines()
    if lines[i].startswith("#"):
        lines[i] = f"# {key}={value!r}"
    else:
        columns = lines[_data_rows(lines)[0]].split(",")
        cells = lines[i].split(",")
        cells[columns.index(key)] = repr(value)
        lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


# each config that reads a sample input file, with every (leaf, value) case of
# that file; 1e308 is near the float maximum, and a mode number of 1e20 is
# integral but beyond int64
INPUT_VALUES = VALUES + (1e308,)
def _input_files(config):
    """The sample files a config (with absolute file paths) reads."""
    if isinstance(config, dict):
        return [file for v in config.values() for file in _input_files(v)]
    return [config] if isinstance(config, str) and config.startswith(str(SAMPLES)) else []


INPUT_CASES = [(cmd, name, file, leaf, value)
               for cmd, name in CONFIGS for file in _input_files(_SAMPLE_CONFIGS[name])
               for leaf in _input_leaves(Path(file).name)
               for value in INPUT_VALUES + ((1e20,) if leaf[1] == "mu" else ())]


def _point_at(config, old, new):
    """The config with each string equal to ``old`` replaced by ``new``."""
    if isinstance(config, dict):
        return {k: _point_at(v, old, new) for k, v in config.items()}
    return new if config == old else config


# all 307 cases take ~12 s on a 2-core host, 100 draws ~5 s
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.sampled_from(INPUT_CASES))
# the faults first seen in the fits: a NaN residual stopped the solver with a
# ZeroDivisionError, the covariance with LinAlgError or numpy warnings, and a
# mode number beyond int64 wrapped
@example(case=("fit-transmission", "config_fit_transmission.json",
               str(SAMPLES / "transmission_trace.csv"), (3, "delta_p_rad_s"), -1e300))
@example(case=("fit-transmission", "config_fit_transmission.json",
               str(SAMPLES / "transmission_trace.csv"), (3, "transmission"), -1e300))
@example(case=("fit-transmission", "config_fit_transmission.json",
               str(SAMPLES / "transmission_trace.csv"), (3, "transmission"), 1e300))
@example(case=("fit-dispersion", "config_fit_dispersion.json",
               str(SAMPLES / "resonances.csv"), (1, "mu"), 1e300))
@example(case=("fit-dispersion", "config_fit_dispersion.json",
               str(SAMPLES / "resonances.csv"), (1, "omega_rad_s"), 1e300))
@example(case=("fit-dispersion", "config_fit_dispersion.json",
               str(SAMPLES / "resonances.csv"), (1, "mu"), 1e20))
@pytest.mark.filterwarnings("ignore::kerrsqueeze.LinearizationWarning")
def test_one_extreme_input_file_value_gives_finite_output_or_one_error_line(case):
    cmd, name, file, leaf, value = case
    with tempfile.TemporaryDirectory() as workdir:
        edited = Path(workdir) / Path(file).name
        edited.write_text(_with_value(edited.name, leaf, value))
        run_case(cmd, _point_at(_SAMPLE_CONFIGS[name], file, str(edited)), workdir)


def test_input_file_cases_cover_every_sample_input():
    files = {Path(file).name for _, _, file, _, _ in INPUT_CASES}
    assert files == {"transmission_trace.csv", "resonances.csv", "zero_span_trace.csv",
                     "zero_span_reference.csv", "loss_budget.json"}
    assert len(INPUT_CASES) == 307
