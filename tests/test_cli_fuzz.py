"""In-process fuzz gate over the CLI's input domain.

Each example takes one sample config, sets one of its numeric leaves to an
extreme or invalid value and runs ``cli.main`` with both ``--format`` values.
The run must either exit 0 with every output cell finite, or exit 1 with one
``error:`` line, no traceback and no output file.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from kerrsqueeze import cli

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
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    # a key,value report splits once, as its value may be a JSON list
    cells = ([line.split(",", 1)[1] for line in lines[1:]] if lines[0] == "key,value"
             else [c for line in lines[1:] for c in line.split(",")])
    bad = [c for c in cells if not _cell_is_finite(c)]
    assert not bad, bad[:5]


def run_case(cmd, config, workdir):
    """Run one config in both formats and check the outcome of each."""
    cfg = Path(workdir) / "c.json"
    cfg.write_text(json.dumps(config))
    for out_format in ("csv", "json"):
        out = Path(workdir) / f"out.{out_format}"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main([cmd, "--config", str(cfg), "--out", str(out), "--format", out_format])
        err = err.getvalue()
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


def test_fuzz_cases_cover_every_sample_config_with_numbers():
    # these two configs hold only file paths
    no_numbers = {"config_fit_dispersion.json", "config_losses.json"}
    assert {name for _, name, _ in CASES} == {name for _, name in CONFIGS} - no_numbers
    assert len(CASES) * len(VALUES) == 532
