import ast
import csv
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kerrsqueeze import ModelError, steady_state
from kerrsqueeze.cli import Coded, cmd_spectrum, load_config, main, render_json

CONFIGS = [
    ("sweep", "config_sweep.json"),
    ("spectrum", "config_spectrum_locking.json"),
    ("spectrum", "config_spectrum_optimized.json"),
    ("spectrum", "config_spectrum_detuning.json"),
    ("locking", "config_locking.json"),
    ("threshold", "config_threshold.json"),
    ("report", "config_report.json"),
    ("fit-transmission", "config_fit_transmission.json"),
    ("fit-dispersion", "config_fit_dispersion.json"),
    ("reduce-trace", "config_reduce_trace.json"),
    ("losses", "config_losses.json"),
]


def run(sample_dir, cmd, config, tmp_path, name="out.txt", extra=()):
    out = tmp_path / name
    rc = main([cmd, "--config", str(sample_dir / config), "--out", str(out), *extra])
    return rc, out


@pytest.mark.parametrize("cmd,config", CONFIGS)
def test_all_sample_configs_run_clean(cmd, config, sample_dir, tmp_path):
    rc, out = run(sample_dir, cmd, config, tmp_path)
    assert rc == 0
    assert out.stat().st_size > 0


def test_stdout_when_no_out_flag(sample_dir, capsys):
    rc = main(["losses", "--config", str(sample_dir / "config_losses.json")])
    assert rc == 0
    body = json.loads(capsys.readouterr().out)
    assert body["eta"] == pytest.approx(0.29127284648349827, rel=1e-14)
    assert body["total_db"] == pytest.approx(-5.357, abs=1e-12)


def test_missing_config_is_runtime_error(tmp_path, capsys):
    rc = main(["sweep", "--config", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def _one_line_error(argv, capsys):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_a_path_that_is_not_a_regular_file_is_named_so(tmp_path, capsys):
    # a directory, a device or a FIFO exists, so it is not reported as missing;
    # the FIFO is never opened, so nothing waits for a writer
    cfg, fifo = tmp_path / "c.json", tmp_path / "fifo"
    os.mkfifo(fifo)
    for path in (str(tmp_path), os.devnull, str(fifo)):
        err = _one_line_error(["threshold", "--config", path], capsys)
        assert err == f"error: config file is not a regular file: {path}\n"
        cfg.write_text(json.dumps({"losses": {"budget_path": path}}))
        err = _one_line_error(["losses", "--config", str(cfg)], capsys)
        assert err == (f"error: config key 'losses.budget_path': file is not a regular "
                       f"file: {path}\n")
    cfg.write_text(json.dumps({"losses": {"budget_path": "ghost.json"}}))
    err = _one_line_error(["losses", "--config", str(cfg)], capsys)
    assert err == "error: config key 'losses.budget_path': file not found: ghost.json\n"


def test_input_that_is_not_utf8_names_the_file_and_the_byte(tmp_path, capsys):
    # inputs are UTF-8 whatever the locale; a Latin-1 e-acute (0xE9) is not
    cfg, budget, table = tmp_path / "c.json", tmp_path / "b.json", tmp_path / "t.csv"
    for cmd, path, data, name, config in [
        ("losses", cfg, b'{"losses": {"entries": []}, "note": "caf\xe9"}', str(cfg), None),
        ("losses", budget, b'[{"label": "caf\xe9", "loss_db": -1.0}]', "b.json",
         {"losses": {"budget_path": "b.json"}}),
        ("fit-transmission", table, b"# note=caf\xe9\ndelta_p_rad_s,transmission\n0.0,0.5\n",
         "t.csv", {"fit": {"input": "t.csv"}}),
    ]:
        path.write_bytes(data)
        if config is not None:
            cfg.write_text(json.dumps(config))
        err = _one_line_error([cmd, "--config", str(cfg)], capsys)
        assert err.endswith(f"{name}: not UTF-8: invalid continuation byte at byte "
                            f"{data.index(0xE9)}\n"), err


@pytest.mark.parametrize("text,expected", [
    ('{"a": ' + "[" * 200_000 + "]" * 200_000 + "}", "nested too deeply"),
    ('{"resonator": {"kappa_rad_s": ' + "7" * 5000 + "}}",
     "Exceeds the limit (4300 digits) for integer string conversion"),
], ids=["nested-200000", "int-5000-digits"])
def test_json_beyond_the_interpreter_limits_is_one_line_error(text, expected, tmp_path, capsys):
    # json.loads raises RecursionError and CPython's int-digit ValueError here
    cfg = tmp_path / "c.json"
    cfg.write_text(text)
    err = _one_line_error(["threshold", "--config", str(cfg)], capsys)
    assert err.startswith(f"error: config {cfg}: {expected}"), err


def test_bad_json_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "resonator": {,}\n}\n')
    rc = main(["sweep", "--config", str(bad)])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


def test_missing_key_is_named(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"resonator": {"kappa_rad_s": 5e8, "gamma_rad_s": 5e7}}))
    rc = main(["sweep", "--config", str(cfg)])
    assert rc == 1
    assert "pump" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(sample_dir):
    with pytest.raises(SystemExit) as e:
        main(["frobnicate", "--config", "x.json"])
    assert e.value.code == 2


def test_removed_options_are_usage_errors(sample_dir):
    config = str(sample_dir / "config_losses.json")
    for flag in ("--threads", "--seed"):
        with pytest.raises(SystemExit) as e:
            main(["losses", "--config", config, flag, "1"])
        assert e.value.code == 2, flag


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0
    help_of = {}
    for line in capsys.readouterr().out.splitlines():
        name, _, text = line.strip().partition(" ")
        help_of[name] = text.strip()
    for name in ("sweep", "spectrum", "locking", "threshold", "report",
                 "fit-transmission", "fit-dispersion", "reduce-trace", "losses"):
        assert help_of.get(name), name


def test_rerun_is_byte_identical(sample_dir, tmp_path):
    for cmd, config in (("sweep", "config_sweep.json"),
                        ("report", "config_report.json")):
        _, a = run(sample_dir, cmd, config, tmp_path, name="a.txt")
        _, b = run(sample_dir, cmd, config, tmp_path, name="b.txt")
        assert a.read_bytes() == b.read_bytes()


# SHA-256 of each sample config's default output, recorded with Python 3.11.7,
# numpy 2.4.6 and scipy 1.17.1; the fits now run on the package's own LM
# solver, which reproduces scipy 1.17.1's least_squares(method="lm") bit for bit.
# The benchmark's digest file is the one record of them
SAMPLE_DIGESTS = {name: entry["sha256"] for name, entry in json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "sample_digests.json").read_text()
).items()}


# SHA-256 of each sample config's output in the other format (--format json
# for the tables, csv for the reports), recorded with the same versions before
# JSON tables were joined from the CSV cells, so the new path must match the old;
# the reports that hold a list cell were pinned again once their key,value CSV
# quoted it as RFC 4180 asks
OTHER_FORMAT_DIGESTS = json.loads(
    (Path(__file__).resolve().parent / "other_format_digests.json").read_text())
_TABLE_COMMANDS = {"sweep", "spectrum", "locking"}


@pytest.mark.parametrize("cmd,config", CONFIGS)
def test_sample_output_bytes_match_recorded_digest(cmd, config, sample_dir, tmp_path):
    _, out = run(sample_dir, cmd, config, tmp_path)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == SAMPLE_DIGESTS[config], (
        f"{cmd} {config}: output bytes changed; the recorded digest was taken "
        "with Python 3.11.7 and numpy 2.4.6, the fits on the in-repo LM solver, "
        "which reproduces scipy 1.17.1"
    )


@pytest.mark.parametrize("cmd,config", CONFIGS)
def test_sample_other_format_bytes_match_recorded_digest(cmd, config, sample_dir, tmp_path):
    out_format = "json" if cmd in _TABLE_COMMANDS else "csv"
    _, out = run(sample_dir, cmd, config, tmp_path, extra=("--format", out_format))
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == OTHER_FORMAT_DIGESTS[config], (
        f"{cmd} {config} --format {out_format}: output bytes changed; the recorded "
        "digest was taken with Python 3.11.7 and numpy 2.4.6, the fits on the "
        "in-repo LM solver, which reproduces scipy 1.17.1"
    )


@pytest.mark.parametrize("out_format", ["csv", "json"])
@pytest.mark.parametrize("cmd,config", [c for c in CONFIGS if c[0] in _TABLE_COMMANDS])
def test_tables_render_without_a_sort(cmd, config, out_format, sample_dir, tmp_path,
                                      monkeypatch):
    # a column whose cells repeat reaches the writer coded, and a plain one is
    # written one cell per row, so no table sorts for its distinct cells
    def refuse(*args, **kwargs):
        raise AssertionError(f"np.unique called while writing {config}")

    monkeypatch.setattr(np, "unique", refuse)
    _, out = run(sample_dir, cmd, config, tmp_path, extra=("--format", out_format))
    digests = SAMPLE_DIGESTS if out_format == "csv" else OTHER_FORMAT_DIGESTS
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[config]


@pytest.mark.parametrize("config", [name for cmd, name in CONFIGS if cmd == "spectrum"])
def test_spectrum_codes_its_leading_cells_and_grid_axes(config, sample_dir):
    names, columns, _ = cmd_spectrum(load_config(str(sample_dir / config)))
    coded = {name for name, column in zip(names, columns) if isinstance(column, Coded)}
    assert coded == set(names) & {"eta", "p_in_w", "direction", "delta_p_rad_s", "n_photons",
                                  "omega_rad_s", "phi_lo_rad"}
    # every column has a row for each row of the table; a kernel output holds its values
    rows = len(columns[-1])
    assert all(len(column.codes if name in coded else column) == rows
               for name, column in zip(names, columns))


@pytest.mark.parametrize("out_format", ["csv", "json"])
@pytest.mark.parametrize("cmd,config", CONFIGS)
def test_stdout_holds_the_bytes_of_out(cmd, config, out_format, sample_dir, tmp_path,
                                       capsysbinary):
    # stdout is written through sys.stdout.buffer, as UTF-8 bytes
    rc, out = run(sample_dir, cmd, config, tmp_path, extra=("--format", out_format))
    assert rc == 0
    assert main([cmd, "--config", str(sample_dir / config), "--format", out_format]) == 0
    captured = capsysbinary.readouterr()
    assert captured.out == out.read_bytes() and captured.err == b""


def test_detuning_phase_grid_bytes_match_recorded_digest(sample_dir, tmp_path):
    # off the lock only optimize_phi touched the moments in the samples; this
    # pins variance_spectrum on swept points across a hysteresis pair, two
    # efficiencies, both signs of omega and the phase grid's closed ends
    config = json.loads((sample_dir / "config_spectrum_detuning.json").read_text())
    config["spectrum"]["optimize_phi"] = False
    config["pump"] = {"p_in_w": [0.002, 0.004], "direction": ["down", "up"]}
    config["detection"]["eta"] = [1.0, 0.73]
    config["grid"]["omega_rad_s"] = [-1e9, 0.0, 3e8]
    config["grid"]["phi_lo_rad"] = {"start": -math.pi / 2, "stop": math.pi / 2, "points": 5}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    assert main(["spectrum", "--config", str(path), "--out", str(out)]) == 0
    text = out.read_bytes()
    assert sum(not line.startswith(b"#") for line in text.splitlines()) == 1 + 3120
    assert hashlib.sha256(text).hexdigest() == (
        "ee507f55bb018e21f475dbe222941a02299f9af342350e1ed570d33f98c61b7e")


def test_json_format_matches_csv_values(sample_dir, tmp_path):
    _, c = run(sample_dir, "locking", "config_locking.json", tmp_path, name="x.csv")
    _, j = run(sample_dir, "locking", "config_locking.json", tmp_path, name="x.json",
               extra=("--format", "json"))
    body = json.loads(j.read_text())
    lines = [l for l in c.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    assert body["columns"] == header
    for row, line in zip(body["rows"], lines[1:]):
        for got, text in zip(row, line.split(",")):
            assert got == float(text)


def test_report_csv_flattening(sample_dir, tmp_path):
    _, out = run(sample_dir, "report", "config_report.json", tmp_path,
                 name="r.csv", extra=("--format", "csv"))
    lines = out.read_text().splitlines()
    assert lines[0] == "key,value"
    keys = {l.split(",", 1)[0] for l in lines[1:]}
    assert "drive.sigma_tilde" in keys
    assert "measured.v_as_db" in keys


def _key_value_rows(path):
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["key", "value"]
    assert all(len(row) == 2 for row in rows), [row for row in rows if len(row) != 2]
    return rows[1:]


@pytest.mark.parametrize("cmd,config", [c for c in CONFIGS if c[0] not in _TABLE_COMMANDS])
def test_report_csv_is_two_fields_per_row(cmd, config, sample_dir, tmp_path):
    # a list cell is its JSON text, quoted as RFC 4180 asks, so a CSV reader
    # sees one key and one value on every row
    _, c = run(sample_dir, cmd, config, tmp_path, name="r.csv", extra=("--format", "csv"))
    _, j = run(sample_dir, cmd, config, tmp_path, name="r.json")
    body = json.loads(j.read_text())
    for key, value in _key_value_rows(c):
        node = body
        for part in key.split("."):
            node = node[part]
        if isinstance(node, list):
            assert json.loads(value) == node, key


def test_report_csv_round_trips_a_label_with_comma_and_quotes(tmp_path):
    label = 'fiber, "A"'
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"losses": {"entries": [{"label": label, "loss_db": -1.0}]}}))
    out = tmp_path / "out.csv"
    assert main(["losses", "--config", str(cfg), "--out", str(out), "--format", "csv"]) == 0
    cells = dict(_key_value_rows(out))
    assert json.loads(cells["entries"]) == [{"label": label, "loss_db": -1.0}]


def test_sweep_zero_power_block_is_dark(sample_dir, tmp_path):
    _, out = run(sample_dir, "sweep", "config_sweep.json", tmp_path)
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    n_col = header.index("n_photons")
    t_col = header.index("transmission")
    # rows of the first power block (p_in = 0)
    block = [l for l in lines[1:] if not l.startswith("#")][:352]
    for line in block:
        cells = line.split(",")
        assert float(cells[n_col]) == 0.0
        assert 0.0 <= float(cells[t_col]) <= 1.0


def test_sweep_csv_columns_exact(sample_dir, tmp_path):
    _, out = run(sample_dir, "sweep", "config_sweep.json", tmp_path)
    header = out.read_text().splitlines()[0]
    assert header == (
        "delta_p_rad_s,n_photons,energy_j,delta_cl_rad_s,transmission,"
        "stable,direction,circulating_power_w"
    )


def test_fit_digest_matches_input(sample_dir, tmp_path):
    _, out = run(sample_dir, "fit-transmission", "config_fit_transmission.json",
                 tmp_path)
    body = json.loads(out.read_text())
    digest = hashlib.sha256(
        (sample_dir / "transmission_trace.csv").read_bytes()
    ).hexdigest()
    assert body["input_sha256"] == digest
    assert body["parameters"]["kappa_rad_s"]["value"] == pytest.approx(515e6, rel=1e-6)
    assert body["parameters"]["gamma_rad_s"]["value"] == pytest.approx(192e6, rel=1e-6)


def test_reduce_trace_matches_library_call(sample_dir, tmp_path):
    from kerrsqueeze.cli import read_zero_span_csv
    from kerrsqueeze import reduce_homodyne_trace

    _, out = run(sample_dir, "reduce-trace", "config_reduce_trace.json", tmp_path)
    body = json.loads(out.read_text())
    trace = read_zero_span_csv(sample_dir / "zero_span_trace.csv")
    ref = read_zero_span_csv(sample_dir / "zero_span_reference.csv")
    v_s_db, v_as_db = reduce_homodyne_trace(trace, ref)
    assert body["v_s_db"] == v_s_db
    assert body["v_as_db"] == v_as_db
    assert body["v_s_db"] == pytest.approx(-1.219, abs=0.05)
    assert body["v_as_db"] == pytest.approx(6.89, abs=0.05)


def test_spectrum_locking_grid_matches_closed_forms(sample_dir, tmp_path):
    for config, pairs in (
        ("config_spectrum_locking.json", [("v_ratio", "v_locked_ratio")]),
        ("config_spectrum_optimized.json", [("v_s_ratio", "v_s_locked_ratio"),
                                            ("v_as_ratio", "v_as_locked_ratio")]),
    ):
        _, out = run(sample_dir, "spectrum", config, tmp_path, name=config + ".csv")
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        for col, locked_col in pairs:
            iv = header.index(col)
            il = header.index(locked_col)
            worst = 0.0
            for line in lines[1:]:
                cells = line.split(",")
                v, locked = float(cells[iv]), float(cells[il])
                worst = max(worst, abs(v - locked) / max(locked, 1e-300))
            assert worst < 1e-9, (config, col)


def test_locked_spectrum_takes_any_finite_lo_phase(sample_dir, tmp_path):
    # V is pi-periodic, so each phase is reduced by math.remainder(phi, pi)
    # before cmath.exp; above about 9e307 rad, -2 phi itself is not finite
    reduced = math.remainder(1e300, math.pi)
    phases = sorted([0.0, reduced, 1e300, 1.7e308])
    config = json.loads((sample_dir / "config_spectrum_locking.json").read_text())
    config["grid"]["phi_lo_rad"] = phases
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    assert main(["spectrum", "--config", str(path), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == len(config["pump"]["p_in_w"]) * len(phases)
    for row in rows:
        assert float(row["v_ratio"]) == pytest.approx(float(row["v_locked_ratio"]), rel=1e-12)
    by_phase = {(row["p_in_w"], float(row["phi_lo_rad"])): row for row in rows}
    for p_in in {row["p_in_w"] for row in rows}:
        far, near = by_phase[p_in, 1e300], by_phase[p_in, reduced]
        assert {k: v for k, v in far.items() if k != "phi_lo_rad"} == {
            k: v for k, v in near.items() if k != "phi_lo_rad"}


def test_cli_module_is_not_an_entry(sample_dir):
    # kerrsqueeze.__main__ is the one entry: run as a script, cli.py runs no
    # command and names it, as a usage error
    proc = subprocess.run([sys.executable, "-m", "kerrsqueeze.cli", "losses",
                           "--config", str(sample_dir / "config_losses.json")],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: run the CLI as python -m kerrsqueeze\n"


def test_module_invocation_smoke(sample_dir, tmp_path):
    out = tmp_path / "s.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "kerrsqueeze", "locking",
         "--config", str(sample_dir / "config_locking.json"), "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith("p_in_w,")


# runs the CLI with one package made unimportable
_BLOCKED_MAIN = ("import sys; sys.modules[%r] = None; from kerrsqueeze.cli import main; "
                 "sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("code,cmd,config,out_format", [
    # no subcommand needs scipy: the fits run on the package's own LM solver
    ("import sys, kerrsqueeze, kerrsqueeze.cli; assert 'scipy' not in sys.modules",
     None, None, None),
    # the package namespace is lazy, so the CLI can set BLAS threading first
    ("import sys, kerrsqueeze; assert 'numpy' not in sys.modules", None, None, None),
    # a submodule is an attribute of the package before anything imports it
    ("import sys, kerrsqueeze; assert 'kerrsqueeze.spectrum' not in sys.modules; "
     "assert kerrsqueeze.spectrum is sys.modules['kerrsqueeze.spectrum']", None, None, None),
    # the CLI and steady_state import numpy only where they build arrays, the
    # closed-form modules never, and the float-array cell writer only where it
    # writes a float array
    ("import sys, kerrsqueeze.cli, kerrsqueeze.core, kerrsqueeze.detection, "
     "kerrsqueeze.steady_state; assert 'numpy' not in sys.modules; "
     "assert 'kerrsqueeze._floatrepr' not in sys.modules", None, None, None),
    # with scipy unimportable, fit-transmission still writes the pinned bytes
    (_BLOCKED_MAIN % "scipy", "fit-transmission", "config_fit_transmission.json", None),
    # and with numpy unimportable, so do the closed-form reports and the locking
    # table, in both formats
    (_BLOCKED_MAIN % "numpy", "threshold", "config_threshold.json", None),
    (_BLOCKED_MAIN % "numpy", "report", "config_report.json", None),
    (_BLOCKED_MAIN % "numpy", "losses", "config_losses.json", None),
    (_BLOCKED_MAIN % "numpy", "locking", "config_locking.json", None),
    (_BLOCKED_MAIN % "numpy", "threshold", "config_threshold.json", "csv"),
    (_BLOCKED_MAIN % "numpy", "report", "config_report.json", "csv"),
    (_BLOCKED_MAIN % "numpy", "losses", "config_losses.json", "csv"),
    (_BLOCKED_MAIN % "numpy", "locking", "config_locking.json", "json"),
], ids=["cli-without-scipy", "package-without-numpy", "submodule-as-attribute",
        "cli-without-numpy", "fit-transmission-with-scipy-blocked", "threshold-with-numpy-blocked",
        "report-with-numpy-blocked", "losses-with-numpy-blocked", "locking-with-numpy-blocked",
        "threshold-csv-with-numpy-blocked", "report-csv-with-numpy-blocked",
        "losses-csv-with-numpy-blocked", "locking-json-with-numpy-blocked"])
def test_start_up_does_not_import_scipy(code, cmd, config, out_format, sample_dir, tmp_path):
    # out_format is the other format (--format json for a table, csv for a
    # report), or None for the default
    out = tmp_path / "out.json"
    args = [] if config is None else [cmd, "--config", str(sample_dir / config), "--out", str(out)]
    args += ["--format", out_format] if out_format else []
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    if config is not None:
        digests = OTHER_FORMAT_DIGESTS if out_format else SAMPLE_DIGESTS
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[config]


_SRC = Path(__file__).resolve().parent.parent / "src" / "kerrsqueeze"


def _numpy_imports(tree):
    """The ``import numpy`` and ``from numpy ...`` nodes under an AST node."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy"
                                                    for a in node.names)
            or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"]


def test_only_the_cli_and_steady_state_import_numpy_inside_functions():
    # an array module imports numpy once at its top; only the CLI, which must
    # start without it, and steady_state, whose closed forms the locking
    # command runs without it, import it inside functions
    in_functions = {}
    for path in sorted(_SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and _numpy_imports(fn):
                in_functions.setdefault(path.name, []).append(fn.name)
        if path.name in ("core.py", "errors.py", "detection.py"):
            assert not _numpy_imports(tree), path.name
    assert set(in_functions) == {"cli.py", "steady_state.py"}, in_functions


def test_report_loads_no_array_module(sample_dir, tmp_path):
    # the locked closed forms live in core, so report never reaches spectrum
    code = ("import sys; sys.modules['numpy'] = None; from kerrsqueeze.cli import main; "
            "assert main(sys.argv[1:]) == 0; "
            "print(sorted(m for m in sys.modules if m.startswith('kerrsqueeze.')))")
    proc = subprocess.run([sys.executable, "-c", code, "report", "--config",
                           str(sample_dir / "config_report.json"), "--out", str(tmp_path / "o")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(ast.literal_eval(proc.stdout))
    assert not loaded & {"kerrsqueeze.spectrum", "kerrsqueeze.steady_state"}, loaded


def test_package_namespace_exports_submodule_objects():
    import kerrsqueeze
    for name in kerrsqueeze.__all__:
        module = importlib.import_module(f"kerrsqueeze.{kerrsqueeze._EXPORTS[name]}")
        assert getattr(kerrsqueeze, name) is getattr(module, name), name
        assert name in dir(kerrsqueeze), name
    assert len(kerrsqueeze.__all__) == len(set(kerrsqueeze.__all__)) == 57
    with pytest.raises(AttributeError):
        kerrsqueeze.no_such_name


def _env_without(name, **extra):
    env = {k: v for k, v in os.environ.items() if k != name}
    env.update(extra)
    return env


@pytest.mark.parametrize("extra,expected", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3")],
                         ids=["unset-defaults-to-1", "caller-setting-wins"])
def test_console_entry_module_sets_blas_default_without_running(extra, expected):
    # the installed `kerrsqueeze` script imports kerrsqueeze.__main__ and calls main
    proc = subprocess.run(
        [sys.executable, "-c",
         "import os, kerrsqueeze.__main__; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        capture_output=True, text=True, env=_env_without("OPENBLAS_NUM_THREADS", **extra),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected + "\n"
    assert proc.stderr == ""


# a fresh interpreter running the console entry, with an atexit hook registered first
_ENTRY_MAIN = ("import atexit, sys; atexit.register(print, 'atexit ran'); "
               "from kerrsqueeze.__main__ import main; sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("dev", [False, True], ids=["fast-exit", "dev-mode-finalizes"])
def test_console_entry_exits_without_teardown_outside_dev_mode(dev, sample_dir, tmp_path):
    # main ends the process with os._exit and the CLI's code, so the hook runs
    # only under -X dev, where main returns the code; argparse's SystemExit for
    # a usage error or --help leaves as it always did, through the hook
    config = str(sample_dir / "config_threshold.json")
    out = tmp_path / "out.json"
    for argv, code, through_argparse in [
        (["threshold", "--config", config, "--out", str(out)], 0, False),
        (["threshold", "--config", str(tmp_path / "ghost.json")], 1, False),
        (["threshold"], 2, True),
        (["--help"], 0, True),
    ]:
        proc = subprocess.run(
            [sys.executable, *(["-X", "dev"] if dev else []), "-c", _ENTRY_MAIN, *argv],
            capture_output=True, text=True, env=_env_without("PYTHONUNBUFFERED"))
        assert proc.returncode == code, (argv, proc.stderr)
        ran = proc.stdout.endswith("atexit ran\n")
        assert ran == (dev or through_argparse), (argv, proc.stdout)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SAMPLE_DIGESTS["config_threshold.json"]


@pytest.mark.parametrize("cmd,config", [("sweep", "config_sweep.json"),
                                        ("report", "config_report.json")])
def test_buffered_stdout_through_a_pipe_holds_the_pinned_bytes(cmd, config, sample_dir):
    # on a pipe, without PYTHONUNBUFFERED, stdout is block-buffered: the bytes
    # must be flushed before os._exit ends the process
    proc = subprocess.run([sys.executable, "-m", "kerrsqueeze", cmd, "--config",
                           str(sample_dir / config)],
                          capture_output=True, env=_env_without("PYTHONUNBUFFERED"))
    assert proc.returncode == 0 and proc.stderr == b"", proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == SAMPLE_DIGESTS[config]


@pytest.mark.parametrize("dev", [False, True], ids=["fast-exit", "dev-mode-finalizes"])
@pytest.mark.parametrize("cmd,config", [("locking", "config_locking.json"),
                                        ("sweep", "config_sweep.json")])
def test_a_stdout_reader_that_has_gone_is_one_error_line(cmd, config, dev, sample_dir):
    # the pipe's read end is closed before the CLI starts; the locking table
    # fits stdout's buffer, so the pipe fails only on the flush, and the sweep
    # is larger than the buffer, so it fails on the write
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, *(["-X", "dev"] if dev else []), "-m", "kerrsqueeze", cmd,
             "--config", str(sample_dir / config)],
            stdout=write, stderr=subprocess.PIPE, env=_env_without("PYTHONUNBUFFERED"))
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == b"error: [Errno 32] Broken pipe\n"


def test_cli_bytes_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS splits dot products over 10,000 elements across its threads,
    # so on a multi-core host a long fit's sums change with the thread count
    rng = np.random.default_rng(7)
    freq = np.linspace(-5e9, 5e9, 20_001)
    trans = steady_state.lineshape(freq, 515e6, 192e6) + rng.normal(0.0, 1e-3, freq.size)
    (tmp_path / "t.csv").write_text("delta_p_rad_s,transmission\n" + "".join(
        f"{f!r},{t!r}\n" for f, t in zip(freq.tolist(), trans.tolist())))
    (tmp_path / "c.json").write_text(json.dumps({"fit": {"input": "t.csv"}}))
    outs = []
    for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        proc = subprocess.run(
            [sys.executable, "-m", "kerrsqueeze", "fit-transmission",
             "--config", str(tmp_path / "c.json")],
            capture_output=True, text=True, env=_env_without("OPENBLAS_NUM_THREADS", **extra),
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_fit_of_a_dip_centred_on_a_wide_detuning_axis_has_error_bars(tmp_path):
    # the centre fits to about -6e-6 rad/s, where a step of 1e-6 times it is lost
    # in the rounding of a +-6e7 rad/s axis and leaves its Jacobian column all zeros
    freq = np.linspace(-6e7, 6e7, 21)
    trans = steady_state.lineshape(freq, 2e7, 1e7)
    (tmp_path / "t.csv").write_text("delta_p_rad_s,transmission\n" + "".join(
        f"{f!r},{t!r}\n" for f, t in zip(freq.tolist(), trans.tolist())))
    (tmp_path / "c.json").write_text(json.dumps({"fit": {"input": "t.csv"}}))
    out = tmp_path / "out.json"
    assert main(["fit-transmission", "--config", str(tmp_path / "c.json"), "--out", str(out)]) == 0
    params = json.loads(out.read_text())["parameters"]
    assert params["kappa_rad_s"]["value"] == pytest.approx(2e7, rel=1e-9)
    assert params["gamma_rad_s"]["value"] == pytest.approx(1e7, rel=1e-9)
    assert all(0.0 < p["stderr"] < 1.0 for p in params.values()), params


def test_missing_input_file_named_in_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"fit": {"input": "ghost.csv"}}))
    rc = main(["fit-transmission", "--config", str(cfg)])
    assert rc == 1
    assert "ghost.csv" in capsys.readouterr().err


def test_malformed_csv_cell_reports_line(sample_dir, tmp_path, capsys):
    fit = {"fit": {"input": "t.csv"}}
    trace = {"trace": {"input": str(sample_dir / "zero_span_trace.csv"),
                       "reference": str(sample_dir / "zero_span_reference.csv"),
                       "low_percentile": 50, "high_percentile": 50}}
    spectrum = {"resonator": {"kappa_rad_s": 515e6, "gamma_rad_s": 192e6, "lambda_m": 1.55e-6},
                "pump": {"p_in_w": 1e-3}, "grid": {"omega_rad_s": [0.0, "x"], "phi_lo_rad": 0.0}}
    for cmd, config, text, expected in (
        ("fit-transmission", fit, "delta_p_rad_s,transmission\n0.0,0.5\n1.0,oops\n",
         ("line 3", "oops")),
        ("fit-transmission", fit,
         "# p_in_w=abc\ndelta_p_rad_s,transmission\n0.0,0.5\n1.0,0.4\n",
         ("t.csv", "p_in_w", "abc")),
        ("fit-transmission", fit, "delta_p_rad_s,transmission\n0.0,0.5\n1.0,nan\n",
         ("line 3", "'transmission'", "nan")),
        ("fit-transmission", fit, "delta_p_rad_s,transmission\n-inf,0.5\n1.0,0.4\n",
         ("line 2", "'delta_p_rad_s'", "-inf")),
        ("fit-transmission", fit, "delta_p_rad_s,transmission\n0.0,0.5\n1.0,0.4\n2.0,0.6\n",
         ("at least 4 samples",)),
        ("reduce-trace", trace, "", ("percentiles",)),
        ("spectrum", spectrum, "", ("'grid.omega_rad_s'", "'x'")),
    ):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        (tmp_path / "t.csv").write_text(text)
        rc = main([cmd, "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert all(s in err for s in expected), err


_RESONATOR_JSON = ('"resonator": {"kappa_rad_s": %s, "gamma_rad_s": 192e6, '
                   '"g_opt_rad_s": 1.4, "lambda_m": 1.55e-6}')


@pytest.mark.parametrize("cmd,kappa,p_in,expected", [
    ("report", "NaN", "1e-3", "NaN is not a finite number"),
    ("sweep", "515e6", "Infinity", "Infinity is not a finite number"),
    ("sweep", "515e6", "1e300", "locked photon number is not finite"),
    ("locking", "515e6", "Infinity", "Infinity is not a finite number"),
    ("locking", "515e6", "1e300", "locked photon number is not finite"),
    ("sweep", "515e6", "1e200", "no finite steady state at delta_p = -1000000000.0"),
    ("report", "515e6", "1e160", "its square is not finite"),
    ("report", "515e6", "1e300", "its square is not finite"),
])
def test_non_finite_config_values_are_one_line_errors(cmd, kappa, p_in, expected, tmp_path,
                                                      capsys):
    # json.loads accepts NaN/Infinity literals, 1e300 W overflows the locked
    # photon number, 1e200 W the cubic's g**3 and 1e160 W the square of
    # p_in / p_th; each must fail as a typed error, not emit NaN/inf
    cfg = tmp_path / "c.json"
    cfg.write_text("{" + _RESONATOR_JSON % kappa + ', "pump": {"p_in_w": ' + p_in + "}, "
                   '"grid": {"delta_p_rad_s": [-1e9, 0, 1e9]}}')
    out = tmp_path / "out.txt"
    rc = main([cmd, "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert expected in err, err
    assert not out.exists()


_RESONATOR = {"kappa_rad_s": 515e6, "gamma_rad_s": 192e6, "g_opt_rad_s": 1.4,
              "lambda_m": 1.55e-6}


def _sweep_config(grid, **resonator):
    return {"resonator": {**_RESONATOR, **resonator}, "pump": {"p_in_w": 1e-3},
            "grid": {"delta_p_rad_s": grid}}


_SAMPLES = Path(__file__).resolve().parent.parent / "sample_data"
_ZERO_SPAN = str(_SAMPLES / "zero_span_trace.csv")
_NO_ROOT = "no finite steady state at delta_p = "
_PATH = "expected a file path string, got "
_POINTS = "expected an integer from 1 to 10000000, got "
_NEGATIVE_POWER = "config key 'pump.p_in_w': p_in must be finite and >= 0, got -1.0"


def _sample_with(name, section, key, value):
    """Sample config ``config_<name>.json`` with one key set; its budget path made absolute."""
    cfg = json.loads((_SAMPLES / f"config_{name}.json").read_text())
    cfg.setdefault(section, {})[key] = value
    detection = cfg.get("detection", {})
    if "budget_path" in detection:
        detection["budget_path"] = str(_SAMPLES / detection["budget_path"])
    return cfg


# sample configs whose locked photon number, threshold or locking detuning
# leaves the float range: Python's float ** and / raise OverflowError or
# ZeroDivisionError there, and a product can reach inf or underflow to 0
_LOCKED = "locked photon number is not finite at p_in = "
_LOSS_SQUARED = ("locked photon number is not finite: (kappa + gamma)**2 overflows at "
                 "kappa + gamma = 1e+300 rad/s")
_P_TH = "threshold power out of float range: "
_LOCK_DETUNING = "locking detuning is not finite at p_in = "
_Q_RANGE = "fluctuation system matrix out of float range at omega = "
_MOMENTS = "fluctuation moments not finite at omega = "
_PUMPED = [("sweep", "sweep"), ("locking", "locking"), ("spectrum", "spectrum_detuning"),
           ("spectrum", "spectrum_locking"), ("spectrum", "spectrum_optimized")]
_USES_P_TH = {"threshold", "report", "spectrum_locking", "spectrum_optimized"}
_RANGE = (
    [(cmd, name, "resonator", key, 1e300, _P_TH if name in _USES_P_TH else _LOSS_SQUARED)
     for key in ("kappa_rad_s", "gamma_rad_s")
     for cmd, name in _PUMPED + [("threshold", "threshold"), ("report", "report")]]
    + [(cmd, name, section, key, value, _LOCKED)
       for section, key, value in [("resonator", "lambda_m", 1e300),
                                   ("pump", "omega_p_rad_s", 1e-300)]
       for cmd, name in _PUMPED]
    + [(cmd, name, "resonator", "g_opt_rad_s", 1e300, _P_TH)
       for cmd, name in [("threshold", "threshold"), ("spectrum", "spectrum_locking"),
                         ("spectrum", "spectrum_optimized")]]
    + [(cmd, name, "resonator", key, 1e300, _LOCK_DETUNING)
       for key, cmd, name in [("g_opt_rad_s", "locking", "locking"),
                              ("g_th_rad_s", "locking", "locking"),
                              ("g_th_rad_s", "spectrum", "spectrum_locking"),
                              ("g_th_rad_s", "spectrum", "spectrum_optimized")]]
    # a locked point so strongly driven that |Q|**2 overflows, and a kappa so
    # small that gamma / kappa does and the moments come out NaN
    + [("spectrum", name, section, key, value, expected)
       for section, key, value, expected in [("pump", "p_in_w", [1e150], _Q_RANGE),
                                             ("resonator", "g_opt_rad_s", 1e150, _Q_RANGE),
                                             ("resonator", "lambda_m", 1e150, _Q_RANGE),
                                             ("resonator", "kappa_rad_s", 1e-300, _MOMENTS)]
       for name in ("spectrum_locking", "spectrum_optimized")]
)
_RANGE_CASES = [(cmd, _sample_with(name, section, key, value), expected)
                for cmd, name, section, key, value, expected in _RANGE]
_RANGE_IDS = [f"{name}-{key}-{value!r}" for _, name, _, key, value, _ in _RANGE]
# a boolean key takes a JSON true or false only, not a string, a number or null
_FLAGS = [(cmd, config, section, key, value)
          for cmd, config, section, key in [
              ("spectrum", json.loads((_SAMPLES / "config_spectrum_optimized.json").read_text()),
               "spectrum", "optimize_phi"),
              ("reduce-trace", {"trace": {"input": _ZERO_SPAN, "reference": _ZERO_SPAN}},
               "trace", "detrend")]
          for value in ["false", 0, None]]
_FLAG_CASES = [(cmd, {**config, section: {**config[section], key: value}},
                f"config key '{section}.{key}': expected true or false, got {value!r}")
               for cmd, config, section, key, value in _FLAGS]
_FLAG_IDS = [f"{key}-{value!r}" for _, _, _, key, value in _FLAGS]
_ILL_CONDITIONED = _sample_with("spectrum_optimized", "pump", "p_in_w", [1.144e147])
_ILL_CONDITIONED["resonator"].update(kappa_rad_s=1e80, gamma_rad_s=0.0)
# with kappa = gamma = 0.5 rad/s, (2 omega / Gamma)**2 leaves the float range at
# omega = 8e153 rad/s, where the system matrix is still finite and Python's float
# ** raises OverflowError; both locked layouts compute it
_OMEGA_RANGE = {name: _sample_with(name, "grid", "omega_rad_s", [8e153])
                for name in ("spectrum_locking", "spectrum_optimized")}
for _config in _OMEGA_RANGE.values():
    _config["resonator"].update(kappa_rad_s=0.5, gamma_rad_s=0.5)
_Y_RANGE = "y = 1 + (2w/Gamma)^2 out of float range at omega = 8e+153 rad/s"
# locked at 476207.6 P_th with gamma = 0, v_min cancels below 0 at omega = 0, a
# dB error, and omega = 1e160 is out of the matrix's range: the first row's wins
_DB_FIRST = {"resonator": {"kappa_rad_s": 5e8, "gamma_rad_s": 0.0, "g_opt_rad_s": 1.5,
                           "lambda_m": 1.55e-6},
             "pump": {"p_in_w": [1271.4524376118627]},
             "spectrum": {"mode": "locking", "optimize_phi": True},
             "grid": {"omega_rad_s": [0.0, 1e160]}}
# locked with kappa = 1 rad/s and gamma = 0, v_min rounds to 0.0 at omega = 0, a
# dB error, and y overflows at omega = 8e153 rad/s: the row that comes first
# in the output wins, and at a phase grid's omega = 0 no ratio fails
_CANCELLING = {"resonator": {"kappa_rad_s": 1.0, "gamma_rad_s": 0.0, "g_opt_rad_s": 1.5,
                             "lambda_m": 1.55e-6},
               "pump": {"p_in_w": [5.0835926205566366e-15]}}
_OPTIMIZED = {"mode": "locking", "optimize_phi": True}
_DB_BEFORE_Y = {**_CANCELLING, "spectrum": _OPTIMIZED, "grid": {"omega_rad_s": [0.0, 8e153]}}
_Y_BEFORE_DB = {**_CANCELLING, "spectrum": _OPTIMIZED, "grid": {"omega_rad_s": [8e153, 0.0]}}
_Y_PHASE_GRID = {**_CANCELLING, "spectrum": {"mode": "locking"},
                 "grid": {"omega_rad_s": [0.0, 8e153], "phi_lo_rad": [-0.7, 0.0, 0.3]}}


@pytest.mark.parametrize("cmd,config,expected", [
    ("sweep", _sweep_config({"start": -1e300, "stop": 1e300, "points": 5}), _NO_ROOT + "-1e+300"),
    ("sweep", _sweep_config([-1e9, 0.0, 1e9], g_opt_rad_s=1e300), _NO_ROOT + "-1000000000.0"),
    ("spectrum", {"resonator": _RESONATOR, "pump": {"p_in_w": 1e-3, "direction": "up"},
                  "spectrum": {"mode": "detuning"},
                  "grid": {"delta_p_rad_s": {"start": 0.0, "stop": 1e300, "points": 3},
                           "omega_rad_s": 1e8, "phi_lo_rad": 0.0}}, _NO_ROOT + "5e+299"),
    ("fit-transmission", {"fit": {"input": True}}, "'fit.input': " + _PATH + "True"),
    ("fit-dispersion", {"dispersion": {"input": 0}}, "'dispersion.input': " + _PATH + "0"),
    ("reduce-trace", {"trace": {"input": -1, "reference": _ZERO_SPAN}},
     "'trace.input': " + _PATH + "-1"),
    ("reduce-trace", {"trace": {"input": _ZERO_SPAN, "reference": ["a.csv"]}},
     "'trace.reference': " + _PATH + "['a.csv']"),
    ("report", {"resonator": _RESONATOR, "pump": {"p_in_w": 1e-3},
                "detection": {"budget_path": 0}}, "'detection.budget_path': " + _PATH + "0"),
    ("losses", {"losses": {"budget_path": {}}}, "'losses.budget_path': " + _PATH + "{}"),
    ("sweep", _sweep_config({"start": 0.0, "stop": 1.0, "points": 10_000_001}),
     _POINTS + "10000001"),
    ("sweep", _sweep_config({"start": 0.0, "stop": 1.0, "points": 10**400}), _POINTS + "1000"),
    # finite roots, but delta_cl * delta_cl overflows in the transmission
    ("sweep", _sweep_config([-1e155, 0.0, 1e155]),
     "transmission not finite at delta_p = -1e+155 rad/s"),
    # the pump frequency overflows to inf, which the pump rule rejects (not n = 0)
    ("sweep", _sample_with("sweep", "resonator", "lambda_m", 1e-300),
     "omega_p must be finite, got inf"),
    ("sweep", _sample_with("sweep", "resonator", "n_eff", 1e-300),
     "circulating_power_w not finite at delta_p = -30000000000.0 rad/s"),
    # a negative power, in a list or alone, fails the one pump power rule
    ("sweep", _sample_with("sweep", "pump", "p_in_w", [0.004, -1]), _NEGATIVE_POWER),
    ("report", _sample_with("report", "pump", "p_in_w", -1), _NEGATIVE_POWER),
    # locked at 1e7 P_th the matrix is as ill-conditioned as at kappa 5e8, but
    # |Q|^4 overflows; the condition check must still fire
    pytest.param("spectrum", _ILL_CONDITIONED, "fluctuation system matrix is ill-conditioned",
                 marks=pytest.mark.filterwarnings("ignore::kerrsqueeze.LinearizationWarning")),
    ("spectrum", _OMEGA_RANGE["spectrum_locking"], _Y_RANGE),
    pytest.param("spectrum", _OMEGA_RANGE["spectrum_optimized"], _Y_RANGE,
                 marks=pytest.mark.filterwarnings("ignore::kerrsqueeze.LinearizationWarning")),
    pytest.param("spectrum", _DB_FIRST,
                 "ratio must be finite and > 0 for dB conversion, got -0.000244140625",
                 marks=pytest.mark.filterwarnings("ignore::kerrsqueeze.LinearizationWarning")),
] + [pytest.param("spectrum", config, expected,
                  marks=pytest.mark.filterwarnings("ignore::kerrsqueeze.LinearizationWarning"))
      for config, expected in [
          (_DB_BEFORE_Y, "ratio must be finite and > 0 for dB conversion, got 0.0"),
          (_Y_BEFORE_DB, _Y_RANGE), (_Y_PHASE_GRID, _Y_RANGE)]
] + _RANGE_CASES + _FLAG_CASES, ids=["grid-1e300", "g_opt-1e300", "spectrum-grid-1e300", "fit.input",
                       "dispersion.input", "trace.input", "trace.reference",
                       "detection.budget_path", "losses.budget_path", "points-10_000_001",
                       "points-10**400", "grid-1e155", "sweep-lambda_m-1e-300",
                       "sweep-n_eff-1e-300", "sweep-p_in_w--1", "report-p_in_w--1",
                       "spectrum_optimized-kappa-1e80", "spectrum_locking-omega-8e153",
                       "spectrum_optimized-omega-8e153", "spectrum_optimized-db-before-1e160",
                       "db-before-y", "y-before-db", "phase-grid-y"]
                      + _RANGE_IDS + _FLAG_IDS)
def test_out_of_range_configs_are_one_line_errors(cmd, config, expected, tmp_path, capsys):
    # inputs whose steady state, transmission, locked point, threshold, path
    # or grid size the program cannot use end in one typed error, not a
    # traceback, non-finite output, an empty list or a huge allocation
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.txt"
    rc = main([cmd, "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert expected in err, err
    assert not out.exists()


def test_overflowing_grid_span_is_one_line_in_a_subprocess(tmp_path):
    # in process pytest records warnings, so only a subprocess shows what the
    # user sees: np.linspace over a span that overflows warns unless silenced
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_sweep_config({"start": -1.7e308, "stop": 1.7e308, "points": 5})))
    proc = subprocess.run([sys.executable, "-m", "kerrsqueeze", "sweep", "--config", str(cfg)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr == "error: config key 'grid.delta_p_rad_s': grid must be finite\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("cmd,name", [("sweep", "sweep"), ("spectrum", "spectrum_detuning")])
def test_an_empty_direction_list_is_one_line_error(cmd, name, tmp_path, capsys):
    # like an empty p_in_w: sweep died in np.concatenate with a traceback, and
    # a detuning spectrum wrote a table of no rows
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_sample_with(name, "pump", "direction", [])))
    out = tmp_path / "out.csv"
    err = _one_line_error([cmd, "--config", str(cfg), "--out", str(out)], capsys)
    assert err == "error: config key 'pump.direction': must not be empty\n"
    assert not out.exists()


_NO_RESONANCE = ("config: pump.omega_p_rad_s missing and resonator has no lambda_m / "
                 "omega_r_rad_s to fall back on")
_BUDGET_LIST = "expected a list of {label, loss_db} entries"


@pytest.mark.parametrize("cmd,config,files,message", [
    ("threshold", [_RESONATOR], {}, "config <cfg>: top level must be an object"),
    ("threshold", {"resonator": [515e6, 192e6]}, {}, "config key 'resonator': expected an object"),
    ("threshold", {"resonator": {"gamma_rad_s": 192e6}}, {},
     "config key 'resonator.kappa_rad_s': missing"),
    ("sweep", {"resonator": _RESONATOR, "pump": {"omega_p_rad_s": 1.2e15},
               "grid": {"delta_p_rad_s": [0.0]}}, {}, "config key 'pump.p_in_w': missing"),
    ("sweep", _sample_with("sweep", "pump", "direction", ["down", "sideways"]), {},
     "config key 'pump.direction': direction must be 'up' or 'down', got 'sideways'"),
    ("losses", {"losses": {"budget": []}}, {},
     "config key 'losses': need 'budget_path' or 'entries'"),
    ("report", {"resonator": _RESONATOR, "pump": {"p_in_w": 1e-3},
                "detection": {"budget": []}}, {},
     "config key 'detection': need 'eta', 'budget_path' or 'entries'"),
    ("threshold", {"resonator": {"kappa_rad_s": 515e6, "gamma_rad_s": 192e6}}, {},
     _NO_RESONANCE),
    ("fit-transmission", {"fit": {"input": "t.csv"}},
     {"t.csv": "# p_in_w=0.0\n\ndelta_p_rad_s,transmission\n\n"}, "t.csv: no data rows"),
    ("losses", {"losses": {"entries": {"label": "chip", "loss_db": -1.0}}}, {},
     "losses.entries: " + _BUDGET_LIST),
    ("losses", {"losses": {"budget_path": "b.json"}}, {"b.json": "{}"}, "b.json: " + _BUDGET_LIST),
    ("spectrum", _sample_with("spectrum_locking", "spectrum", "mode", "sideband"), {},
     "config key 'spectrum.mode': expected 'locking' or 'detuning', got 'sideband'"),
    ("fit-transmission", {"fit": {"input": str(_SAMPLES / "transmission_trace.csv"),
                                  "coupling_regime": "critical"}}, {},
     "config key 'fit.coupling_regime': expected 'over' or 'under'"),
    ("losses", {"losses": {"entries": [{"label": None, "loss_db": -1.0}]}}, {},
     "losses.entries: entry 0: 'label' must be a string, got None"),
    ("losses", {"losses": {"budget_path": "b.json"}},
     {"b.json": '[{"label": "chip", "loss_db": -1.0}, {"label": [1, 2], "loss_db": -0.5}]'},
     "b.json: entry 1: 'label' must be a string, got [1, 2]"),
    ("fit-dispersion", {"dispersion": {"input": "r.csv"}},
     {"r.csv": "mu,omega_rad_s\n0,1.0e15\n1.5,1.1e15\n2,1.2e15\n"},
     "r.csv: column 'mu': mode numbers must be integers"),
    # a control character in a message is shown as \xNN, so the error stays one line
    ("fit-dispersion", {"dispersion": {"input": "a\nb.csv"}}, {},
     "config key 'dispersion.input': file not found: a\\x0ab.csv"),
    ("fit-dispersion", {"dispersion": {"input": "a\rb.csv"}}, {},
     "config key 'dispersion.input': file not found: a\\x0db.csv"),
    ("reduce-trace", {"trace": {"input": _ZERO_SPAN, "reference": "r\0.csv"}}, {},
     "config key 'trace.reference': file not found: r\\x00.csv"),
    ("losses", {"losses": {"budget_path": "b\0.json"}}, {},
     "config key 'losses.budget_path': file not found: b\\x00.json"),
    ("threshold", None, {}, "config file not found: <tmp>/c\\x0a.json"),
], ids=["top-level-list", "section-list", "missing-number", "missing-number-list",
        "unknown-direction", "losses-without-budget", "detection-without-source",
        "no-resonance", "header-without-rows", "entries-not-a-list", "budget-file-not-a-list",
        "unknown-spectrum-mode", "unknown-coupling-regime", "null-label", "list-label-in-file",
        "fractional-mode-number", "newline-in-input", "cr-in-input", "nul-in-reference",
        "nul-in-budget-path", "newline-in-config-argument"])
def test_input_rules_are_exact_one_line_errors(cmd, config, files, message, tmp_path, capsys):
    # a config of None is not written, and --config names it with a newline
    cfg = tmp_path / ("c.json" if config is not None else "c\n.json")
    if config is not None:
        cfg.write_text(json.dumps(config))
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    err = _one_line_error([cmd, "--config", str(cfg)], capsys)
    assert err == f"error: {message.replace('<cfg>', str(cfg)).replace('<tmp>', str(tmp_path))}\n"


def test_blank_csv_lines_change_no_output_byte(sample_dir, tmp_path):
    # empty and whitespace-only lines anywhere in an input CSV are skipped
    lines = (sample_dir / "transmission_trace.csv").read_text().splitlines()
    spaced = tmp_path / "transmission_trace.csv"
    spaced.write_text("\n" + "".join(f"{line}\n \t\n\n" for line in lines))
    config = tmp_path / "config_fit_transmission.json"
    config.write_bytes((sample_dir / config.name).read_bytes())
    _, want = run(sample_dir, "fit-transmission", config.name, tmp_path, name="want.json")
    _, got = run(tmp_path, "fit-transmission", config.name, tmp_path, name="got.json")
    sha = [hashlib.sha256(p.read_bytes()).hexdigest()
           for p in (sample_dir / spaced.name, spaced)]
    assert sha[0] != sha[1]
    assert got.read_bytes() == want.read_bytes().replace(sha[0].encode(), sha[1].encode())


def test_a_repeated_json_key_is_one_line_error(tmp_path, capsys):
    # json.loads alone keeps a repeated key's last value, so the first config
    # would run threshold with g_opt = 0.0 and write p_th_w null
    cfg = tmp_path / "c.json"
    (tmp_path / "b.json").write_text('[{"label": "chip", "loss_db": -1.0, "label": "lens"}]')
    for cmd, text, where, key in [
        ("threshold", '{"resonator": {"kappa_rad_s": 515e6, "gamma_rad_s": 192e6, '
         '"g_opt_rad_s": 1.4, "lambda_m": 1.55e-6, "g_opt_rad_s": 0.0}}', f"config {cfg}",
         "g_opt_rad_s"),
        ("threshold", '{"resonator": {}, "resonator": {"kappa_rad_s": 515e6, '
         '"gamma_rad_s": 192e6}}', f"config {cfg}", "resonator"),
        ("losses", '{"losses": {"entries": [{"label": "chip", "loss_db": -1.0, '
         '"loss_db": 0.0}]}}', f"config {cfg}", "loss_db"),
        ("losses", '{"losses": {"budget_path": "b.json"}}', "b.json", "label"),
    ]:
        cfg.write_text(text)
        err = _one_line_error([cmd, "--config", str(cfg)], capsys)
        assert err == f"error: {where}: duplicate key {key!r}\n"


@pytest.mark.parametrize("line,message", [
    ("# p_in_w=-1.0", "p_in must be finite and >= 0, got -1.0"),
    ("# direction=sideways", "direction must be 'up' or 'down', got 'sideways'"),
])
def test_transmission_pump_metadata_is_checked_on_reading(line, message, sample_dir, tmp_path,
                                                          capsys):
    # the linear fit does not use the pump fields, so only the reader rejects them
    trace = tmp_path / "t.csv"
    trace.write_text((sample_dir / "transmission_trace.csv").read_text() + line + "\n")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"fit": {"input": "t.csv"}}))
    err = _one_line_error(["fit-transmission", "--config", str(cfg)], capsys)
    assert err == f"error: t.csv: {message}\n"


@pytest.mark.parametrize("value", [0, -2.25e-5])
@pytest.mark.parametrize("key,field", [("radius_m", "radius"), ("n_eff", "n_eff")])
def test_non_positive_ring_size_is_one_line_error(key, field, value, tmp_path, capsys):
    # the free spectral range divides by both; zero raised ZeroDivisionError
    # and a negative value wrote negative circulating powers
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_sample_with("sweep", "resonator", key, value)))
    out = tmp_path / "out.csv"
    rc = main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: config key 'resonator': {field} must be > 0, got {float(value)}\n")
    assert not out.exists()


def test_reduce_trace_out_of_range_level_is_one_line_error(tmp_path, capsys):
    # 40000 dBm over a -60 dBm reference is 10**4006 as a power ratio
    meta = "# center_hz=100000000.0\n# rbw_hz=300000.0\n# vbw_hz=300.0\nt_s,power_dbm\n"
    (tmp_path / "t.csv").write_text(meta + "0.0,40000.0\n")
    (tmp_path / "r.csv").write_text(meta + "0.0,-60.0\n")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"trace": {"input": "t.csv", "reference": "r.csv"}}))
    out = tmp_path / "out.txt"
    rc = main(["reduce-trace", "--config", str(cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: power ratio of 40060.0 dB is not finite\n", err
    assert not out.exists()


def test_detuning_spectrum_sweeps_once_per_power_and_direction(tmp_path, monkeypatch):
    calls = []
    real_sweep = steady_state.sweep

    def counting_sweep(params, pump):
        calls.append((pump.p_in, pump.direction))
        return real_sweep(params, pump)

    monkeypatch.setattr(steady_state, "sweep", counting_sweep)
    config = {"resonator": _RESONATOR,
              "pump": {"p_in_w": [1e-3, 2e-3], "direction": ["up", "down"]},
              "detection": {"eta": [1.0, 0.5]}, "spectrum": {"mode": "detuning"},
              "grid": {"delta_p_rad_s": [-2e9, 0.0, 1e9], "omega_rad_s": 1e8,
                       "phi_lo_rad": 0.0}}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    assert calls == [(1e-3, "up"), (1e-3, "down"), (2e-3, "up"), (2e-3, "down")]
    # rows stay eta-major: every trace once per efficiency
    lead = [line.split(",")[:3] for line in out.read_text().splitlines()[1:]]
    assert [row[0] for row in lead] == ["1.0"] * 12 + ["0.5"] * 12
    assert lead[:12] == [["1.0"] + row[1:] for row in lead[12:]]


def test_locking_spectrum_locks_each_power_once(tmp_path, monkeypatch):
    calls = []
    real_lock = steady_state.injection_locking_point

    def counting_lock(params, p_in, omega_p=None):
        calls.append(p_in)
        return real_lock(params, p_in, omega_p)

    monkeypatch.setattr(steady_state, "injection_locking_point", counting_lock)
    config = {"resonator": _RESONATOR, "pump": {"p_in_w": [1e-3, 2e-3, 3e-3]},
              "detection": {"eta": [1.0, 0.5]}, "spectrum": {"mode": "locking"},
              "grid": {"omega_rad_s": [0.0, 1e8], "phi_lo_rad": 0.0}}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    assert calls == [1e-3, 2e-3, 3e-3]
    # rows stay eta-major, then power, then omega
    lead = [line.split(",")[:3] for line in out.read_text().splitlines()[1:]]
    assert lead == [[eta, p, w] for eta in ("1.0", "0.5") for p in ("0.001", "0.002", "0.003")
                    for w in ("0.0", "100000000.0")]


@pytest.mark.parametrize("cmd,keys", [("threshold", ["p_th_w"]),
                                      ("report", ["p_th_model_w", "p_th_w"])])
def test_absent_threshold_is_null(cmd, keys, tmp_path):
    # without Kerr gain there is no threshold; JSON has no Infinity, so the
    # report writes null there, and the key,value CSV writes null as well
    cfg = _sample_with(cmd, "resonator", "g_opt_rad_s", 0.0)
    cfg.get("report", {}).pop("p_th_w", None)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.json"
    assert main([cmd, "--config", str(path), "--out", str(out)]) == 0
    body = json.loads(out.read_text())
    assert [body[k] for k in keys] == [None] * len(keys)
    assert main([cmd, "--config", str(path), "--out", str(out), "--format", "csv"]) == 0
    assert [f"{k},null" for k in keys] == [line for line in out.read_text().splitlines()
                                           if line.split(",")[0] in keys]


def test_threshold_without_a_resonance_has_a_null_quality_factor(tmp_path):
    # the pump frequency is given, so the threshold needs no resonance, but
    # the loaded Q does
    cfg = {"resonator": {"kappa_rad_s": 515e6, "gamma_rad_s": 192e6, "g_opt_rad_s": 1.4},
           "pump": {"omega_p_rad_s": 1.2e15}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.json"
    assert main(["threshold", "--config", str(path), "--out", str(out)]) == 0
    body = json.loads(out.read_text())
    assert body["quality_factor"] is None and body["omega_p_rad_s"] == 1.2e15
    assert main(["threshold", "--config", str(path), "--out", str(out), "--format", "csv"]) == 0
    assert "quality_factor,null" in out.read_text().splitlines()


def test_report_phase_at_a_tiny_drive_ratio_is_minus_pi_over_4(tmp_path):
    # below a drive ratio of about 1e-16 the optimal phase rounds to the closed end
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_sample_with("report", "pump", "p_in_w", 1e-20)))
    out = tmp_path / "out.json"
    assert main(["report", "--config", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["drive"]["phi_opt_rad"] == -math.pi / 4


def test_report_lists_each_warning_once(tmp_path):
    # the chip and the measured locked variances warn alike near threshold
    cfg = _sample_with("report", "pump", "p_in_w", 0.1)
    cfg["detection"] = {"eta": 0.5}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out.json"
    assert main(["report", "--config", str(path), "--out", str(out)]) == 0
    caught = json.loads(out.read_text())["warnings"]
    assert len(caught) == 1 and "x = 0.9969" in caught[0]


@pytest.mark.parametrize("section,key,values,message", [
    ("pump", "p_in_w", [0.00759, 0.5], "config key 'pump.p_in_w': report takes one power, got 2"),
    ("detection", "eta", [0.3, 0.9, 1.0], "config key 'detection.eta': report takes one eta, got 3"),
])
def test_report_refuses_more_than_one_operating_point(section, key, values, message,
                                                      tmp_path, capsys):
    cfg = _sample_with("report", section, key, values)  # an eta takes the budget's place
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["report", "--config", str(path), "--out", str(tmp_path / "o.json")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    # a list of one entry is the number it holds
    cfg[section][key] = values[:1]
    path.write_text(json.dumps(cfg))
    assert main(["report", "--config", str(path), "--out", str(tmp_path / "o.json")]) == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_output_never_holds_non_finite_numbers(bad):
    # json.dumps would write the invalid tokens NaN and Infinity
    with pytest.raises(ModelError, match="output is not valid JSON"):
        render_json({"a": [1.0, bad]})
    with pytest.raises(ModelError, match="output is not valid JSON"):
        render_json({"a": {"b": bad}})
