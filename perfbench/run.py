#!/usr/bin/env python3
"""kerrsqueeze benchmark: four workloads, end-to-end and per-layer metrics.

Usage, from any directory:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program under test is the checkout's own ``src/kerrsqueeze``; nothing is
installed and no file of it is edited. One closed-loop client in this
process starts the next CLI subprocess (or, for ``fit-shift``, the worker's
next library call) only after the previous one returned, so at most one
child runs at a time. Children are reaped with ``os.wait4``, which gives the
wall time, CPU time and peak RSS of each. Inputs are generated from
``--seed`` into ``.bench_build/`` and removed at exit.

Workloads, each a fixed list of operations run in turn until ``--seconds``
have passed and every operation ran at least once:

* ``cli-samples``: each sample config in ``sample_data`` through
  ``python -m kerrsqueeze``, a fresh interpreter per run. Set-up dominates;
  outputs must match the SHA-256 digests in ``sample_digests.json``.
* ``sweep-hysteresis``: one CLI ``sweep`` over a dense detuning grid through
  the bistable window, two powers, both directions, circulating power, CSV.
  Branch continuation and CSV rendering dominate; outputs must satisfy the
  steady-state cubic, keep transmission in [0, 1] and on the hot-cavity
  lineshape, and agree between directions outside the bistable window.
* ``spectrum-locking``: one CLI ``spectrum`` in locking mode over
  powers x omega x phi, CSV. Fluctuation moments and CSV rendering dominate;
  ``v_ratio`` must match the closed-form ``v_locked_ratio`` column.
* ``fit-shift``: ``characterize.fit_shift_coefficient`` in a worker process
  on seeded noisy 3-power traces, many small sweeps inside scipy's solver;
  the median relative error against the true shift must stay below 5%.

``BENCHMARK.json`` gates ``cli-samples`` and ``sweep-hysteresis`` only: on
a 2-core host with bursty neighbour load, two workloads are what fit runs long
enough for steady medians; the other two are run by hand.

The seed draws the fit-shift noise and jitters the grid endpoints of the two
scaled CLI workloads; it never reaches the package except through the
generated config and trace files.

With ``--trace 0`` the last line carries the end-to-end metrics: ``setup_s``
(median wall time of fresh interpreters running ``import kerrsqueeze.cli``,
one before each cycle of operations),
``wall_s`` and ``cpu_s`` (one pass over the workload's operations, the sum of
each operation's median), ``peak_rss_mb`` and ``items_per_s`` (invocations,
grid points, rows or fits per second of ``wall_s``). With ``--trace 1``
operations alternate between untraced and traced runs, and the last line
carries per-layer self times and counts per pass, from ``tracer.py`` and
``python -X importtime``. Every metric, with the workload's own names such
as ``points_per_s``, its unit and direction, is printed above the last line.
Failed operations (non-zero exit, traceback on stderr, unparsable or wrong
output, output bytes that change between runs) count in ``failed``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

HBAR = 1.054571817e-34
C_VACUUM = 2.99792458e8
OMEGA_P = 2.0 * math.pi * C_VACUUM / 1.55e-6

CHILD_TIMEOUT_S = 150.0
# fit-shift runs its worker in this many segments, each after a set-up probe
FIT_SEGMENTS = 5

# Operation sizes. Each scaled CLI operation takes seconds, so it averages
# over the host's short load bursts and a run still holds many of them; the
# smallest sizes serve the self-test.
SIZES = {"sweep_points": 30000, "spectrum_omega": 300, "spectrum_phi": 50, "fit_sets": 8}
SMALLEST = {"sweep_points": 200, "spectrum_omega": 4, "spectrum_phi": 5, "fit_sets": 2}

SWEEP_RESONATOR = {"kappa_rad_s": 500e6, "gamma_rad_s": 50e6, "g_opt_rad_s": 1.5,
                   "g_th_rad_s": 100.0, "lambda_m": 1.55e-6, "radius_m": 22.5e-6,
                   "n_eff": 2.05}
SWEEP_POWERS = [0.002, 0.004]
SPECTRUM_RESONATOR = {"kappa_rad_s": 515e6, "gamma_rad_s": 192e6, "g_opt_rad_s": 1.4,
                      "lambda_m": 1.55e-6}
SPECTRUM_POWERS = [0.001, 0.002, 0.003, 0.004, 0.005, 0.006, 0.007]
# criterion-09 shape: 120 points, 1/2/4 mW, 1% multiplicative noise
FIT_TRUE_G = 1.6
FIT_KAPPA, FIT_GAMMA = 500e6, 50e6
FIT_POWERS = (1e-3, 2e-3, 4e-3)
FIT_GRID = (-6e9, 2e9, 120)
FIT_NOISE = 0.01
FIT_MAX_MEDIAN_ERR = 0.05

# counts that must repeat exactly between traced runs of one operation
EXACT_COUNTS = ("cli.rows", "cli.bytes_out", "steady_state.points",
                "hysteresis.differ", "hysteresis.points", "characterize.model_sweeps")


class SetupError(Exception):
    """The program could not be started at all."""


@dataclass
class Sample:
    """One timed operation: a CLI child, or one fit in the worker."""

    op: int
    traced: bool
    wall: float
    cpu: float
    rss_kb: int
    failure: Optional[str] = None
    layers: Optional[dict] = None


# ---------------------------------------------------------------------------
# children

def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv: Sequence[str], stdout: Path, stderr: Path) -> Tuple[float, float, int, int]:
    """(wall s, user+sys CPU s, peak RSS KiB, exit code) of one child."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(list(argv), stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, cwd=ROOT, env=child_env())
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode


def child_failure(code: int, stderr: str) -> Optional[str]:
    if code != 0:
        last = stderr.strip().splitlines()[-1:] or [""]
        return f"exit code {code}: {last[0][:200]}"
    if "Traceback (most recent call last)" in stderr:
        return "traceback on stderr"
    return None


def probe_setup(workdir: Path, trace: bool):
    """One fresh interpreter running ``import kerrsqueeze.cli``: its wall
    time, or with ``trace`` its ``-X importtime`` breakdown."""
    argv = [sys.executable] + (["-X", "importtime"] if trace else []) + [
        "-c", "import kerrsqueeze.cli"]
    err = workdir / "setup.err"
    wall, _, _, code = run_child(argv, workdir / "setup.out", err)
    text = err.read_text(errors="replace")
    if code != 0:
        raise SetupError("`import kerrsqueeze.cli` failed: " + text[-500:])
    return parse_importtime(text) if trace else wall


def parse_importtime(text: str) -> Dict[str, float]:
    """Import seconds from ``python -X importtime`` output.

    scipy_s and numpy_s are the cumulative times of import subtrees rooted at
    a scipy or numpy module (numpy pulled in by scipy counts as scipy);
    total_s covers the kerrsqueeze subtrees, kerrsqueeze_self_s the package's
    own module bodies.
    """
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        head, cum_us, name = line.split("|", 2)
        try:
            self_s = int(head.split(":")[-1]) * 1e-6
            cum_s = int(cum_us) * 1e-6
        except ValueError:
            continue  # the header line
        rows.append((len(name) - len(name.lstrip()), name.strip(), self_s, cum_s))
    out = {"total_s": 0.0, "scipy_s": 0.0, "numpy_s": 0.0, "kerrsqueeze_self_s": 0.0}

    def root(name: str) -> str:
        return name.split(".")[0]

    # lines come children first; reversed, each parent precedes its children
    ancestors: List[Tuple[int, str]] = []
    for depth, name, self_s, cum_s in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        above = {root(n) for _, n in ancestors}
        top = root(name)
        if top == "kerrsqueeze":
            out["kerrsqueeze_self_s"] += self_s
            if "kerrsqueeze" not in above:
                out["total_s"] += cum_s
        elif top == "scipy" and "scipy" not in above:
            out["scipy_s"] += cum_s
        elif top == "numpy" and not above & {"numpy", "scipy"}:
            out["numpy_s"] += cum_s
        ancestors.append((depth, name))
    return out


# ---------------------------------------------------------------------------
# output checks

def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv_blocks(text: str) -> Tuple[List[str], List[Tuple[Dict[str, str], List[List[str]]]]]:
    """Header and the row blocks that follow each run of '#' metadata lines."""
    lines = text.splitlines()
    if not lines or lines[0].startswith("#"):
        raise ValueError("no CSV header")
    header = lines[0].split(",")
    blocks: List[Tuple[Dict[str, str], List[List[str]]]] = [({}, [])]
    for line in lines[1:]:
        if line.startswith("#"):
            if blocks[-1][1]:
                blocks.append(({}, []))
            key, _, value = line.lstrip("# ").partition("=")
            blocks[-1][0][key] = value
        else:
            cells = line.split(",")
            if len(cells) != len(header):
                raise ValueError(f"row with {len(cells)} cells under {len(header)} columns")
            blocks[-1][1].append(cells)
    return header, [b for b in blocks if b[1]]


def scaled_discriminant(g: float, d: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Discriminant of g^2 u^3 + 2 g d u^2 + (1/4 + d^2) u - 1/4 and its scale."""
    a, b, c, e = g * g, 2.0 * g * d, 0.25 + d * d, -0.25
    terms = (18.0 * a * b * c * e, -4.0 * b**3 * e, b * b * c * c,
             -4.0 * a * c**3, -27.0 * a * a * e * e)
    return sum(terms), sum(np.abs(t) for t in terms)


def hysteresis_counts(text: str) -> Tuple[int, int]:
    """(grid points where the up and down rows differ, grid points), per power."""
    header, blocks = read_csv_blocks(text)
    if "direction" not in header:
        return 0, 0
    n_col, dir_col = header.index("n_photons"), header.index("direction")
    differ = points = 0
    for _, rows in blocks:
        up = [r[n_col] for r in rows if r[dir_col] == "up"]
        down = [r[n_col] for r in rows if r[dir_col] == "down"]
        if up and len(up) == len(down):
            differ += sum(float(a) != float(b) for a, b in zip(up, down))
            points += len(up)
    return differ, points


def check_sweep(path: Path, grid: np.ndarray) -> Optional[str]:
    """Steady-state invariants of a two-direction sweep output."""
    res = SWEEP_RESONATOR
    kappa, gamma = res["kappa_rad_s"], res["gamma_rad_s"]
    g_sum = res["g_opt_rad_s"] + res["g_th_rad_s"]
    loss = kappa + gamma
    header, blocks = read_csv_blocks(path.read_text())
    want = ["delta_p_rad_s", "n_photons", "energy_j", "delta_cl_rad_s", "transmission",
            "stable", "direction", "circulating_power_w"]
    if header != want:
        return f"unexpected columns {header}"
    if len(blocks) != len(SWEEP_POWERS):
        return f"{len(blocks)} power blocks, expected {len(SWEEP_POWERS)}"
    for (meta, rows), p_in in zip(blocks, SWEEP_POWERS):
        if float(meta.get("p_in_w", "nan")) != p_in:
            return f"power block labelled {meta}, expected p_in_w={p_in}"
        if len(rows) != 2 * grid.size:
            return f"{len(rows)} rows at p_in_w={p_in}, expected {2 * grid.size}"
        cols = list(zip(*rows))
        dp, n, dcl, trans = (np.array(cols[i], dtype=float) for i in (0, 1, 3, 4))
        dirs = cols[6]
        if dirs != ("down",) * grid.size + ("up",) * grid.size:
            return "direction blocks not in config order (down, up)"
        if not np.all(np.isfinite(np.stack([dp, n, dcl, trans]))):
            return "non-finite value in sweep output"
        if np.any(dp != np.tile(grid, 2)):
            return "delta_p column differs from the configured grid"
        drive = kappa * p_in / (HBAR * OMEGA_P)
        dcl_model = dp + g_sum * n
        scale = np.maximum(np.abs(dp), g_sum * n)
        if np.any(np.abs(dcl - dcl_model) > 1e-12 * scale):
            return "delta_cl != delta_p + (g_opt + g_th) * n"
        resid = np.abs(n * (loss * loss / 4.0 + dcl_model**2) - drive) / drive
        if resid.max() > 1e-9:
            return f"steady-state cubic residual {resid.max():.3g} > 1e-9"
        if trans.min() < 0.0 or trans.max() > 1.0:
            return "transmission outside [0, 1]"
        lorentz = ((kappa - gamma) ** 2 / 4.0 + dcl**2) / (loss * loss / 4.0 + dcl**2)
        if np.any(np.abs(trans - lorentz) > 1e-12 * lorentz):
            return "transmission differs from the hot-cavity lineshape at delta_cl"
        n_lock = 4.0 * drive / loss**2
        disc, disc_scale = scaled_discriminant(g_sum * n_lock / loss, grid / loss)
        single = disc < -1e-9 * disc_scale
        n_down, n_up = n[:grid.size], n[grid.size:]
        if np.any(np.abs(n_up - n_down)[single] > 1e-12 * n_down[single]):
            return "up and down sweeps differ outside the bistable window"
    return None


def check_spectrum(path: Path, rows_expected: int) -> Optional[str]:
    header, blocks = read_csv_blocks(path.read_text())
    want = ["eta", "p_in_w", "omega_rad_s", "phi_lo_rad", "v_ratio", "v_db", "v_locked_ratio"]
    if header != want:
        return f"unexpected columns {header}"
    rows = [r for _, block in blocks for r in block]
    if len(rows) != rows_expected:
        return f"{len(rows)} rows, expected {rows_expected}"
    v = np.array([r[4] for r in rows], dtype=float)
    locked = np.array([r[6] for r in rows], dtype=float)
    if not np.all(np.isfinite(v) & np.isfinite(locked)):
        return "non-finite variance"
    err = np.abs(v - locked) / np.abs(locked)
    if err.max() > 1e-12:
        return f"v_ratio deviates from v_locked_ratio by {err.max():.3g} (relative) > 1e-12"
    return None


def output_counts(path: Path) -> Dict[str, int]:
    """Rows, bytes and up/down disagreements counted from one CLI output."""
    text = path.read_text()
    counts = {"cli.bytes_out": path.stat().st_size, "hysteresis.differ": 0,
              "hysteresis.points": 0}
    if text.startswith("{"):
        rows = json.loads(text).get("rows")
        counts["cli.rows"] = len(rows) if isinstance(rows, list) else 0
    else:
        counts["cli.rows"] = sum(1 for line in text.splitlines() if not line.startswith("#")) - 1
        counts["hysteresis.differ"], counts["hysteresis.points"] = hysteresis_counts(text)
    return counts


# ---------------------------------------------------------------------------
# CLI workloads

@dataclass
class CliOp:
    """One CLI invocation, repeated with identical inputs."""

    command: str
    config: Path
    check: Callable[[Path], Optional[str]]
    program: Optional[List[str]] = None  # replaces `python -m kerrsqueeze`
    reference: Optional[str] = None      # digest of the first accepted output
    verdicts: Dict[str, Optional[str]] = field(default_factory=dict)

    def verdict(self, out: Path) -> Optional[str]:
        if not out.is_file():
            return "no output file"
        digest = sha256(out)
        if digest not in self.verdicts:
            try:
                failure = self.check(out)
            except (ValueError, UnicodeDecodeError) as e:
                failure = f"unparsable output: {e}"
            if failure is None and self.reference not in (None, digest):
                failure = "nondeterministic output: bytes differ from an earlier run"
            self.verdicts[digest] = failure
        if self.verdicts[digest] is None and self.reference is None:
            self.reference = digest
        return self.verdicts[digest]


def run_cli_op(op: CliOp, index: int, traced: bool, workdir: Path) -> Sample:
    out, err, spans = workdir / f"op{index}.out", workdir / "op.err", workdir / "spans.json"
    for stale in (out, spans):
        stale.unlink(missing_ok=True)
    args = [op.command, "--config", str(op.config), "--out", str(out)]
    if op.program is not None:
        prefix = op.program
    elif traced:
        prefix = [sys.executable, str(HERE / "traced_cli.py"), str(spans)]
    else:
        prefix = [sys.executable, "-m", "kerrsqueeze"]
    wall, cpu, rss, code = run_child(prefix + args, workdir / "op.stdout", err)
    failure = child_failure(code, err.read_text(errors="replace")) or op.verdict(out)
    sample = Sample(index, traced, wall, cpu, rss, failure)
    if traced and failure is None and spans.is_file():
        sample.layers = json.loads(spans.read_text())
        sample.layers["counts"].update(output_counts(out))
    return sample


def run_cli_ops(ops: List[CliOp], seconds: float, trace: bool,
                workdir: Path) -> Tuple[List[Sample], list]:
    """Operations in turn, each cycle after a set-up probe, until the seconds
    have passed and every operation ran; with ``trace`` each operation runs
    untraced and then traced."""
    samples, setups = [], []
    modes = (False, True) if trace else (False,)
    start = time.perf_counter()
    i = 0
    while i < len(ops) or time.perf_counter() - start < seconds:
        j = i % len(ops)
        if j == 0:
            setups.append(probe_setup(workdir, trace))
        for traced in modes:
            samples.append(run_cli_op(ops[j], j, traced, workdir))
        i += 1
    return samples, setups


def write_config(workdir: Path, name: str, config: dict) -> Path:
    path = workdir / name
    path.write_text(json.dumps(config, indent=2))
    return path


def jitter(rng: np.random.Generator, value: float) -> float:
    return float(value * (1.0 + 0.02 * rng.uniform(-1.0, 1.0)))


@dataclass
class Workload:
    item: str              # this workload's name for items_per_s
    items_per_pass: int
    run: Callable[[float, bool], Tuple[List[Sample], list]]  # samples, set-up probes
    ops: List[CliOp] = field(default_factory=list)
    latency: Tuple[str, str] = ("op_p50_s", "op_tail_s")  # names of per-operation p50, tail


def cli_samples(rng: np.random.Generator, workdir: Path, sizes: dict) -> Workload:
    recorded = json.loads((HERE / "sample_digests.json").read_text())
    ops = [
        CliOp(entry["command"], ROOT / "sample_data" / name,
              lambda out, want=entry["sha256"]: None if sha256(out) == want
              else "output differs from the digest recorded for this sample")
        for name, entry in sorted(recorded.items())
    ]
    return Workload("runs_per_s", len(ops),
                    lambda seconds, trace: run_cli_ops(ops, seconds, trace, workdir), ops,
                    ("cli_cold_p50_s", "cli_cold_tail_s"))


def sweep_hysteresis(rng: np.random.Generator, workdir: Path, sizes: dict) -> Workload:
    points = sizes["sweep_points"]
    start, stop = jitter(rng, -30e9), jitter(rng, 5e9)
    config = write_config(workdir, "sweep.json", {
        "resonator": SWEEP_RESONATOR,
        "pump": {"p_in_w": SWEEP_POWERS, "omega_p_rad_s": OMEGA_P,
                 "direction": ["down", "up"]},
        "grid": {"delta_p_rad_s": {"start": start, "stop": stop, "points": points}},
    })
    grid = np.linspace(start, stop, points)
    ops = [CliOp("sweep", config, lambda out: check_sweep(out, grid))]
    return Workload("points_per_s", points * len(SWEEP_POWERS) * 2,
                    lambda seconds, trace: run_cli_ops(ops, seconds, trace, workdir), ops)


def spectrum_locking(rng: np.random.Generator, workdir: Path, sizes: dict) -> Workload:
    w_hi, phi_hi = jitter(rng, 2e9), jitter(rng, 1.5)
    config = write_config(workdir, "spectrum.json", {
        "resonator": SPECTRUM_RESONATOR,
        "pump": {"p_in_w": SPECTRUM_POWERS, "omega_p_rad_s": OMEGA_P},
        "detection": {"eta": 1.0},
        "spectrum": {"mode": "locking"},
        "grid": {
            "omega_rad_s": {"start": jitter(rng, -2e9), "stop": w_hi,
                            "points": sizes["spectrum_omega"]},
            "phi_lo_rad": {"start": jitter(rng, -1.5), "stop": phi_hi,
                           "points": sizes["spectrum_phi"]},
        },
    })
    rows = len(SPECTRUM_POWERS) * sizes["spectrum_omega"] * sizes["spectrum_phi"]
    ops = [CliOp("spectrum", config, lambda out: check_spectrum(out, rows))]
    return Workload("rows_per_s", rows,
                    lambda seconds, trace: run_cli_ops(ops, seconds, trace, workdir), ops)


# ---------------------------------------------------------------------------
# fit-shift workload

def single_root_transmission(g_sum: float, p_in: float, freq: np.ndarray) -> np.ndarray:
    """Transmission of the Kerr-shifted line where the cubic has one root.

    Roots come from numpy's companion matrix, not from the package.
    """
    loss = FIT_KAPPA + FIT_GAMMA
    n_lock = 4.0 * FIT_KAPPA * p_in / (HBAR * OMEGA_P) / loss**2
    g = g_sum * n_lock / loss
    out = []
    for dp in freq:
        d = dp / loss
        roots = np.roots([g * g, 2.0 * g * d, 0.25 + d * d, -0.25])
        real = [r.real for r in roots if abs(r.imag) <= 1e-9 * abs(r) and r.real > 0]
        if len(real) != 1:
            raise ValueError("fit-shift traces must stay below the bistability onset")
        u = real[0]
        for _ in range(8):  # Newton polish on the defining residual
            f = ((g * g * u + 2.0 * g * d) * u + 0.25 + d * d) * u - 0.25
            u -= f / ((3.0 * g * g * u + 4.0 * g * d) * u + 0.25 + d * d)
        dcl = dp + g_sum * u * n_lock
        out.append(((FIT_KAPPA - FIT_GAMMA) ** 2 / 4.0 + dcl * dcl) / (loss**2 / 4.0 + dcl * dcl))
    return np.array(out)


def fit_shift(rng: np.random.Generator, workdir: Path, sizes: dict) -> Workload:
    freq = np.linspace(*FIT_GRID)
    base = {p: single_root_transmission(FIT_TRUE_G, p, freq) for p in FIT_POWERS}
    sets = [
        [{"freq": freq.tolist(), "p_in": p,
          "transmission": (base[p] * (1.0 + FIT_NOISE * rng.standard_normal(freq.size))).tolist()}
         for p in FIT_POWERS]
        for _ in range(sizes["fit_sets"])
    ]

    def run(seconds: float, trace: bool) -> Tuple[List[Sample], list]:
        job, result = workdir / "fit_job.json", workdir / "fit_result.json"
        job.write_text(json.dumps({"seconds": seconds / FIT_SEGMENTS, "trace": trace,
                                   "kappa": FIT_KAPPA, "gamma": FIT_GAMMA,
                                   "omega_p": OMEGA_P, "sets": sets}))
        raw, setups, peak = [], [], 0
        for _ in range(FIT_SEGMENTS):
            setups.append(probe_setup(workdir, trace))
            result.unlink(missing_ok=True)
            err = workdir / "fit.err"
            wall, cpu, rss, code = run_child(
                [sys.executable, str(HERE / "fit_worker.py"), str(job), str(result)],
                workdir / "fit.out", err)
            failure = child_failure(code, err.read_text(errors="replace"))
            if failure is not None or not result.is_file():
                return [Sample(0, False, wall, cpu, rss,
                               failure or "worker wrote no result")], setups
            raw += json.loads(result.read_text())["samples"]
            peak = max(peak, rss)
        return check_fits(raw, peak), setups

    return Workload("fits_per_s", sizes["fit_sets"], run)


def check_fits(raw: List[dict], rss_kb: int) -> List[Sample]:
    samples, first = [], {}
    for r in raw:
        s = Sample(r["op"], r["traced"], r["wall"], r["cpu"], rss_kb, layers=r["layers"])
        g = r["g"]
        if r["error"] is not None:
            s.failure = "exception: " + r["error"].strip().splitlines()[-1][:200]
        elif not math.isfinite(g):
            s.failure = f"non-finite fit result {g}"
        elif first.setdefault(r["op"], g) != g:
            s.failure = "nondeterministic fit: result differs from an earlier run"
        samples.append(s)
    errors = [abs(g - FIT_TRUE_G) / FIT_TRUE_G for g in first.values() if math.isfinite(g)]
    if not errors or statistics.median(errors) >= FIT_MAX_MEDIAN_ERR:
        for s in samples:
            s.failure = s.failure or "median relative error of the fitted shift >= 5%"
    return samples


WORKLOADS: Dict[str, Callable[[np.random.Generator, Path, dict], Workload]] = {
    "cli-samples": cli_samples,
    "sweep-hysteresis": sweep_hysteresis,
    "spectrum-locking": spectrum_locking,
    "fit-shift": fit_shift,
}


# ---------------------------------------------------------------------------
# metrics

def pass_sum(samples: List[Sample], key: str) -> float:
    """One pass over the operations: the sum of each operation's median."""
    by_op: Dict[int, List[float]] = {}
    for s in samples:
        by_op.setdefault(s.op, []).append(getattr(s, key))
    return sum(statistics.median(v) for v in by_op.values())


def tail(values: List[float]) -> Optional[Tuple[int, float]]:
    """Highest whole percentile with at least ten samples beyond it, once
    that percentile reaches the median (20 samples or more)."""
    n = len(values)
    if n < 20:
        return None
    p = math.floor(100.0 * (n - 10) / n)
    return p, sorted(values)[math.ceil(p / 100.0 * n) - 1]


def layers_per_pass(samples: List[Sample]) -> Dict[str, Dict[str, float]]:
    """Per-pass sums over operations of each operation's mean layer values."""
    by_op: Dict[int, List[dict]] = {}
    for s in samples:
        if s.layers is not None:
            by_op.setdefault(s.op, []).append(s.layers)
    total: Dict[str, Dict[str, float]] = {"self_s": {}, "calls": {}, "counts": {}}
    for runs in by_op.values():
        for part, acc in total.items():
            for name in {k for r in runs for k in r[part]}:
                acc[name] = acc.get(name, 0.0) + sum(r[part].get(name, 0) for r in runs) / len(runs)
    return total


def count_mismatches(samples: List[Sample]) -> List[str]:
    seen: Dict[int, Dict[str, float]] = {}
    problems = []
    for s in samples:
        if s.layers is None:
            continue
        counts = {k: s.layers["counts"].get(k, 0) for k in EXACT_COUNTS}
        ref = seen.setdefault(s.op, counts)
        for k in EXACT_COUNTS:
            if counts[k] != ref[k]:
                problems.append(f"operation {s.op}: {k} = {counts[k]}, earlier {ref[k]}")
    return problems


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(workload: Workload, setup: List[float],
               samples: List[Sample]) -> Tuple[List[tuple], List[tuple]]:
    """(name, value, unit, better, note) rows: the benchmark's end-to-end
    metrics, and the workload's own names, tails and error rate."""
    plain = [s for s in samples if not s.traced]
    wall = pass_sum(plain, "wall")
    rows = [
        ("setup_s", statistics.median(setup), "s", "lower",
         f"median of {len(setup)} fresh `import kerrsqueeze.cli` spread over the run"),
        ("wall_s", wall, "s", "lower",
         f"one pass of {workload.items_per_pass} items; {len(plain)} operations timed"),
        ("cpu_s", pass_sum(plain, "cpu"), "s", "lower", "user+sys of one pass"),
        ("peak_rss_mb", max(s.rss_kb for s in samples) / 1024.0, "MB", "lower",
         "largest peak RSS of any child"),
        ("items_per_s", workload.items_per_pass / wall, "1/s", "higher",
         f"= {workload.item}"),
    ]
    walls = [s.wall for s in plain]
    t = tail(walls)
    p50, p_tail = workload.latency
    extra = [
        (workload.item, workload.items_per_pass / wall, "1/s", "higher", ""),
        (p50, statistics.median(walls), "s", "lower", f"median of {len(walls)} operations"),
        (p_tail, t[1] if t else float("nan"), "s", "lower",
         f"p{t[0]} of {len(walls)} operations" if t else f"n/a: {len(walls)} operations < 20"),
    ]
    failed = sum(s.failure is not None for s in samples)
    extra.append(("error_rate", failed / len(samples), "fraction", "lower",
                  f"{failed} of {len(samples)} operations failed"))
    return rows, extra


def per_layer(imports: List[Dict[str, float]], samples: List[Sample]) -> List[tuple]:
    layers = layers_per_pass([s for s in samples if s.traced])
    self_s, calls, counts = layers["self_s"], layers["calls"], layers["counts"]
    sw_s = self_s.get("steady_state.sweep", 0.0)
    points = counts.get("steady_state.points", 0)
    spec = ("spectrum.variance_spectrum", "spectrum.variance_extrema",
            "spectrum.locked_raw_variance")
    spec_rows = calls.get(spec[0], 0) + calls.get(spec[1], 0)
    traced = [s for s in samples if s.traced and s.failure is None]
    plain = [s for s in samples if not s.traced and s.failure is None]
    overhead = pass_sum(traced, "wall") - pass_sum(plain, "wall") if traced and plain else 0.0
    s, c = "s", "count"
    rows = [(f"import.{k}", statistics.median(r[k] for r in imports), s, "lower")
            for k in imports[0]] + [
        ("cli.load_config_s", self_s.get("cli.load_config", 0.0), s, "lower"),
        ("cli.read_inputs_s", self_s.get("cli.read_inputs", 0.0), s, "lower"),
        ("cli.cmd_self_s", self_s.get("cli.cmd", 0.0), s, "lower"),
        ("cli.render_csv_s", self_s.get("cli.render_csv", 0.0), s, "lower"),
        ("cli.render_json_s", self_s.get("cli.render_json", 0.0), s, "lower"),
        ("cli.write_s", self_s.get("cli.main", 0.0), s, "lower"),
        ("cli.rows", counts.get("cli.rows", 0), c, "lower"),
        ("cli.bytes_out", counts.get("cli.bytes_out", 0), "bytes", "lower"),
        ("steady_state.sweep_s", sw_s, s, "lower"),
        ("steady_state.sweep_calls", calls.get("steady_state.sweep", 0), c, "lower"),
        ("steady_state.points", points, c, "lower"),
        ("steady_state.us_per_point", ratio(sw_s * 1e6, points), "us", "lower"),
        ("steady_state.injection_locking_point_s",
         self_s.get("steady_state.injection_locking_point", 0.0), s, "lower"),
        ("steady_state.hysteresis_frac",
         ratio(counts.get("hysteresis.differ", 0), counts.get("hysteresis.points", 0)),
         "fraction", "lower"),
    ]
    for name in spec:
        rows.append((f"{name}_s", self_s.get(name, 0.0), s, "lower"))
        rows.append((f"{name}_calls", calls.get(name, 0), c, "lower"))
    rows += [
        ("spectrum.us_per_row", ratio(sum(self_s.get(n, 0.0) for n in spec) * 1e6, spec_rows),
         "us", "lower"),
        ("spectrum.linearization_warnings", counts.get("spectrum.linearization_warnings", 0),
         c, "lower"),
        ("characterize.fit_shift_coefficient_s",
         self_s.get("characterize.fit_shift_coefficient", 0.0), s, "lower"),
        ("characterize.model_sweeps_per_fit",
         ratio(counts.get("characterize.model_sweeps", 0),
               calls.get("characterize.fit_shift_coefficient", 0)), c, "lower"),
        ("characterize.fit_linear_resonance_s",
         self_s.get("characterize.fit_linear_resonance", 0.0), s, "lower"),
        ("characterize.reduce_homodyne_trace_s",
         self_s.get("characterize.reduce_homodyne_trace", 0.0), s, "lower"),
        ("characterize.fit_dispersion_s", self_s.get("characterize.fit_dispersion", 0.0),
         s, "lower"),
        ("trace.overhead_s", overhead, s, "lower"),
    ]
    def note(name: str) -> str:
        if name.startswith("import."):
            return f"median of {len(imports)} `python -X importtime` spread over the run"
        if name == "steady_state.hysteresis_frac":
            return "share of grid points, recounted from the output"
        return "per pass"

    return [r + (note(r[0]),) for r in rows]


def environment() -> Dict[str, object]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
    }


def print_table(rows: List[tuple]) -> None:
    print(f"{'metric':40} {'value':>16}  {'unit':8} {'better':6}  note")
    for name, value, unit, better, note in rows:
        print(f"{name:40} {value:16.6g}  {unit:8} {better:6}  {note}")


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None, sizes: dict = SIZES) -> int:
    args = parse_args(argv)
    if not (SRC / "kerrsqueeze" / "__init__.py").is_file():
        print(f"error: no kerrsqueeze sources at {SRC}", file=sys.stderr)
        return 2
    env = environment()
    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](np.random.default_rng(args.seed), workdir, sizes)
        probe_setup(workdir, False)  # warm-up: compiles bytecode, fills the file cache
        samples, setups = workload.run(args.seconds, bool(args.trace))
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [s for s in samples if s.failure is not None]
    mismatches = count_mismatches(samples)
    print(f"== kerrsqueeze benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + json.dumps(env))
    for s in failures[:10]:
        print(f"FAILED operation {s.op}{' (traced)' if s.traced else ''}: {s.failure}")
    for problem in mismatches:
        print(f"NONDETERMINISTIC count, not noise: {problem}")
    if args.trace:
        rows = per_layer(setups, samples)
        print_table(rows)
    else:
        rows, extra = end_to_end(workload, setups, samples)
        print_table(rows + extra)
    print(json.dumps({
        "correct": not failures and not mismatches,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {r[0]: {"value": r[1], "unit": r[2]} for r in rows},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
