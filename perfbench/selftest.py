"""Self-test of the benchmark at its smallest sizes.

Usage, from any directory: python3 perfbench/selftest.py

Shows that a corrupted output, a non-zero exit and a traceback on stderr
each count as a failed operation in ``error_rate``, that a clean run counts
none, and that every workload prints each of its metrics with unit and
direction in both trace modes. Exits 0 when every check holds; takes about
a minute.
"""

import contextlib
import io
import json
import shutil
import sys

import run

# Each fault program replaces `python -m kerrsqueeze` and receives the same
# arguments; all but the named fault leave a correct output behind.
RUN_CLI = "from kerrsqueeze.cli import main; code = main(sys.argv[1:]); "
FAULTS = {
    "non-zero exit": "import sys; sys.exit(3)",
    "traceback": "import sys; " + RUN_CLI
                 + "print('Traceback (most recent call last):', file=sys.stderr); sys.exit(code)",
    "corrupted output": "import sys; " + RUN_CLI
                        + "open(sys.argv[sys.argv.index('--out') + 1], 'a').write('0'); "
                        "sys.exit(code)",
}
EXPECTED_REASON = {"non-zero exit": "exit code 3", "traceback": "traceback on stderr",
                   "corrupted output": "differs from the digest"}
WORKLOAD_METRICS = {"cli-samples": ["runs_per_s", "cli_cold_p50_s", "cli_cold_tail_s"],
                    "sweep-hysteresis": ["points_per_s"],
                    "spectrum-locking": ["rows_per_s"],
                    "fit-shift": ["fits_per_s"]}


def error_rate(workdir, program):
    workload = run.cli_samples(None, workdir, run.SMALLEST)
    op = next(o for o in workload.ops if o.config.name == "config_losses.json")
    op.program = None if program is None else [sys.executable, "-c", program]
    samples, setups = run.run_cli_ops([op], 0.0, False, workdir)
    rows, extra = run.end_to_end(workload, setups, samples)
    return next(r[1] for r in extra if r[0] == "error_rate"), samples[0].failure


def check_faults(problems):
    workdir = run.ROOT / ".bench_build" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rate, failure = error_rate(workdir, None)
        if rate != 0.0:
            problems.append(f"clean run: error_rate {rate}, failure {failure!r}")
        for name, program in FAULTS.items():
            rate, failure = error_rate(workdir, program)
            if rate != 1.0 or EXPECTED_REASON[name] not in (failure or ""):
                problems.append(f"{name}: error_rate {rate}, failure {failure!r}")
            print(f"fault {name!r}: error_rate {rate}, reason {failure!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_printed(problems):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                                 "--trace", str(trace)], sizes=run.SMALLEST)
            lines = buf.getvalue().splitlines()
            result = json.loads(lines[-1])
            where = f"{workload} trace={trace}"
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{where}: exit {code}, result {lines[-1][:300]}")
            wanted = {m["name"]: m for m in spec[key]}
            got = result["metrics"]
            if set(got) != set(wanted):
                problems.append(f"{where}: metrics {sorted(set(got) ^ set(wanted))} mismatch")
            table = {}
            for line in lines:
                cells = line.split()
                if len(cells) >= 4 and cells[3] in ("lower", "higher"):
                    table[cells[0]] = (cells[2], cells[3])
            named = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
            if trace == 0:
                named += [("error_rate", "fraction", "lower")]
                named += [(n, None, None) for n in WORKLOAD_METRICS[workload]]
            for name, unit, better in named:
                if name not in table or (unit is not None and table[name] != (unit, better)):
                    problems.append(f"{where}: {name} printed as {table.get(name)}")
                elif name in got and got[name]["unit"] != table[name][0]:
                    problems.append(f"{where}: {name} unit differs between table and JSON")
            print(f"{where}: {len(got)} metrics, {result['attempted']} operations")


def main():
    problems = []
    check_faults(problems)
    check_printed(problems)
    for p in problems:
        print("SELFTEST FAILED:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
