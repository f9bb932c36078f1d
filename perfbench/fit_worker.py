"""Closed-loop worker for the fit-shift workload.

Usage: python perfbench/fit_worker.py JOB_JSON RESULT_JSON

Fits the job's trace sets with ``characterize.fit_shift_coefficient`` in
turn, one call at a time, until the job's seconds have passed and every set
was fitted at least once. With ``trace`` set, each fit runs once untraced
and once traced. Every fit is a sample with its wall and CPU time and its
result or error. ``src`` must be on PYTHONPATH.
"""

import contextlib
import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from kerrsqueeze import characterize

from tracer import Tracer, installed


def _fit(job, traces, op, traced):
    tracer = Tracer()
    sample = {"op": op, "traced": traced, "g": None, "error": None, "layers": None}
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        with installed(tracer) if traced else contextlib.nullcontext():
            g = characterize.fit_shift_coefficient(
                traces, job["kappa"], job["gamma"], job["omega_p"])
        sample["g"] = float(g)
    except Exception:
        sample["error"] = traceback.format_exc()
    sample["wall"] = time.perf_counter() - t0
    sample["cpu"] = time.process_time() - cpu0
    if traced:
        sample["layers"] = tracer.summary()
    return sample


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    sets = [
        [characterize.TransmissionTrace(freq=np.array(t["freq"]),
                                        transmission=np.array(t["transmission"]),
                                        p_in=t["p_in"])
         for t in traces]
        for traces in job["sets"]
    ]
    modes = (False, True) if job["trace"] else (False,)
    samples = []
    start = time.perf_counter()
    i = 0
    while i < len(sets) or time.perf_counter() - start < job["seconds"]:
        op = i % len(sets)
        for traced in modes:
            samples.append(_fit(job, sets[op], op, traced))
        i += 1
    Path(sys.argv[2]).write_text(json.dumps({"samples": samples}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
