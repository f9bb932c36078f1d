"""In-memory span tracer for kerrsqueeze's layers, applied from outside.

``installed(tracer)`` replaces public functions at the module attributes
where their callers look them up, and restores them on exit; no file of the
package is edited. ``cli._DISPATCH`` holds the ``cmd_*`` functions, so its
entries are patched too, and ``characterize`` imports ``sweep`` by name, so
``characterize.sweep`` is patched next to ``steady_state.sweep``.

Each span records its name, start, end and parent and stays in memory until
``summary()`` folds the spans into per-name self times and call counts. The
self time of a span is its duration minus the time its child spans cover;
the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import time
import warnings
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

from kerrsqueeze import characterize, cli, spectrum, steady_state
from kerrsqueeze.errors import LinearizationWarning


class Tracer:
    """Span store for one traced operation."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.parents: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn: Callable,
             on_call: Optional[Callable[["Tracer", tuple], None]] = None) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            if on_call is not None:
                on_call(self, args)
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-name self seconds and call counts, plus the plain counters."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[idx]
        self_s: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for idx, name in enumerate(self.names):
            self_s[name] = self_s.get(name, 0.0) + dur[idx] - child[idx]
            calls[name] = calls.get(name, 0) + 1
        return {"self_s": self_s, "calls": calls, "counts": dict(self.counts)}


def _count_points(tracer: Tracer, args: tuple) -> None:
    tracer.count("steady_state.points", len(args[1].delta_p))


def _count_model_sweep(tracer: Tracer, args: tuple) -> None:
    _count_points(tracer, args)
    tracer.count("characterize.model_sweeps")


# (module, attribute, span name, call hook)
_TARGETS = [
    (cli, "main", "cli.main", None),
    (cli, "load_config", "cli.load_config", None),
    (cli, "read_transmission_csv", "cli.read_inputs", None),
    (cli, "read_resonance_csv", "cli.read_inputs", None),
    (cli, "read_zero_span_csv", "cli.read_inputs", None),
    (cli, "read_budget_json", "cli.read_inputs", None),
    (cli, "render_csv", "cli.render_csv", None),
    (cli, "render_json", "cli.render_json", None),
    (steady_state, "sweep", "steady_state.sweep", _count_points),
    (characterize, "sweep", "steady_state.sweep", _count_model_sweep),
    (steady_state, "injection_locking_point", "steady_state.injection_locking_point", None),
    (spectrum, "variance_spectrum", "spectrum.variance_spectrum", None),
    (spectrum, "variance_extrema", "spectrum.variance_extrema", None),
    (spectrum, "locked_raw_variance", "spectrum.locked_raw_variance", None),
    (characterize, "fit_shift_coefficient", "characterize.fit_shift_coefficient", None),
    (characterize, "fit_linear_resonance", "characterize.fit_linear_resonance", None),
    (characterize, "reduce_homodyne_trace", "characterize.reduce_homodyne_trace", None),
    (characterize, "fit_dispersion", "characterize.fit_dispersion", None),
]


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Trace the package's layers while the block runs.

    LinearizationWarning is counted under an ``always`` filter, because the
    default filter drops repeats.
    """
    saved: List[tuple] = []

    def patch(target: Any, key: str, value: Any) -> None:
        if isinstance(target, dict):
            saved.append((target, key, target[key]))
            target[key] = value
        else:
            saved.append((target, key, getattr(target, key)))
            setattr(target, key, value)

    try:
        for module, attr, name, hook in _TARGETS:
            patch(module, attr, tracer.wrap(name, getattr(module, attr), hook))
        for attr in dir(cli):
            fn = getattr(cli, attr)
            if attr.startswith("cmd_") and callable(fn):
                wrapped = tracer.wrap("cli.cmd", fn)
                patch(cli, attr, wrapped)
                for key, entry in list(cli._DISPATCH.items()):
                    if entry is fn:
                        patch(cli._DISPATCH, key, wrapped)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            yield tracer
        tracer.count("spectrum.linearization_warnings",
                     sum(issubclass(w.category, LinearizationWarning) for w in caught))
    finally:
        for target, key, value in reversed(saved):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
