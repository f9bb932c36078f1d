"""The benchmark's tracer (``perfbench/tracer.py``) times the package by
replacing functions at the module attributes where their callers look them
up. A caller that stops going through such an attribute makes that layer's
figures read 0 without any error, so every traced name must see a call."""

import json
from pathlib import Path

import numpy as np
import pytest

from kerrsqueeze import PumpConfig, ResonatorParams, TransmissionTrace, characterize, cli
from kerrsqueeze.steady_state import sweep

from test_cli import CONFIGS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FIT_SPAN = "characterize.fit_shift_coefficient"  # no subcommand fits the shift


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    return tracer


def test_sample_configs_call_every_traced_name(tracer, sample_dir, tmp_path):
    spans = tracer.Tracer()
    with tracer.installed(spans):
        for cmd, config in CONFIGS:
            argv = [cmd, "--config", str(sample_dir / config), "--out", str(tmp_path / "out")]
            assert cli.main(argv) == 0, (cmd, config)
    calls = spans.summary()["calls"]
    names = {name for _, _, name, _ in tracer._TARGETS} - {FIT_SPAN}
    assert sorted(name for name in names if not calls.get(name)) == []


def test_shift_fit_counts_its_model_sweeps(tracer):
    params = ResonatorParams(kappa=500e6, gamma=50e6, g_opt=1.6)
    omega_p = 1.2e15
    freq = np.linspace(-6e9, 2e9, 40)
    traces = [TransmissionTrace(freq=freq, p_in=p, transmission=sweep(
                  params, PumpConfig(p_in=p, delta_p=freq, omega_p=omega_p)).transmission)
              for p in (2e-5, 1.2e-4)]
    spans = tracer.Tracer()
    with tracer.installed(spans):
        characterize.fit_shift_coefficient(traces, params.kappa, params.gamma, omega_p)
    summary = spans.summary()
    assert summary["calls"][FIT_SPAN] == 1
    assert summary["counts"]["characterize.model_sweeps"] > 0


def test_traced_sweep_counts_one_call_per_power_and_direction(tracer, sample_dir, tmp_path):
    # the hysteresis workload's per-layer figures divide by these counts
    config = json.loads((sample_dir / "config_sweep.json").read_text())
    config["pump"] = {"p_in_w": [2e-3, 4e-3], "direction": ["down", "up"]}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    spans = tracer.Tracer()
    with tracer.installed(spans):
        assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    summary = spans.summary()
    assert summary["calls"]["steady_state.sweep"] == 4
    assert summary["counts"]["steady_state.points"] == 4 * config["grid"]["delta_p_rad_s"]["points"]
