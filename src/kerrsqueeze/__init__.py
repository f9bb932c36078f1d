"""Single-mode Kerr microresonator squeezing model.

Classical steady states and injection locking, intracavity quadrature
variance spectra, detection-chain loss propagation, and the inverse fits
used to characterize a device from measured traces. All rates, detunings,
and gains are angular frequencies in rad/s; powers are in W.
"""

import importlib
from typing import Any, List

__version__ = "0.1.0"

# each public name and the submodule that defines it; a name's submodule is
# imported on first access (PEP 562), so `import kerrsqueeze` loads no numpy
_EXPORTS = {
    "DispersionFit": "characterize",
    "ResonanceFit": "characterize",
    "ResonanceList": "characterize",
    "TransmissionTrace": "characterize",
    "ZeroSpanTrace": "characterize",
    "dispersion_regime": "characterize",
    "fit_dispersion": "characterize",
    "fit_linear_resonance": "characterize",
    "fit_shift_coefficient": "characterize",
    "g_opt_from_threshold": "characterize",
    "reduce_homodyne_trace": "characterize",
    "C_VACUUM": "core",
    "HBAR": "core",
    "DriveState": "core",
    "ResonatorParams": "core",
    "SqueezingResult": "core",
    "db_from_linear": "core",
    "drive_state": "core",
    "linear_from_db": "core",
    "locked_variances": "core",
    "omega_from_wavelength": "core",
    "optimal_phase": "core",
    "quality_factor": "core",
    "threshold_power": "core",
    "total_loss": "core",
    "LossBudget": "detection",
    "efficiency_from_budget": "detection",
    "infer_chip_variance": "detection",
    "propagate_variance": "detection",
    "Degenerate": "errors",
    "EmptyTrace": "errors",
    "InfeasibleMeasurement": "errors",
    "InvalidEfficiency": "errors",
    "LinearizationWarning": "errors",
    "MetadataMismatch": "errors",
    "ModelError": "errors",
    "NoDip": "errors",
    "NonPositive": "errors",
    "PoorFit": "errors",
    "PositiveLossEntry": "errors",
    "RankDeficient": "errors",
    "SchemaError": "errors",
    "SingularMatrix": "errors",
    "UnstablePoint": "errors",
    "ZeroPower": "errors",
    "fluctuation_flux": "spectrum",
    "locked_extrema": "spectrum",
    "locked_raw_variance": "spectrum",
    "variance_extrema": "spectrum",
    "variance_spectrum": "spectrum",
    "PumpConfig": "steady_state",
    "SteadyStateBranch": "steady_state",
    "SweepTrace": "steady_state",
    "injection_locking_point": "steady_state",
    "steady_roots": "steady_state",
    "sweep": "steady_state",
    "transmission": "steady_state",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    # the defining submodules also stay reachable as attributes, as they were
    # when this file imported them eagerly
    if name in _EXPORTS.values():
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
