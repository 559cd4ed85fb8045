"""Dual-rail cavity controlled-Z gate simulator.

Simulation and analysis of a swap-wait-swap controlled-Z gate between two
dual-rail-encoded cavity qubits mediated by a lossy transmon coupler:
ideal-unitary synthesis, Lindblad propagation, erasure/error channel
models, process and state tomography, randomized benchmarking, calibration
sweeps, and an error-budget report.
"""

__version__ = "0.1.0"

from .fock import DensityMatrix, DualRailCode, ModeRegister, build_mode_operator
from .channels import QuantumChannel
from .gate import (GateSchedule, LocalFrame, SystemParams, build_schedule,
                   derive_gate_params, extract_local_frame, ideal_unitary,
                   on_off_ratio)
from .lindblad import NoiseModel, gate_superoperator
from .error_channels import ChannelRates, ReadoutModel
from .calibration import CalibrationReport, SweepResult, run_calibration_flow
from .config import ConfigError, DeviceConfig
from .budget import (CoherenceLimits, ErrorBudget, compute_error_budget,
                     fundamental_limits)

__all__ = [
    "DensityMatrix", "DualRailCode", "ModeRegister", "build_mode_operator",
    "QuantumChannel",
    "GateSchedule", "LocalFrame", "SystemParams", "build_schedule",
    "derive_gate_params", "extract_local_frame", "ideal_unitary",
    "on_off_ratio",
    "NoiseModel", "gate_superoperator",
    "ChannelRates", "ReadoutModel",
    "CalibrationReport", "SweepResult", "run_calibration_flow",
    "ConfigError", "DeviceConfig",
    "CoherenceLimits", "ErrorBudget", "compute_error_budget",
    "fundamental_limits",
    "__version__",
]
