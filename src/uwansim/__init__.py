"""Discrete-event simulator for multi-hop underwater acoustic networks
with a time-reversal physical layer and MAC protocols."""

from .channel import (
    ChannelModelConfig,
    Environment,
    cross_correlation,
    generate_cir,
    generate_taps,
    norm,
    normalized_cross_correlation,
)
from .mac import Frame, FrameKind, MacTimers, Packet
from .presets import ExperimentPreset, run_preset
from .scenario import Scenario, ScenarioError, load_scenario, scenario_from_dict
from .sim import LinkTable, MetricsRecord, RunResult, Simulator, collect_metrics, run_scenario
from .tr_phy import (
    PhyConfig,
    composite_response,
    eta_threshold,
    p_ili,
    p_isi,
    p_sig,
    sinr_atrsts,
    sinr_sdt,
    tr_waveform,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelModelConfig",
    "Environment",
    "ExperimentPreset",
    "Frame",
    "FrameKind",
    "LinkTable",
    "MacTimers",
    "MetricsRecord",
    "Packet",
    "PhyConfig",
    "RunResult",
    "Scenario",
    "ScenarioError",
    "Simulator",
    "collect_metrics",
    "composite_response",
    "cross_correlation",
    "eta_threshold",
    "generate_cir",
    "generate_taps",
    "load_scenario",
    "norm",
    "normalized_cross_correlation",
    "p_ili",
    "p_isi",
    "p_sig",
    "run_preset",
    "run_scenario",
    "scenario_from_dict",
    "sinr_atrsts",
    "sinr_sdt",
    "tr_waveform",
]
