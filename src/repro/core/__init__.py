"""Core framework: the paper's thesis made executable.

Energy-efficiency metrics (§2.1), the knob-sweep profiler that finds
Figure 1's diminishing-returns point for any knob, the two published
experiments as library functions, and report formatting for the
benchmark harness.
"""

from repro.core.metrics import (
    TcoModel,
    energy_efficiency,
    perf_per_watt,
)
from repro.core.profiler import (
    EnergyProfile,
    ProfilePoint,
)
from repro.core.experiments import (
    Figure1Result,
    Figure2Result,
    figure1_point,
    figure2_point,
)
from repro.core.coordination import DvfsGovernor, PowerCoordinator
from repro.core.report import format_table

__all__ = [
    "DvfsGovernor",
    "EnergyProfile",
    "Figure1Result",
    "Figure2Result",
    "PowerCoordinator",
    "ProfilePoint",
    "TcoModel",
    "energy_efficiency",
    "figure1_point",
    "figure2_point",
    "format_table",
    "perf_per_watt",
]
