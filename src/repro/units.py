"""Unit constants and conversion helpers.

All simulated quantities in this library use SI base units internally:
seconds for time, bytes for data, Joules for energy, Watts for power and
Hertz for frequency.  The constants below exist so call sites can say
``64 * GIB`` or ``2.4 * GHZ`` instead of sprinkling magic powers of two
and ten through the code.
"""

from __future__ import annotations

# --- data sizes (bytes) ----------------------------------------------------
KB = 10**3
MB = 10**6
GB = 10**9
TB = 10**12

KIB = 2**10
MIB = 2**20
GIB = 2**30
TIB = 2**40

# --- time (seconds) --------------------------------------------------------
USEC = 1e-6
MSEC = 1e-3
SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0

# --- frequency (Hz) --------------------------------------------------------
MHZ = 10**6
GHZ = 10**9

# --- energy / power --------------------------------------------------------
JOULE = 1.0
KILOJOULE = 10**3
WATT = 1.0
KILOWATT = 10**3
# 1 kWh in Joules: convenient for data-center cost arithmetic.
KWH = 3.6e6


def joules(avg_power_watts: float, seconds: float) -> float:
    """Energy used by a task: average power times duration (paper §2.1)."""
    if avg_power_watts < 0:
        raise ValueError(f"power must be non-negative, got {avg_power_watts}")
    if seconds < 0:
        raise ValueError(f"duration must be non-negative, got {seconds}")
    return avg_power_watts * seconds


def watts(energy_joules: float, seconds: float) -> float:
    """Average power over an interval: energy divided by duration."""
    if seconds <= 0:
        raise ValueError(f"duration must be positive, got {seconds}")
    return energy_joules / seconds


def pretty_time(seconds: float) -> str:
    """Render a duration with an adaptive unit, e.g. ``3.2 s`` or ``150 us``."""
    if seconds < 0:
        return "-" + pretty_time(-seconds)
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.1f} ms"
    if seconds < MINUTE:
        return f"{seconds:.2f} s"
    if seconds < HOUR:
        return f"{seconds / MINUTE:.1f} min"
    return f"{seconds / HOUR:.2f} h"
