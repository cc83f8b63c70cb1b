"""Energy-efficiency metrics and the TCO model.

§2.1 defines energy efficiency as work done per unit energy, equivalent
to performance per Watt; §5.3 adds the total-cost-of-ownership framing
(management + hardware + energy) under which "pay for more hardware and
parallelize, keeping the same energy efficiency" eventually wins.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.units import KWH


def energy_efficiency(work_done: float, energy_joules: float) -> float:
    """Work per Joule (§2.1): transactions/J, searches/J, queries/J...

    >>> energy_efficiency(1000.0, 500.0)   # 1000 queries on 500 J
    2.0
    >>> energy_efficiency(10.0, 0.0)
    Traceback (most recent call last):
        ...
    repro.errors.ReproError: energy must be positive
    """
    if energy_joules <= 0:
        raise ReproError("energy must be positive")
    if work_done < 0:
        raise ReproError("work cannot be negative")
    return work_done / energy_joules


def perf_per_watt(work_rate_per_s: float, power_watts: float) -> float:
    """Performance over power — identical to energy efficiency (§2.1).

    The two formulations coincide because both numerator and
    denominator are rates over the same interval:

    >>> perf_per_watt(300.0, 150.0)
    2.0
    >>> perf_per_watt(300.0, 150.0) == energy_efficiency(300.0, 150.0)
    True
    """
    if power_watts <= 0:
        raise ReproError("power must be positive")
    if work_rate_per_s < 0:
        raise ReproError("work rate cannot be negative")
    return work_rate_per_s / power_watts


#: facility Watts per IT Watt ([PBS+03]'s 0.5-1 W per W)
COOLING_OVERHEAD = 0.5
#: the deployment lifetime the TCO is taken over
LIFETIME_YEARS = 3.0


@dataclass(frozen=True)
class TcoModel:
    """Total cost of ownership over a deployment lifetime (§5.3).

    Every IT Watt is burdened with ``COOLING_OVERHEAD`` facility Watts
    over ``LIFETIME_YEARS``.

    A 1 kW server at $0.10/kWh with 0.5 W/W cooling for three years:

    >>> model = TcoModel(hardware_cost_dollars=10_000.0)
    >>> round(model.energy_cost(1000.0), 2)
    3944.7
    >>> round(model.total_cost(1000.0), 2)
    13944.7
    """

    hardware_cost_dollars: float
    electricity_dollars_per_kwh: float = 0.10

    def __post_init__(self) -> None:
        if self.hardware_cost_dollars < 0:
            raise ReproError("hardware cost cannot be negative")

    def energy_cost(self, average_watts: float) -> float:
        """Lifetime electricity + cooling cost at an average draw."""
        if average_watts < 0:
            raise ReproError("power cannot be negative")
        burdened = average_watts * (1.0 + COOLING_OVERHEAD)
        joules = burdened * LIFETIME_YEARS * 365.25 * 24 * 3600
        return joules / KWH * self.electricity_dollars_per_kwh

    def total_cost(self, average_watts: float) -> float:
        """Hardware + lifetime energy."""
        return self.hardware_cost_dollars + self.energy_cost(average_watts)

    def cost_per_unit_work(self, average_watts: float,
                           work_per_second: float) -> float:
        """Dollars per unit of work over the lifetime."""
        if work_per_second <= 0:
            raise ReproError("work rate must be positive")
        total_work = work_per_second * LIFETIME_YEARS * 365.25 * 24 * 3600
        return self.total_cost(average_watts) / total_work
