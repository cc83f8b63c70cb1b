"""Unit tests for core metrics, profiler, and report formatting."""

import pytest

from repro.errors import ReproError
from repro.core.metrics import (
    TcoModel,
    energy_efficiency,
    perf_per_watt,
)
from repro.core.profiler import EnergyProfile, ProfilePoint
from repro.core.report import format_table


class TestMetrics:
    def test_efficiency_definition(self):
        assert energy_efficiency(100.0, 50.0) == pytest.approx(2.0)

    def test_perf_per_watt_identity(self):
        """EE = Work/Energy = (Work/Time)/(Energy/Time) = Perf/Power,
        the paper's §2.1 identity."""
        work, seconds, joules = 120.0, 4.0, 60.0
        ee = energy_efficiency(work, joules)
        ppw = perf_per_watt(work / seconds, joules / seconds)
        assert ee == pytest.approx(ppw)

    def test_fixed_work_min_energy_max_efficiency(self):
        """For fixed work, maximizing EE == minimizing energy (§2.1)."""
        energies = [300.0, 250.0, 400.0]
        best_by_ee = max(energies, key=lambda e: energy_efficiency(10.0, e))
        assert best_by_ee == min(energies)

    def test_validation(self):
        with pytest.raises(ReproError):
            energy_efficiency(1.0, 0.0)
        with pytest.raises(ReproError):
            perf_per_watt(-1.0, 10.0)


class TestTco:
    def make(self):
        return TcoModel(hardware_cost_dollars=10_000.0,
                        electricity_dollars_per_kwh=0.10)

    def test_energy_cost_arithmetic(self):
        tco = self.make()
        # 1000 W burdened to 1500 W for 3 years
        expected_kwh = 1.5 * 3 * 365.25 * 24
        assert tco.energy_cost(1000.0) == pytest.approx(expected_kwh * 0.10)

    def test_total_cost_includes_hardware(self):
        tco = self.make()
        assert tco.total_cost(0.0) == pytest.approx(10_000.0)

    def test_scale_out_beats_waste_when_energy_dominates(self):
        """§5.3: at high energy prices, adding hardware at constant EE
        beats burning power for diminishing returns."""
        pricey = TcoModel(hardware_cost_dollars=5_000.0,
                          electricity_dollars_per_kwh=0.50)
        # option A: one node pushed hard: 2x work at 3x power
        a = pricey.cost_per_unit_work(average_watts=1500.0,
                                      work_per_second=2.0)
        # option B: two nodes at the efficient point: 2x work at 2x power
        b = TcoModel(hardware_cost_dollars=10_000.0,
                     electricity_dollars_per_kwh=0.50).cost_per_unit_work(
            average_watts=1000.0, work_per_second=2.0)
        assert b < a

    def test_cost_per_unit_work_validation(self):
        with pytest.raises(ReproError):
            self.make().cost_per_unit_work(100.0, 0.0)


class TestProfiler:
    def synthetic_profile(self):
        # classic diminishing returns: time ~ 1/n + floor, power ~ n
        def evaluate(n):
            seconds = 10.0 / n + 2.0
            watts = 100.0 + 15.0 * n
            return ProfilePoint(n, seconds, seconds * watts)

        return EnergyProfile("disks", [evaluate(n)
                                       for n in (2, 4, 8, 16, 32)])

    def test_best_performance_is_widest(self):
        profile = self.synthetic_profile()
        assert profile.best_performance().knob_value == 32

    def test_best_efficiency_interior(self):
        profile = self.synthetic_profile()
        best = profile.best_efficiency().knob_value
        assert 2 < best < 32  # the knee is interior: diminishing returns

    def test_tradeoff_signs(self):
        gain, drop = self.synthetic_profile().tradeoff()
        assert gain > 0
        assert 0 < drop < 1

    def test_point_derived_metrics(self):
        p = ProfilePoint("x", seconds=2.0, energy_joules=100.0,
                         work_done=4.0)
        assert p.performance == pytest.approx(2.0)
        assert p.efficiency == pytest.approx(0.04)

    def test_empty_profile_rejected(self):
        with pytest.raises(ReproError):
            EnergyProfile("x").best_efficiency()


class TestReport:
    def test_basic_table(self):
        text = format_table(["disks", "time"], [(36, 879.5), (66, 596.1)])
        lines = text.splitlines()
        assert "disks" in lines[0]
        assert "36" in lines[2]
        assert "879.50" in lines[2]

    def test_title(self):
        text = format_table(["a"], [(1,)], title="Figure 1")
        assert text.splitlines()[0] == "Figure 1"

    def test_mismatched_row_rejected(self):
        with pytest.raises(ReproError):
            format_table(["a", "b"], [(1,)])

    def test_large_and_small_floats(self):
        text = format_table(["v"], [(123456.0,), (0.00012,)])
        assert "1.23e+05" in text
        assert "0.00012" in text
