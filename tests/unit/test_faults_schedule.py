"""Unit tests for fault schedules and degradation policies."""

import pytest

from repro.faults import (FAULT_KINDS, FaultError, FaultEvent, FaultMix,
                          FaultSchedule, RetryPolicy, ShedPolicy,
                          build_fault_schedule, degraded_speed_factor)


class TestFaultEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(FaultError, match="unknown fault kind"):
            FaultEvent(kind="meteor", node=0, start=1.0, duration=1.0)

    def test_rejects_negative_node_and_bad_times(self):
        with pytest.raises(FaultError, match="negative node"):
            FaultEvent(kind="crash", node=-1, start=1.0, duration=1.0)
        with pytest.raises(FaultError, match="duration"):
            FaultEvent(kind="crash", node=0, start=1.0, duration=0.0)
        with pytest.raises(FaultError, match="start"):
            FaultEvent(kind="crash", node=0, start=-1.0, duration=1.0)

    def test_degraded_kinds_need_severity_in_unit_interval(self):
        for kind in ("throttle", "disk"):
            with pytest.raises(FaultError, match="severity"):
                FaultEvent(kind=kind, node=0, start=0.0, duration=1.0,
                           severity=0.0)
            with pytest.raises(FaultError, match="severity"):
                FaultEvent(kind=kind, node=0, start=0.0, duration=1.0,
                           severity=1.5)
            FaultEvent(kind=kind, node=0, start=0.0, duration=1.0,
                       severity=0.7)  # valid

    def test_end_and_roundtrip(self):
        event = FaultEvent(kind="throttle", node=2, start=3.0,
                           duration=4.0, severity=0.5)
        assert event.end == 7.0
        assert FaultEvent.from_dict(event.to_dict()) == event


def _of(schedule, kind):
    return [e for e in schedule.events if e.kind == kind]


class TestFaultSchedule:
    def events(self):
        return (
            FaultEvent(kind="timeout", node=1, start=9.0, duration=1.0),
            FaultEvent(kind="crash", node=0, start=2.0, duration=5.0),
            FaultEvent(kind="crash", node=1, start=2.0, duration=5.0),
        )

    def test_events_are_time_ordered(self):
        schedule = FaultSchedule(n_nodes=2, horizon_seconds=20.0,
                                 events=self.events())
        starts = [e.start for e in schedule.events]
        assert starts == sorted(starts)
        assert schedule.events[0].node == 0  # node breaks the tie

    def test_rejects_out_of_range_node(self):
        with pytest.raises(FaultError, match="covers 1 nodes"):
            FaultSchedule(n_nodes=1, horizon_seconds=20.0,
                          events=self.events())

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(FaultError, match="at least one node"):
            FaultSchedule(n_nodes=0, horizon_seconds=1.0)
        with pytest.raises(FaultError, match="horizon"):
            FaultSchedule(n_nodes=1, horizon_seconds=0.0)

    def test_roundtrip(self):
        schedule = FaultSchedule(n_nodes=2, horizon_seconds=20.0,
                                 events=self.events(), seed=7)
        again = FaultSchedule.from_dict(schedule.to_dict())
        assert again == schedule
        assert again.to_dict() == schedule.to_dict()


class TestDegradedSpeedFactor:
    def test_raid5_survivor_arithmetic(self):
        # width 8: survivors serve 7/8 of nominal, minus rebuild drag
        assert degraded_speed_factor(8) == pytest.approx((7 / 8) / 1.2)
        assert degraded_speed_factor(2) == pytest.approx(0.5 / 1.2)

    def test_validation(self):
        with pytest.raises(FaultError, match="width"):
            degraded_speed_factor(1)


class TestBuildFaultSchedule:
    def test_same_seed_same_schedule(self):
        a = build_fault_schedule(4, 7200.0, seed=11)
        b = build_fault_schedule(4, 7200.0, seed=11)
        assert a == b
        assert build_fault_schedule(4, 7200.0, seed=12) != a

    def test_lanes_are_independent(self):
        # cranking the crash rate must not move any throttle event:
        # each (node, kind) lane draws from its own SeedSequence
        base = build_fault_schedule(4, 7200.0, seed=3)
        loud = build_fault_schedule(4, 7200.0, seed=3,
                                    crash_rate_per_node_hour=10.0)
        assert _of(base, "throttle") == _of(loud, "throttle")
        assert _of(base, "disk") == _of(loud, "disk")
        assert len(_of(loud, "crash")) > len(_of(base, "crash"))

    def test_intensity_scales_every_lane(self):
        quiet = build_fault_schedule(8, 7200.0, seed=0, intensity=0.25)
        loud = build_fault_schedule(8, 7200.0, seed=0, intensity=4.0)
        assert len(loud) > len(quiet)
        zero = build_fault_schedule(8, 7200.0, seed=0, intensity=0.0)
        assert len(zero) == 0

    def test_disk_severity_comes_from_raid_width(self):
        schedule = build_fault_schedule(
            4, 36000.0, seed=5, disk_rate_per_node_hour=2.0,
            raid_width=8)
        disks = _of(schedule, "disk")
        assert disks, "expected at least one disk event at this rate"
        assert all(e.severity == degraded_speed_factor(8) for e in disks)

    def test_mix_and_kwargs_are_exclusive(self):
        with pytest.raises(FaultError, match="not both"):
            build_fault_schedule(2, 100.0, mix=FaultMix(), intensity=2.0)

    def test_mix_validation(self):
        with pytest.raises(FaultError, match="negative"):
            FaultMix(crash_rate_per_node_hour=-1.0)
        with pytest.raises(FaultError, match="positive"):
            FaultMix(crash_downtime_seconds=0.0)
        with pytest.raises(FaultError, match="DVFS"):
            FaultMix(throttle_dvfs_fraction=1.5)

    def test_kind_lane_order_is_frozen(self):
        # the lane index seeds the PCG64 stream; reordering FAULT_KINDS
        # would silently reshuffle every published schedule
        assert FAULT_KINDS == ("crash", "throttle", "disk", "timeout")


class TestRetryPolicy:
    def test_backoff_is_exponential(self):
        policy = RetryPolicy(base_backoff_seconds=0.1)
        assert policy.backoff_seconds(1) == pytest.approx(0.1)
        assert policy.backoff_seconds(3) == pytest.approx(0.4)
        with pytest.raises(FaultError, match="after a failure"):
            policy.backoff_seconds(0)

    def test_attempt_budget(self):
        policy = RetryPolicy(max_attempts=2)
        assert not policy.exhausted(1)
        assert policy.exhausted(2)
        assert policy.exhausted(5)

    def test_validation(self):
        with pytest.raises(FaultError, match="at least one"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(FaultError, match="negative"):
            RetryPolicy(base_backoff_seconds=-1.0)


class TestShedPolicy:
    def test_threshold_scales_with_sla(self):
        shed = ShedPolicy(slack_fraction=0.5)
        assert shed.threshold_seconds(2.0) == 1.0
        assert shed.threshold_seconds(15.0) == 7.5

    def test_tight_sla_sheds_first(self):
        shed = ShedPolicy(slack_fraction=0.5)
        assert shed.sheds(1.2, 0.05, sla_p95_seconds=2.0)
        assert not shed.sheds(1.2, 0.05, sla_p95_seconds=15.0)

    def test_validation(self):
        with pytest.raises(FaultError, match="positive"):
            ShedPolicy(slack_fraction=0.0)
