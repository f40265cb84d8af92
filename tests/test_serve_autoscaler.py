"""The autoscaler's crash-replacement path: cooldown bypass.

The control loop's first branch fires when the active pool has fallen
*below* ``min_workers`` -- something only faults can cause -- and
replaces the lost capacity immediately, explicitly bypassing the
cooldown that paces every load-driven action.  These tests pin that
contract from both directions: under-floor replacement ignores an
active cooldown, while load-driven actions still respect it (including
the cooldown a replacement itself starts).
"""

import pytest

from repro import FaultPlan, RecoveryConfig, run_service
from repro.faults import WorkerCrash
from repro.fleet import FleetState
from repro.serve import Autoscaler, AutoscalerConfig


class StubService:
    """Minimal stand-in exposing exactly what the autoscaler reads: the
    master's active set and backlog, the admission depth, and a real
    fleet mirror whose active/outstanding planes give the busy fraction."""

    class _Master:
        def __init__(self):
            self.active_workers = []
            self.outstanding = 0

    class _Admission:
        depth = 0

    def __init__(self, workers=4, busy=True):
        self.master = self._Master()
        self.admission = self._Admission()
        self.fleet = FleetState()
        self.closed = False
        self.actions = []
        for i in range(workers):
            self._join(f"w{i}", busy)

    def _join(self, name, busy):
        self.master.active_workers.append(name)
        self.fleet.report(self.fleet.on_join(name), int(busy), 0)

    def scale_up(self):
        self._join(f"e{len(self.actions)}", True)
        self.actions.append("up")

    def crash(self, count=1):
        for _ in range(count):
            self.fleet.on_fail(self.master.active_workers.pop())

    def scale_down(self):
        self.fleet.on_retire(self.master.active_workers.pop())
        self.actions.append("down")


class TestCrashReplacementBypassesCooldown:
    def test_below_floor_replaces_despite_active_cooldown(self):
        service = StubService(workers=3)
        scaler = Autoscaler(
            service, AutoscalerConfig(min_workers=3, cooldown_s=60.0)
        )
        # A scaling action at t=100 arms the 60 s cooldown...
        scaler._last_action_at = 100.0
        service.crash()
        # ...yet the very next tick, deep inside the window, replaces.
        scaler._evaluate(101.0)
        assert service.actions == ["up"]
        assert len(service.master.active_workers) == 3
        assert scaler.scale_ups == 1

    def test_one_replacement_per_tick_until_floor_restored(self):
        service = StubService(workers=4)
        scaler = Autoscaler(
            service, AutoscalerConfig(min_workers=4, cooldown_s=60.0)
        )
        scaler._last_action_at = 0.0
        service.crash(count=3)
        ticks = []
        for step in range(5):
            scaler._evaluate(1.0 + step)
            ticks.append(len(service.master.active_workers))
        # 1 -> 2 -> 3 -> 4, then the floor holds and nothing more fires.
        assert ticks == [2, 3, 4, 4, 4]
        assert service.actions == ["up", "up", "up"]

    def test_replacement_rearms_cooldown_for_load_actions(self):
        service = StubService(workers=2, busy=True)
        scaler = Autoscaler(
            service,
            AutoscalerConfig(
                min_workers=2, max_workers=10, scale_up_backlog=3.0, cooldown_s=30.0
            ),
        )
        service.crash()
        service.master.outstanding = 1000  # overload throughout
        scaler._evaluate(10.0)  # crash replacement (bypass path)
        assert service.actions == ["up"]
        # Load-driven growth is wanted but must now wait out the
        # cooldown the replacement just started.
        scaler._evaluate(15.0)
        assert service.actions == ["up"]
        scaler._evaluate(40.1)  # 30 s after the replacement: allowed
        assert service.actions == ["up", "up"]

    def test_at_floor_cooldown_still_gates(self):
        # Control case: the bypass is *only* for under-floor fleets.
        service = StubService(workers=2, busy=True)
        scaler = Autoscaler(
            service,
            AutoscalerConfig(
                min_workers=2, max_workers=10, scale_up_backlog=3.0, cooldown_s=30.0
            ),
        )
        scaler._last_action_at = 0.0
        service.master.outstanding = 1000
        scaler._evaluate(10.0)  # overloaded, at floor, inside cooldown
        assert service.actions == []


class TestCrashReplacementEndToEnd:
    @pytest.mark.faults
    def test_crashed_floor_capacity_is_replaced_mid_run(self):
        # Kill two of five workers early with no recovery renewals: the
        # only way the fleet can climb back to the floor is the
        # autoscaler's replacement branch, whose cooldown (longer than
        # the run) would block every load-driven action.
        plan = FaultPlan(
            crashes=(
                WorkerCrash(worker="w1", at_s=5.0),
                WorkerCrash(worker="w2", at_s=6.0),
            ),
            recovery=RecoveryConfig(max_redispatches=4),
        )
        report = run_service(
            scheduler="bidding",
            rate=1.0,
            seed=5,
            duration_s=60.0,
            faults=plan,
            autoscale=True,
            min_workers=5,
            max_workers=8,
            cooldown_s=600.0,
            check_interval_s=2.0,
        )
        assert report.crashes == 2
        assert report.scale_ups >= 2
        assert report.workers_final >= 5
        assert report.completed + report.failed == report.admitted
