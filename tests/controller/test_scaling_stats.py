"""Load tracking and scaling-decision tests."""

from repro.controller.scaling import ScalingManager, ScalingPolicy
from repro.controller.stats import ObiStatsTracker
from repro.protocol.messages import GlobalStatsResponse


class FakeProvisioner:
    def __init__(self):
        self.provisioned = []
        self.deprovisioned = []
        self._counter = 0

    def provision(self, like_obi_id):
        self._counter += 1
        new_id = f"{like_obi_id}-r{self._counter}"
        self.provisioned.append(new_id)
        return new_id

    def deprovision(self, obi_id):
        self.deprovisioned.append(obi_id)


def _feed_load(tracker, obi_id, load, now=0.0, samples=5):
    for index in range(samples):
        tracker.record_stats(
            GlobalStatsResponse(obi_id=obi_id, cpu_load=load), now + index
        )


class TestStatsTracker:
    def test_keepalive_liveness(self):
        tracker = ObiStatsTracker(liveness_timeout=10.0)
        tracker.record_keepalive("a", now=0.0)
        tracker.record_keepalive("b", now=5.0)
        assert set(tracker.live_obis(now=8.0)) == {"a", "b"}
        assert tracker.dead_obis(now=12.0) == ["a"]

    def test_liveness_defaults_to_injected_clock(self):
        # The sweep must ride the controller's injectable monotonic
        # clock, never the wall clock: callers that omit ``now`` get
        # the injected clock's time.
        t = {"now": 0.0}
        tracker = ObiStatsTracker(liveness_timeout=10.0,
                                  clock=lambda: t["now"])
        tracker.record_keepalive("a", now=0.0)
        assert tracker.is_live("a")
        t["now"] = 11.0
        assert not tracker.is_live("a")
        assert tracker.dead_obis() == ["a"]
        assert tracker.live_obis() == []

    def test_smoothed_load(self):
        tracker = ObiStatsTracker()
        for load in (0.2, 0.4, 0.6):
            tracker.record_stats(GlobalStatsResponse(obi_id="a", cpu_load=load), 0.0)
        view = tracker.view("a")
        assert abs(view.smoothed_load() - 0.4) < 1e-9
        assert view.cpu_load == 0.6

    def test_history_bounded(self):
        tracker = ObiStatsTracker(history_limit=3)
        for index in range(10):
            tracker.record_stats(GlobalStatsResponse(obi_id="a", cpu_load=0.1), index)
        assert len(tracker.view("a").stats_history) == 3

    def test_forget(self):
        tracker = ObiStatsTracker()
        tracker.record_keepalive("a", 0.0)
        tracker.forget("a")
        assert tracker.view("a") is None


class TestScalingManager:
    def _manager(self, policy=None):
        tracker = ObiStatsTracker()
        provisioner = FakeProvisioner()
        manager = ScalingManager(tracker, provisioner, policy or ScalingPolicy(cooldown=0.0))
        return manager, tracker, provisioner

    def test_scale_up_on_high_load(self):
        manager, tracker, provisioner = self._manager()
        manager.register_group("fw", ["obi-1"])
        _feed_load(tracker, "obi-1", 0.95)
        actions = manager.evaluate(now=10.0)
        assert len(actions) == 1
        assert actions[0].kind == "scale_up"
        assert provisioner.provisioned == ["obi-1-r1"]
        assert manager.group_members("fw") == ["obi-1", "obi-1-r1"]

    def test_scale_down_on_low_load(self):
        manager, tracker, provisioner = self._manager()
        manager.register_group("fw", ["obi-1", "obi-2"])
        _feed_load(tracker, "obi-1", 0.1)
        _feed_load(tracker, "obi-2", 0.05)
        actions = manager.evaluate(now=10.0)
        assert actions[0].kind == "scale_down"
        assert provisioner.deprovisioned == ["obi-2"]  # least loaded victim
        assert manager.group_members("fw") == ["obi-1"]

    def test_min_replicas_respected(self):
        manager, tracker, _prov = self._manager()
        manager.register_group("fw", ["obi-1"])
        _feed_load(tracker, "obi-1", 0.0)
        assert manager.evaluate(now=10.0) == []

    def test_max_replicas_respected(self):
        manager, tracker, _prov = self._manager(
            ScalingPolicy(cooldown=0.0, max_replicas=1)
        )
        manager.register_group("fw", ["obi-1"])
        _feed_load(tracker, "obi-1", 1.0)
        assert manager.evaluate(now=10.0) == []

    def test_mid_band_load_no_action(self):
        manager, tracker, _prov = self._manager()
        manager.register_group("fw", ["obi-1", "obi-2"])
        _feed_load(tracker, "obi-1", 0.5)
        _feed_load(tracker, "obi-2", 0.5)
        assert manager.evaluate(now=10.0) == []

    def test_cooldown_throttles_actions(self):
        manager, tracker, provisioner = self._manager(
            ScalingPolicy(cooldown=100.0)
        )
        manager.register_group("fw", ["obi-1"])
        _feed_load(tracker, "obi-1", 1.0)
        assert len(manager.evaluate(now=10.0)) == 1
        replica = provisioner.provisioned[0]
        # Both replicas stay saturated, but the cooldown blocks action...
        _feed_load(tracker, "obi-1", 1.0, now=20.0)
        _feed_load(tracker, replica, 1.0, now=20.0)
        assert manager.evaluate(now=20.0) == []
        # ...until it elapses.
        assert len(manager.evaluate(now=200.0)) == 1

    def test_actions_audit_trail(self):
        manager, tracker, _prov = self._manager()
        manager.register_group("fw", ["obi-1"])
        _feed_load(tracker, "obi-1", 1.0)
        manager.evaluate(now=1.0)
        assert len(manager.actions) == 1
        assert manager.actions[0].group == "fw"
