"""Failure detection, deploy-failure accounting, failover."""

import pytest

from repro.apps.ips import IpsApp, parse_snort_rules
from repro.bootstrap import connect_inproc
from repro.controller.obc import OpenBoxController
from repro.controller.orchestrator import OrchestrationLoop
from repro.controller.scaling import ScalingManager, ScalingPolicy
from repro.controller.stats import ObiStatsTracker
from repro.controller.steering import ServiceChain, SteeringHop, TrafficSteering
from repro.net.builder import make_tcp_packet
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.protocol.codec import PROTOCOL_VERSION
from repro.protocol.errors import ErrorCode, ProtocolError
from repro.protocol.messages import (
    GlobalStatsResponse,
    Hello,
    SetProcessingGraphResponse,
)
from repro.sim.events import EventScheduler
from repro.transport.base import ChannelClosed
from repro.transport.faults import FaultPlan, FaultyChannel

RULES = 'alert tcp any any -> any 80 (msg:"bad"; content:"attack"; sid:1;)'


class TestStatsTrackerLiveness:
    def test_history_trimmed_on_every_append(self):
        tracker = ObiStatsTracker(history_limit=3)
        for i in range(10):
            tracker.record_stats(
                GlobalStatsResponse(obi_id="a", cpu_load=float(i)), now=float(i)
            )
        history = tracker.view("a").stats_history
        assert len(history) == 3
        assert [load for _ts, load in history] == [7.0, 8.0, 9.0]

    def test_history_limit_validated(self):
        with pytest.raises(ValueError):
            ObiStatsTracker(history_limit=0)

    def test_stats_response_counts_as_liveness(self):
        tracker = ObiStatsTracker(liveness_timeout=10.0)
        tracker.record_keepalive("a", now=0.0)
        tracker.record_stats(GlobalStatsResponse(obi_id="a"), now=50.0)
        # The stats answer at t=50 is proof of life even though the last
        # keepalive is ancient.
        assert tracker.is_live("a", now=55.0)
        assert tracker.dead_obis(now=70.0) == ["a"]
        assert tracker.live_obis(now=55.0) == ["a"]


class _RejectingChannel:
    """A downstream channel whose OBI rejects every graph."""

    def __init__(self):
        self.requests = 0

    def request(self, message, timeout=None):
        self.requests += 1
        return SetProcessingGraphResponse(
            xid=message.xid, ok=False, detail="no such element"
        )

    def notify(self, message):
        pass

    def set_handler(self, handler):
        pass

    def close(self):
        pass


class _DeadChannel:
    def request(self, message, timeout=None):
        raise ChannelClosed("peer gone")

    def notify(self, message):
        raise ChannelClosed("peer gone")

    def set_handler(self, handler):
        pass

    def close(self):
        pass


def _attach(controller, obi_id, channel, segment="corp"):
    """Handshake a fake OBI and bind a hand-rolled channel."""
    controller.handle_message(
        Hello(obi_id=obi_id, segment=segment, version=PROTOCOL_VERSION)
    )
    controller.connect_obi(obi_id, channel)


class TestDeployFailureAccounting:
    def make_controller(self, **kwargs):
        controller = OpenBoxController(auto_deploy=False, **kwargs)
        controller.register_application(IpsApp(
            "ips", parse_snort_rules(RULES), segment="corp",
        ))
        return controller

    def test_rejection_is_counted_and_alerted(self):
        controller = self.make_controller()
        _attach(controller, "bad-obi", _RejectingChannel())
        with pytest.raises(ProtocolError):
            controller.deploy("bad-obi")
        assert controller.failed_deployments == 1
        assert controller.consecutive_deploy_failures["bad-obi"] == 1
        assert list(controller.deploy_failures) == [
            ("bad-obi", "no such element")
        ]
        # Surfaced through the normal alert path, attributed to the
        # controller itself.
        assert len(controller.alerts) == 1
        alert = controller.alerts[0]
        assert alert.origin_app == controller.CONTROLLER_ORIGIN
        assert alert.severity == "error"
        assert "bad-obi" in alert.message

    def test_channel_failure_is_counted(self):
        controller = self.make_controller()
        _attach(controller, "dead-obi", _DeadChannel())
        with pytest.raises(ProtocolError) as excinfo:
            controller.deploy("dead-obi")
        assert excinfo.value.code == ErrorCode.NOT_CONNECTED
        assert controller.failed_deployments == 1

    def test_success_resets_consecutive_counter(self):
        controller = self.make_controller()
        _attach(controller, "bad-obi", _RejectingChannel())
        for _ in range(2):
            with pytest.raises(ProtocolError):
                controller.deploy("bad-obi")
        assert controller.consecutive_deploy_failures["bad-obi"] == 2
        # The OBI recovers: swap in a real instance under the same id.
        obi = OpenBoxInstance(ObiConfig(obi_id="bad-obi", segment="corp"))
        connect_inproc(controller, obi)
        controller.deploy("bad-obi")
        assert "bad-obi" not in controller.consecutive_deploy_failures
        # Total (monotonic) count is untouched by the recovery.
        assert controller.failed_deployments == 2

    def test_audit_deque_is_bounded(self):
        controller = OpenBoxController(auto_deploy=False, max_deploy_failures=5)
        controller.register_application(IpsApp(
            "ips", parse_snort_rules(RULES), segment="corp",
        ))
        _attach(controller, "bad-obi", _RejectingChannel())
        for _ in range(12):
            with pytest.raises(ProtocolError):
                controller.deploy("bad-obi")
        assert len(controller.deploy_failures) == 5
        assert controller.failed_deployments == 12

    def test_one_bad_obi_does_not_block_the_rest(self):
        controller = OpenBoxController(auto_deploy=False)
        good = OpenBoxInstance(ObiConfig(obi_id="good-obi", segment="corp"))
        connect_inproc(controller, good)
        _attach(controller, "bad-obi", _RejectingChannel())
        # Registration triggers no deploy (auto_deploy=False); push now.
        controller.register_application(IpsApp(
            "ips", parse_snort_rules(RULES), segment="corp",
        ))
        controller.redeploy_all()  # must NOT raise: one good OBI deployed
        assert controller.obis["good-obi"].deployed is not None
        assert controller.failed_deployments == 1

    def test_all_obis_rejecting_raises(self):
        controller = self.make_controller()
        _attach(controller, "bad-obi", _RejectingChannel())
        with pytest.raises(ProtocolError):
            controller.redeploy_all()


class FailoverProvisioner:
    def __init__(self, scheduler):
        self.controller = None
        self.scheduler = scheduler
        self.instances = {}
        self._n = 0

    def provision(self, like_obi_id):
        self._n += 1
        template = self.controller.obis[like_obi_id]
        new_id = f"replacement-{self._n}"
        obi = OpenBoxInstance(
            ObiConfig(obi_id=new_id, segment=template.segment),
            clock=lambda: self.scheduler.now,
        )
        connect_inproc(self.controller, obi)
        self.instances[new_id] = obi
        return new_id

    def deprovision(self, obi_id):
        self.controller.disconnect_obi(obi_id)
        self.instances.pop(obi_id, None)


@pytest.fixture
def failover_world():
    """Two-replica IPS group where obi-1's channel can be killed."""
    scheduler = EventScheduler()
    controller = OpenBoxController(clock=lambda: scheduler.now)
    obis, chaos = {}, {}
    for obi_id in ("obi-1", "obi-2"):
        obi = OpenBoxInstance(ObiConfig(obi_id=obi_id, segment="corp"),
                              clock=lambda: scheduler.now)
        connect_inproc(
            controller, obi,
            wrap_downstream=lambda ch, i=obi_id: chaos.setdefault(
                i, FaultyChannel(ch, FaultPlan())
            ),
        )
        obis[obi_id] = obi
    controller.register_application(IpsApp(
        "ips", parse_snort_rules(RULES), segment="corp", quarantine=True,
    ))
    steering = TrafficSteering()
    steering.register_chain(
        ServiceChain("corp", [SteeringHop("ips-group", ["obi-1", "obi-2"])]),
        default=True,
    )
    provisioner = FailoverProvisioner(scheduler)
    provisioner.controller = controller
    # scale_down_load=0 disables load-based scale-down so the only
    # membership changes come from the failover stage under test.
    scaling = ScalingManager(controller.stats, provisioner,
                             ScalingPolicy(scale_down_load=0.0))
    scaling.register_group("ips-group", ["obi-1", "obi-2"])
    loop = OrchestrationLoop(controller, scaling, steering)
    return scheduler, controller, obis, chaos, provisioner, loop, steering


class TestFailover:
    def test_silent_obi_fails_over_to_survivor(self, failover_world):
        scheduler, controller, obis, chaos, _prov, loop, steering = failover_world

        # obi-1 quarantines a flow; a healthy tick snapshots that state.
        attack = make_tcp_packet("9.9.9.9", "2.2.2.2", 7777, 80, payload=b"attack")
        assert obis["obi-1"].process_packet(attack).alerts
        scheduler.now = 1.0
        report = loop.tick()
        assert report.dead == [] and "obi-1" in loop.snapshots

        # obi-1 crashes; past the liveness timeout only obi-2 answers.
        chaos["obi-1"].kill()
        timeout = controller.stats.liveness_timeout
        scheduler.now = 1.0 + timeout + 1.0
        report = loop.tick()

        assert report.poll_failures == ["obi-1"]
        assert report.dead == ["obi-1"]
        assert report.failovers == [("obi-1", "obi-2")]
        assert report.migrations == [("obi-1", "obi-2")]
        assert controller.stats.failures == [("obi-1", scheduler.now)]
        # obi-1 is gone from the controller, the group, and steering.
        assert "obi-1" not in controller.obis
        assert loop.scaling.group_members("ips-group") == ["obi-2"]
        assert steering.chains["corp"].hops[0].replicas == ["obi-2"]
        # The quarantine verdict survived the crash: the follow-up packet
        # of the same flow is dropped on the survivor with no fresh alert.
        followup = make_tcp_packet("9.9.9.9", "2.2.2.2", 7777, 80, payload=b"x")
        assert obis["obi-2"].process_packet(followup).dropped

    def test_detection_within_one_liveness_timeout(self, failover_world):
        scheduler, controller, obis, chaos, _prov, loop, _steering = failover_world
        timeout = controller.stats.liveness_timeout
        scheduler.schedule_every(timeout / 3, loop.tick)
        chaos["obi-1"].kill()
        kill_time = scheduler.now
        scheduler.run_until(kill_time + timeout + timeout / 3 + 0.001)
        declared = [at for obi, at in controller.stats.failures if obi == "obi-1"]
        assert declared, "obi-1 was never declared dead"
        # Declared within one liveness_timeout of becoming detectable
        # (first tick after silence exceeds the timeout).
        assert declared[0] - kill_time <= timeout + timeout / 3 + 0.001

    def test_last_replica_gets_replacement(self, failover_world):
        scheduler, controller, obis, chaos, prov, loop, steering = failover_world
        # Shrink the group to obi-1 only, then kill it.
        loop.scaling.remove_member("ips-group", "obi-2")
        controller.disconnect_obi("obi-2")
        attack = make_tcp_packet("9.9.9.9", "2.2.2.2", 7777, 80, payload=b"attack")
        obis["obi-1"].process_packet(attack)
        scheduler.now = 1.0
        loop.tick()

        chaos["obi-1"].kill()
        scheduler.now = 1.0 + controller.stats.liveness_timeout + 1.0
        report = loop.tick()

        assert report.failovers == [("obi-1", "replacement-1")]
        replacement = prov.instances["replacement-1"]
        assert loop.scaling.group_members("ips-group") == ["replacement-1"]
        assert steering.chains["corp"].hops[0].replicas == ["replacement-1"]
        # Merged graph redeployed and state restored on the replacement.
        assert controller.obis["replacement-1"].deployed is not None
        followup = make_tcp_packet("9.9.9.9", "2.2.2.2", 7777, 80, payload=b"x")
        assert replacement.process_packet(followup).dropped

    def test_persistent_deploy_failures_trigger_failover(self, failover_world):
        scheduler, controller, obis, chaos, _prov, loop, _steering = failover_world
        # obi-1 keeps answering polls (live!) but rejects every deploy.
        controller.obis["obi-1"].channel = _RejectingChannel()
        for _ in range(loop.DEPLOY_FAILURE_THRESHOLD):
            with pytest.raises(ProtocolError):
                controller.deploy("obi-1")
        scheduler.now = 1.0
        report = loop.tick()
        assert report.dead == ["obi-1"]
        assert report.failovers == [("obi-1", "obi-2")]
        assert "obi-1" not in controller.obis

    def test_healthy_group_never_fails_over(self, failover_world):
        scheduler, _controller, _obis, _chaos, _prov, loop, _steering = failover_world
        scheduler.schedule_every(10.0, loop.tick)
        scheduler.run_until(500.0)
        assert all(r.dead == [] and r.failovers == [] for r in loop.reports)
