"""The standard chaos topology: leader + standby + OBIs + data plane.

:class:`ChaosEnv` stands up the full system the integration suite grew
piecewise — a lease-managed journaled leader, a hot standby tailing the
journal, two (or more) checkpointing OBIs forwarding real packets
through the functional network simulator — with a chaos instrument
pre-registered at every fault point:

* every controller→OBI channel and the replication link are
  :class:`~repro.transport.faults.FaultyChannel` proxies;
* the leader journal, the standby replica journal, and each OBI's
  flow-state checkpoint ride a
  :class:`~repro.chaos.storage.FaultyStorage` backend;
* every process's clock is a :class:`~repro.chaos.clocks.ChaosClock`
  over the virtual-time scheduler;
* the leader and each OBI are :class:`~repro.chaos.points.ProcessPoint`
  kill/revive targets.

Everything is seeded and runs on the simulator's virtual clock — the
same schedule over the same seed reproduces the same run, byte for
byte. Scenario operations (``repro.chaos.scenario``) act on this
environment exclusively through the fault-point registry plus the small
verb set below, which is what keeps the random search's vocabulary
bounded.
"""

from __future__ import annotations

import os
from typing import Any

from repro.bootstrap import connect_inproc, reconnect_inproc, rehome_inproc
from repro.chaos.clocks import ChaosClock
from repro.chaos.points import ChaosRegistry, ProcessPoint
from repro.chaos.storage import FaultyStorage, StoragePlan
from repro.controller.apps import AppStatement, FunctionApplication
from repro.controller.journal import StateJournal
from repro.controller.lease import InProcLeaseStore, LeaseManager
from repro.controller.migration import StateMigrator
from repro.controller.obc import OpenBoxController
from repro.controller.orchestrator import OrchestrationLoop, TickReport
from repro.controller.reconcile import AntiEntropyLoop
from repro.controller.replication import ReplicationHub, StandbyController
from repro.controller.scaling import ScalingManager, ScalingPolicy
from repro.core.blocks import Block
from repro.core.classify.rules import HeaderRule, PortRange
from repro.core.graph import ProcessingGraph
from repro.net.builder import make_tcp_packet
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.sim.network import SimNetwork
from repro.transport.faults import FaultPlan, FaultyChannel
from repro.transport.inproc import InProcPair

LEASE_TTL = 30.0


def _fw_graph(name: str = "fw") -> ProcessingGraph:
    """Firewall: drop telnet, pass the rest (paper Figure 2(a), shrunk)."""
    graph = ProcessingGraph(name)
    read = Block("FromDevice", name=f"{name}_read", config={"devname": "in"})
    classify = Block(
        "HeaderClassifier",
        name=f"{name}_hc",
        config={
            "rules": [HeaderRule(dst_port=PortRange.exact(23), port=0)],
            "default_port": 1,
        },
        origin_app=name,
    )
    drop = Block("Discard", name=f"{name}_drop")
    out = Block("ToDevice", name=f"{name}_out", config={"devname": "out"})
    graph.add_blocks([read, classify, drop, out])
    graph.connect(read, classify)
    graph.connect(classify, drop, 0)
    graph.connect(classify, out, 1)
    graph.validate()
    return graph


def _ips_graph(name: str = "ips") -> ProcessingGraph:
    """IPS: alert on ssh, pass everything (paper Figure 2(b), shrunk)."""
    graph = ProcessingGraph(name)
    read = Block("FromDevice", name=f"{name}_read", config={"devname": "in"})
    classify = Block(
        "HeaderClassifier",
        name=f"{name}_hc",
        config={
            "rules": [HeaderRule(dst_port=PortRange.exact(22), port=0)],
            "default_port": 1,
        },
        origin_app=name,
    )
    alert = Block("Alert", name=f"{name}_alert",
                  config={"message": f"{name} alert"}, origin_app=name)
    out = Block("ToDevice", name=f"{name}_out", config={"devname": "out"})
    graph.add_blocks([read, classify, alert, out])
    graph.connect(read, classify)
    graph.connect(classify, alert, 0)
    graph.connect(alert, out)
    graph.connect(classify, out, 1)
    graph.validate()
    return graph


def _fw_app() -> FunctionApplication:
    return FunctionApplication(
        "fw", lambda: [AppStatement(graph=_fw_graph("fw"))], priority=1
    )


def _ips_app() -> FunctionApplication:
    return FunctionApplication(
        "ips", lambda: [AppStatement(graph=_ips_graph("ips"))], priority=2
    )


_APP_FACTORIES = {"fw": _fw_app, "ips": _ips_app}

PACKETS = {
    "pass": lambda: make_tcp_packet("44.0.0.1", "192.168.0.9", 9999, 12345),
    "drop": lambda: make_tcp_packet("10.1.2.3", "192.168.0.9", 1234, 23),
    "alert": lambda: make_tcp_packet("44.0.0.1", "192.168.0.9", 1234, 22),
}


class ChaosEnv:
    """One fully instrumented system under test (see module docstring).

    ``root`` is a scratch directory for journals and checkpoints;
    ``seed`` feeds every probabilistic instrument. The environment comes
    up healthy: lease acquired (epoch 1), firewall app deployed fleetwide,
    keepalives beaconing on the virtual clock.

    ``transport:<obi>`` names the live channel from the controller that
    dialed the OBI: a revive re-points it at the fresh channel, under
    the same plan. A :meth:`fail_over` does not: the point keeps naming
    the deposed leader's link, which is what ghost partitions and their
    heal steps act on.
    """

    def __init__(
        self,
        root: str | os.PathLike[str],
        seed: int = 0,
        obi_ids: tuple[str, ...] = ("obi-1", "obi-2"),
        headless_buffer: int = 256,
        transport_plan: FaultPlan | None = None,
        storage_plan: StoragePlan | None = None,
    ) -> None:
        self.root = os.fspath(root)
        self.seed = seed
        self.obi_ids = tuple(obi_ids)
        self.net = SimNetwork()
        sched = self.net.clock
        self.registry = ChaosRegistry()

        # -- clock layer ------------------------------------------------
        base = lambda: sched.now  # noqa: E731 - the virtual-time source
        self.leader_clock = ChaosClock(base)
        self.standby_clock = ChaosClock(base)
        self.obi_clocks = {name: ChaosClock(base) for name in self.obi_ids}
        self.registry.register("clock:leader", "clock", self.leader_clock,
                               "leader controller clock")
        self.registry.register("clock:standby", "clock", self.standby_clock,
                               "standby controller clock")
        for name, clock in self.obi_clocks.items():
            self.registry.register(f"clock:{name}", "clock", clock,
                                   f"{name} instance clock")

        # -- storage layer ----------------------------------------------
        plan = storage_plan or StoragePlan(seed=seed)
        self.leader_storage = FaultyStorage(plan)
        self.standby_storage = FaultyStorage(plan)
        self.obi_storages = {name: FaultyStorage(plan) for name in self.obi_ids}
        self.registry.register("storage:leader", "storage",
                               self.leader_storage, "leader journal backend")
        self.registry.register("storage:standby", "storage",
                               self.standby_storage, "replica journal backend")
        for name, storage in self.obi_storages.items():
            self.registry.register(f"storage:{name}", "storage", storage,
                                   f"{name} flow-state checkpoint backend")

        # -- control plane ----------------------------------------------
        self.store = InProcLeaseStore()
        self.leader_lease = LeaseManager(
            "c1", self.store, ttl=LEASE_TTL, clock=self.leader_clock
        )
        self.standby_lease = LeaseManager(
            "c2", self.store, ttl=LEASE_TTL, clock=self.standby_clock
        )
        self.leader = OpenBoxController(
            clock=self.leader_clock,
            journal=StateJournal(
                os.path.join(self.root, "leader.journal"),
                fsync_every=1, storage=self.leader_storage,
            ),
        )
        self.hub = ReplicationHub(
            self.leader, leader_id="c1", endpoints=["c1", "c2"]
        )
        self.standby = StandbyController(
            "c2", os.path.join(self.root, "replica.journal"),
            clock=self.standby_clock, storage=self.standby_storage,
        )
        self.replica_link = InProcPair("c1", "standby:c2")
        self.replica_link.right.set_handler(self.standby.handle_message)
        replica_channel = FaultyChannel(
            self.replica_link.left,
            transport_plan or FaultPlan(seed=seed),
        )
        self.registry.register("transport:standby", "transport",
                               replica_channel, "leader -> standby stream")
        self.hub.attach("c2", replica_channel)

        # -- OBIs + transport layer -------------------------------------
        self.obis: dict[str, OpenBoxInstance] = {}
        self.pairs: dict[str, InProcPair] = {}
        self._plans = {
            name: transport_plan or FaultPlan(seed=seed + index + 1)
            for index, name in enumerate(self.obi_ids)
        }
        for name in self.obi_ids:
            self.obis[name] = self._connect_obi(name, headless_buffer)

        # -- data plane (packet conservation closes over this chain) ----
        self.src = self.net.add_host("src")
        self.dst = self.net.add_host("dst")
        chain = list(self.obi_ids)
        for name in chain:
            self.net.add_obi(name, self.obis[name])
        for here, there in zip(chain, chain[1:]):
            self.net.link(here, "out", there)
        self.net.link(chain[-1], "out", "dst")
        for name in chain:
            self.net.schedule_keepalives(name)

        # -- process layer ----------------------------------------------
        self.leader_dead = False
        self.registry.register(
            "process:leader", "process",
            ProcessPoint("process:leader", kill=self.kill_leader),
            "SIGKILL the leader (no close, no final flush)",
        )
        for name in self.obi_ids:
            self.registry.register(
                f"process:{name}", "process",
                ProcessPoint(
                    f"process:{name}",
                    kill=(lambda n=name: self.pairs[n].close()),
                    revive=(lambda n=name: self._revive_obi(n)),
                ),
                f"kill/revive the {name} control channel",
            )

        # -- scenario bookkeeping ---------------------------------------
        self.promoted: OpenBoxController | None = None
        self.promoted_loop: OrchestrationLoop | None = None
        self.injected = 0
        self.split_brain_accepts = 0
        #: Set by :meth:`converge`; cleared by any fault/mutation verb.
        #: Gates the digest-agreement invariant (which is only promised
        #: *after* an anti-entropy round over a healed system).
        self.converged = False
        self._lease_partitions: set[str] = set()

        # -- orchestration ----------------------------------------------
        scaling = ScalingManager(self.leader.stats, provisioner=None,
                                 policy=ScalingPolicy())
        self.loop = OrchestrationLoop(
            self.leader, scaling,
            lease=self.leader_lease, replication=self.hub,
        )
        # First tick: acquire the lease (epoch 1 == fresh generation 1),
        # announce, and replicate the bootstrap journal.
        self.loop.tick()

        self._app_names: list[str] = []
        self.register_app("fw")
        self.tick()

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    def _connect_obi(self, name: str,
                     headless_buffer: int) -> "OpenBoxInstance":
        obi = OpenBoxInstance(
            ObiConfig(
                obi_id=name, segment="corp",
                headless_after=30.0, headless_buffer=headless_buffer,
                state_checkpoint_path=os.path.join(self.root, f"{name}.state"),
                state_checkpoint_fsync_every=1,
            ),
            clock=self.obi_clocks[name],
            state_storage=self.obi_storages[name],
        )
        self.pairs[name] = connect_inproc(
            self.leader, obi,
            wrap_downstream=lambda ch: FaultyChannel(ch, self._plans[name]),
        )
        self.registry.register(f"transport:{name}", "transport",
                               self.leader.obis[name].channel,
                               f"controller -> {name} channel")
        return obi

    def _revive_obi(self, name: str) -> None:
        """Reconnect a killed OBI to the active controller over a fresh
        channel with the OBI's own plan, and point ``transport:<name>``
        at it."""
        controller = self.active
        reconnect_inproc(
            controller, self.obis[name], self.pairs[name],
            wrap_downstream=lambda ch: FaultyChannel(ch, self._plans[name]),
        )
        self.registry.retarget(f"transport:{name}",
                               controller.obis[name].channel)

    @property
    def active(self) -> OpenBoxController:
        """The controller currently entitled to act (promoted wins)."""
        return self.promoted if self.promoted is not None else self.leader

    def point(self, name: str) -> Any:
        """The live instrument behind fault point ``name``."""
        return self.registry.target(name)

    # ------------------------------------------------------------------
    # Scenario verbs
    # ------------------------------------------------------------------
    def advance(self, seconds: float) -> int:
        """Run virtual time forward (keepalives and in-flight packets)."""
        sched = self.net.clock
        return sched.run_until(sched.now + seconds)

    def inject(self, count: int = 1, kind: str = "pass") -> None:
        """Inject ``count`` packets at the head of the OBI chain and
        drain zero-latency deliveries so conservation holds at rest."""
        make = PACKETS[kind]
        head = self.obi_ids[0]
        for _ in range(count):
            self.injected += 1
            self.net.inject(head, make())
        self.net.clock.run_until(self.net.clock.now)

    def tick(self) -> TickReport | None:
        """One orchestration tick on whichever loop is alive."""
        if self.promoted_loop is not None:
            return self.promoted_loop.tick()
        if not self.leader_dead:
            return self.loop.tick()
        return None

    def register_app(self, name: str) -> None:
        """Register (and auto-deploy) one of the known applications."""
        factory = _APP_FACTORIES[name]
        self.active.register_application(factory())
        if name not in self._app_names:
            self._app_names.append(name)

    def half_deploy(self) -> None:
        """The mid-deploy crash window: the ips app reaches the first
        OBI, the journal (and standby) know the intent, but no later
        deploy or anti-entropy round ever healed the rest."""
        self.leader.auto_deploy = False
        self.register_app("ips")
        self.leader.deploy(self.obi_ids[0])
        self.hub.sync()

    def deploy(self, obi_id: str) -> None:
        """Deploy current intent to one OBI. A refusal (fenced, degraded,
        unreachable) raises ``ProtocolError``; the scenario runner
        records it as the step's outcome."""
        self.active.deploy(obi_id)

    def kill_leader(self) -> None:
        """SIGKILL: no close(), no final flush; every channel to the
        dead process starts refusing."""
        for pair in self.pairs.values():
            pair.close()
        self.replica_link.close()
        self.leader_dead = True

    def lease_partition(self, owner: str) -> None:
        self.store.partition(owner)
        self._lease_partitions.add(owner)

    def lease_heal(self, owner: str) -> None:
        self.store.heal(owner)
        self._lease_partitions.discard(owner)

    def fail_over(self) -> OpenBoxController | None:
        """The standby's side of §12: lease, takeover, re-homing."""
        lease = self.standby_lease.tick()
        if lease is None:
            return None
        promoted = self.standby.take_over(
            lease,
            applications=[_APP_FACTORIES[n]() for n in self._app_names],
            storage=self.standby_storage,
        )
        for obi in self.obis.values():
            won = rehome_inproc(obi, [("c1", None), ("c2", promoted)])
            if won is not None:
                self.pairs[obi.config.obi_id] = won[1]
        self.promoted = promoted
        self.promoted_loop = OrchestrationLoop(
            promoted,
            ScalingManager(promoted.stats, provisioner=None,
                           policy=ScalingPolicy()),
            lease=self.standby_lease,
        )
        return promoted

    def ghost_deploy(self) -> int:
        """The deposed leader ignores its demotion and acts anyway.

        Per OBI it sends every kind of request a controller has: a graph
        push, a handle write, a handoff of its stale checkpoint of the
        next OBI, a stats poll and a telemetry subscribe. (A split
        declaration sends nothing a graph push does not, and one the
        ghost made while still leader would stay intent for the rest of
        the run.)
        Returns (and accumulates) how many requests the OBIs *served* —
        counted there, since under an ``rx`` partition the ghost never
        sees the answer to a request that was applied. The split-brain
        invariant demands zero once a successor exists.
        """
        ghost = self.leader
        migrator = StateMigrator(ghost)
        served = [o.metrics.histogram("obi_dispatch_seconds") for o in self.obis.values()]
        before = sum(histogram.count for histogram in served)
        for index, obi_id in enumerate(self.obi_ids):
            peer = self.obi_ids[(index + 1) % len(self.obi_ids)]
            stale = self.loop.snapshots.get(peer, {"generation": 0, "entries": []})
            for act in (
                lambda: ghost.deploy(obi_id),
                lambda: self._ghost_write(obi_id),
                lambda: migrator.handoff(
                    peer, obi_id, stale["generation"], stale["entries"]
                ),
                lambda: ghost.poll_stats(obi_id),
                lambda: ghost.subscribe_telemetry(obi_id),
            ):
                try:
                    act()
                except Exception:  # noqa: BLE001 - timeout/stale/closed all fine
                    pass
        accepts = sum(histogram.count for histogram in served) - before
        if self.promoted is None:
            accepts = 0  # the legitimate leader, not yet deposed
        self.split_brain_accepts += accepts
        return accepts

    def _ghost_write(self, obi_id: str) -> None:
        """``reset_counts`` on the first application block the deposed
        leader believes it deployed on ``obi_id``."""
        ghost = self.leader
        block = next(
            block for block in ghost.obis[obi_id].deployed.graph.blocks.values()
            if block.origin_app in ghost.applications
        )
        ghost.app_write(
            ghost.applications[block.origin_app], obi_id,
            block.origin_block, "reset_counts", None,
        )

    def converge(self) -> bool:
        """Run anti-entropy on the active controller until converged."""
        reports = AntiEntropyLoop(self.active).run_until_converged()
        self.converged = bool(reports) and reports[-1].all_converged
        return self.converged

    def heal_all(self) -> None:
        """Lift every standing fault (storage, transport, lease, clock)."""
        for point in self.registry.by_layer("storage"):
            point.target.heal()
        for point in self.registry.by_layer("transport"):
            point.target.heal()
            point.target.revive()
        for owner in list(self._lease_partitions):
            self.lease_heal(owner)
        for point in self.registry.by_layer("clock"):
            point.target.reset()

    # ------------------------------------------------------------------
    # Invariant feeds
    # ------------------------------------------------------------------
    def delivered(self) -> int:
        return len(self.dst.received)

    def drop_accounting(self) -> dict[str, int]:
        """Every counted way a packet can fail to reach ``dst``."""
        dropped = punted = shed = 0
        for name in self.obi_ids:
            node = self.net.nodes[name]
            dropped += node.dropped
            punted += node.punted
            shed += node.shed
        return {
            "dropped": dropped,
            "punted": punted,
            "shed": shed,
            "unrouted": len(self.net.unrouted),
        }

    def controllers(self) -> list[OpenBoxController]:
        live = [self.leader]
        if self.promoted is not None:
            live.append(self.promoted)
        return live
