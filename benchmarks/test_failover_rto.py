"""Controller failover recovery-time objective (RTO) and split-brain gate.

Measures the §12 high-availability path end to end: leader dies with a
fleet deployed, the hot standby acquires the lease, promotes its
replica journal (recover + epoch adoption), every OBI re-homes to it,
and anti-entropy reconverges the fleet. Two numbers matter:

* **failover_rto_seconds** — wall clock from lease acquisition to a
  fully converged fleet. Raw seconds are machine-dependent; the gated
  quantity is **rto_ratio** = RTO / cold fleet bring-up on the same
  machine (failover replays a journal and re-Hellos; it must not cost
  more than rebuilding the world from scratch).
* **split_brain_accepts** — pushes from the deposed leader's ghost
  accepted by any OBI after the takeover. The epoch fence guarantees
  **zero**; this is a correctness gate, not a perf number, and the
  headless data plane must drop zero packets throughout.

Checked-in baseline: ``benchmarks/BENCH_failover.json``; >30% rto_ratio
regression or any fence/drop breach fails the job. Set
``OPENBOX_BENCH_SCALE=ci`` for the reduced CI run.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from benchmarks.conftest import RESULTS_DIR, write_result
from repro.bootstrap import connect_inproc, rehome_inproc
from repro.controller.apps import AppStatement, FunctionApplication
from repro.controller.journal import StateJournal
from repro.controller.lease import InProcLeaseStore, LeaseManager
from repro.controller.obc import OpenBoxController
from repro.controller.reconcile import AntiEntropyLoop
from repro.controller.replication import ReplicationHub, StandbyController
from repro.net.builder import make_tcp_packet
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.transport.inproc import InProcPair
from tests.conftest import FakeClock, build_firewall_graph, build_ips_graph

BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_failover.json"

#: Largest tolerated growth of the failover/cold-deploy time ratio.
MAX_RTO_REGRESSION = 0.30
LEASE_TTL = 30.0

_SCALES = {
    # fleet size, measurement repeats, packets per OBI during outage
    "full": (24, 3, 20),
    "ci": (8, 2, 10),
}


def _scale():
    return _SCALES[os.environ.get("OPENBOX_BENCH_SCALE", "full")]


def _apps():
    return [
        FunctionApplication(
            "fw", lambda: [AppStatement(graph=build_firewall_graph("fw"))],
            priority=1,
        ),
        FunctionApplication(
            "ips", lambda: [AppStatement(graph=build_ips_graph("ips"))],
            priority=2,
        ),
    ]


class _Fleet:
    """Leader + standby + N OBIs, fully deployed and replicated."""

    def __init__(self, root: pathlib.Path, size: int):
        self.clock = FakeClock()
        self.store = InProcLeaseStore()
        self.leader_lease = LeaseManager("c1", self.store, ttl=LEASE_TTL,
                                         clock=self.clock)
        self.standby_lease = LeaseManager("c2", self.store, ttl=LEASE_TTL,
                                          clock=self.clock)
        self.leader_lease.tick()

        start = time.perf_counter()
        self.leader = OpenBoxController(
            clock=self.clock,
            journal=StateJournal(str(root / "leader.journal"), fsync_every=1),
        )
        self.obis = {}
        self.pairs = {}
        for index in range(size):
            obi_id = f"obi-{index}"
            obi = OpenBoxInstance(
                ObiConfig(obi_id=obi_id, segment="corp", headless_after=5.0),
                clock=self.clock,
            )
            self.pairs[obi_id] = connect_inproc(self.leader, obi)
            self.obis[obi_id] = obi
        for app in _apps():
            self.leader.register_application(app)
        #: Wall time to bring the same fleet up from nothing — the
        #: denominator that makes the RTO machine-independent.
        self.cold_deploy_seconds = time.perf_counter() - start

        self.hub = ReplicationHub(self.leader, leader_id="c1",
                                  endpoints=["c1", "c2"])
        self.standby = StandbyController("c2", root / "replica.journal",
                                         clock=self.clock)
        link = InProcPair("c1", "standby:c2")
        link.right.set_handler(self.standby.handle_message)
        self.hub.attach("c2", link.left)
        self.hub.sync()

    def kill_leader(self):
        for pair in self.pairs.values():
            pair.close()
        self.clock.advance(LEASE_TTL * 2)  # lease lapses, OBIs go headless

    def fail_over(self):
        """Lease → takeover → re-home fleet → reconverge; returns RTO."""
        start = time.perf_counter()
        lease = self.standby_lease.tick()
        assert lease is not None
        promoted = self.standby.take_over(lease, applications=_apps())
        rehomed = 0
        for obi in self.obis.values():
            # The dead leader's address is first on the dial list, so
            # the RTO includes walking past it.
            if rehome_inproc(obi, [("c1", None), ("c2", promoted)]):
                rehomed += 1
        reports = AntiEntropyLoop(promoted).run_until_converged()
        rto = time.perf_counter() - start
        assert reports[-1].all_converged
        return promoted, rehomed, rto


def test_failover_rto_and_split_brain_fence(tmp_path):
    fleet_size, repeats, packets_per_obi = _scale()

    best_rto = float("inf")
    best_cold = float("inf")
    rehomed_total = split_brain_accepts = dropped_packets = 0
    stale_rejections = 0

    for repeat in range(repeats):
        root = tmp_path / f"run{repeat}"
        root.mkdir()
        fleet = _Fleet(root, fleet_size)
        best_cold = min(best_cold, fleet.cold_deploy_seconds)
        ghost = fleet.leader
        fleet.kill_leader()

        # The outage data plane: headless OBIs keep forwarding.
        for obi in fleet.obis.values():
            assert obi.is_headless()
            for _ in range(packets_per_obi):
                outcome = obi.process_packet(
                    make_tcp_packet("44.0.0.1", "192.168.0.9", 9999, 12345)
                )
                dropped_packets += outcome.dropped or outcome.shed

        promoted, rehomed, rto = fleet.fail_over()
        rehomed_total += rehomed
        best_rto = min(best_rto, rto)

        # The ghost's sockets come back (its lease does not) and it
        # tries to finish its deploys: every push must be fenced.
        for pair in fleet.pairs.values():
            pair.reopen()
        for obi_id in list(fleet.obis):
            try:
                ghost.deploy(obi_id)
                split_brain_accepts += 1
            except Exception:  # noqa: BLE001 - stale_generation expected
                pass
        stale_rejections += sum(
            o.stale_generation_rejections for o in fleet.obis.values()
        )
        assert promoted.generation > ghost.generation

    rto_ratio = best_rto / best_cold if best_cold else 0.0
    result = {
        "scale": os.environ.get("OPENBOX_BENCH_SCALE", "full"),
        "fleet_size": fleet_size,
        "failover_rto_seconds": round(best_rto, 4),
        "cold_deploy_seconds": round(best_cold, 4),
        "rto_ratio": round(rto_ratio, 3),
        "rehomed": rehomed_total,
        "split_brain_accepts": split_brain_accepts,
        "headless_dropped_packets": dropped_packets,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_failover.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )
    write_result(
        "failover_rto",
        (
            f"failover: {fleet_size} OBIs re-homed in {best_rto:.3f}s "
            f"(cold bring-up {best_cold:.3f}s, ratio {rto_ratio:.2f}x), "
            f"split-brain accepts {split_brain_accepts}, "
            f"headless drops {dropped_packets}\n"
        ),
    )

    # Correctness gates (absolute).
    assert split_brain_accepts == 0, (
        f"{split_brain_accepts} ghost pushes were accepted after takeover"
    )
    assert stale_rejections >= repeats * fleet_size, (
        "ghost pushes should have been delivered and fenced, not lost"
    )
    assert rehomed_total == repeats * fleet_size
    assert dropped_packets == 0, (
        f"headless OBIs dropped {dropped_packets} packets during failover"
    )

    # Machine-independent regression gate vs the checked-in baseline.
    baseline = json.loads(BASELINE_PATH.read_text())
    ceiling = baseline["rto_ratio"] * (1.0 + MAX_RTO_REGRESSION)
    assert rto_ratio <= ceiling, (
        f"failover RTO ratio {rto_ratio:.2f}x regressed more than "
        f"{MAX_RTO_REGRESSION:.0%} vs baseline "
        f"{baseline['rto_ratio']:.2f}x (ceiling {ceiling:.2f}x)"
    )
    assert baseline["split_brain_accepts"] == 0
    assert baseline["headless_dropped_packets"] == 0
