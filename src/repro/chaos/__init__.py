"""Deterministic, seeded chaos orchestration.

The repo's robustness story — retry, headless mode, WAL recovery, HA
leases — was built one hand-written failure sequence at a time. This
package turns those point fixes into a continuously verified property:

* :mod:`repro.chaos.storage` — a fault-injecting
  :class:`~repro.durable.Storage` backend (EIO, ENOSPC, fsyncs that
  lie, torn replaces, slow I/O, power-loss crashes);
* :mod:`repro.chaos.clocks` — skewable/jumpable clocks over the
  virtual-time scheduler;
* :mod:`repro.chaos.points` — the fault-point registry spanning the
  transport, storage, clock, and process layers;
* :mod:`repro.chaos.env` — a standard leader/standby/OBI/network
  topology with every fault point pre-registered;
* :mod:`repro.chaos.invariants` — global checkers (split-brain
  accepts, telemetry loss, packet conservation, digest agreement,
  journal-replay fidelity) evaluated after every scenario step;
* :mod:`repro.chaos.scenario` — the declarative
  :class:`~repro.chaos.scenario.ScenarioRunner`;
* :mod:`repro.chaos.search` — seeded random scenario search with
  greedy schedule shrinking, run as the nightly soak.

See ``docs/CHAOS.md`` for the fault vocabulary and scenario format.
"""
