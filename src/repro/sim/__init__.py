"""Evaluation substrate: what stands in for the paper's 10 Gbps testbed.

The paper evaluates on two Xeon machines with KVM VMs and a campus
packet trace. This package substitutes (see DESIGN.md):

* :mod:`repro.sim.costmodel` — a calibrated per-block cycle-cost model;
  VM throughput and latency derive from the block paths packets actually
  take through the engine, so merge-induced path shortening translates
  into measured speedups exactly as in the paper;
* :mod:`repro.sim.traffic` — a seeded synthetic campus-like trace;
* :mod:`repro.sim.rulesets` — synthetic firewall (4560-rule scale) and
  Snort-web rule generators;
* :mod:`repro.sim.network` — a functional packet-level network: hosts,
  links, OBI placements, service chains with NSH hand-off;
* :mod:`repro.sim.runner` — the experiment harness the benchmarks call.
"""
