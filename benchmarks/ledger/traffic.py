"""Seeded inputs: rulesets, flow universes and frames.

Every input is a pure function of ``--seed``; nothing here reads a clock
or a module-level RNG. Two things are kept apart on purpose:

* the **shape** of an input — which rules overlap which, which flow
  matches which rule, the service-port mix — is fixed by
  :data:`SHAPE_SEED`, a constant of the workload definition;
* the **labels** — subnet numbers, host addresses, ephemeral ports, the
  order of the campus trace's batches — come from ``--seed``.

The split exists because the cost of a merge (and of a slow-path trie
match) swings by ±20% between two *shapes* drawn from
``repro.sim.rulesets.generate_firewall_rules``, and the dearest of a
pass's batches by as much between two campus traces: a benchmark whose
run-to-run spread is several times its regression bound gates nothing.
A seeded octet permutation relabels a fixed shape isomorphically (equal
subnets stay equal, distinct stay distinct), so every seed measures the
same amount of work on different bytes.
"""

from __future__ import annotations

import hashlib
import random
import re
from typing import Iterable, Sequence

from repro.net.builder import make_tcp_packet
from repro.sim.rulesets import generate_firewall_rules, generate_snort_web_rules
from repro.sim.traffic import TraceConfig, TrafficGenerator

#: Fixes the structure of every ruleset and flow universe (see module doc).
SHAPE_SEED = 20160822
DEFAULT_SEED = 20160822

_QUAD = re.compile(r"\b(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})\b")

#: TCP service mix of ``TraceConfig`` (http / dns / tls / bulk shares); the
#: dns share rides TCP port 53 because the fast-path workloads use
#: minimum-size TCP frames only.
_SERVICE_MIX = ((80, 0.55), (53, 0.10), (443, 0.15))
_BULK_PORTS = (21, 22, 25, 8080, 3306)


def octet_permutation(seed: int) -> list[int]:
    """The seed's relabeling of subnet numbers (a permutation of 0..255)."""
    perm = list(range(256))
    random.Random(f"ledger/octets/{seed}").shuffle(perm)
    return perm


def _relabel_quad(a: int, b: int, c: int, d: int, perm: Sequence[int]) -> str:
    # The generators number subnets in the second octet of 10.X/16 and in
    # the third octet of every /24 family. 172.16.X keeps its numbers:
    # ``TrafficGenerator`` draws that X itself, out of this module's reach.
    if a == 10:
        return f"{a}.{perm[b]}.{c}.{d}"
    if a == 172:
        return f"{a}.{b}.{c}.{d}"
    return f"{a}.{b}.{perm[c]}.{d}"


def relabel_text(text: str, perm: Sequence[int]) -> str:
    """Apply the subnet relabeling to every dotted quad in ``text``."""
    return _QUAD.sub(
        lambda m: _relabel_quad(*(int(g) for g in m.groups()), perm), text
    )


def firewall_rules_text(count: int, shape: int, seed: int) -> str:
    """``count`` firewall rules: structure ``shape``, labels from ``seed``."""
    return relabel_text(
        generate_firewall_rules(count, seed=SHAPE_SEED + shape),
        octet_permutation(seed),
    )


def snort_rules_text(count: int, seed: int) -> str:
    """Snort web rules with their server subnets relabeled by ``seed``."""
    return relabel_text(
        generate_snort_web_rules(count, seed=SHAPE_SEED), octet_permutation(seed)
    )


def _trace_subnets(perm: Sequence[int]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """``TraceConfig``'s client/server pools under the relabeling."""
    base = TraceConfig()

    def relabel(prefix: str) -> str:
        parts = [int(p) for p in prefix.split(".")]
        if len(parts) == 2:
            return f"{parts[0]}.{perm[parts[1]]}" if parts[0] == 10 else prefix
        return f"{parts[0]}.{parts[1]}.{perm[parts[2]]}"

    return (
        tuple(relabel(p) for p in base.client_subnets),
        tuple(relabel(p) for p in base.server_subnets),
    )


def flow_frames(count: int, seed: int) -> list[bytes]:
    """``count`` distinct minimum-size (54-byte) TCP frames, one per flow.

    Clients and servers are drawn from ``TraceConfig``'s address pools and
    destination ports from its service mix, so the synthetic firewall
    rules (which number the same subnet families) actually match. Subnet
    numbers and ports are shape; host octets and source ports are labels.
    """
    perm = octet_permutation(seed)
    base = TraceConfig()
    shape = random.Random(f"ledger/flows/{SHAPE_SEED}")
    label = random.Random(f"ledger/hosts/{seed}")

    def address(prefix: str) -> str:
        parts = [int(p) for p in prefix.split(".")]
        if len(parts) == 2 and parts[0] != 10:
            parts.append(shape.randrange(256))  # a /24 number: shape
        while len(parts) < 4:
            parts.append(label.randrange(1, 255))
        return _relabel_quad(*parts, perm)

    seen: set[tuple[str, str, int, int]] = set()
    frames: list[bytes] = []
    while len(frames) < count:
        roll, acc, dport = shape.random(), 0.0, 0
        for port, share in _SERVICE_MIX:
            acc += share
            if roll < acc:
                dport = port
                break
        else:
            dport = shape.choice(_BULK_PORTS)
        client = shape.choice(base.client_subnets)
        server = shape.choice(base.server_subnets)
        while True:
            flow = (
                address(client), address(server),
                label.randrange(1024, 65535), dport,
            )
            if flow not in seen:
                break
        seen.add(flow)
        frames.append(make_tcp_packet(*flow).data)
    return frames


def campus_frames(batches: int, batch: int, num_flows: int, seed: int) -> list[bytes]:
    """``batches`` x ``batch`` frames of the campus mix (~800 B mean, 55%
    HTTP, 1% attack payloads), from ``repro.sim.traffic.TrafficGenerator``.

    Which sizes and payloads share a batch is shape — it decides what the
    dearest batch costs, hence the tail of the batch latency — so the
    generator runs on :data:`SHAPE_SEED`. ``--seed`` relabels the address
    pools (so the relabeled firewall rules keep matching them) and
    shuffles the order of the batches and of the frames within each.
    """
    clients, servers = _trace_subnets(octet_permutation(seed))
    config = TraceConfig(
        seed=SHAPE_SEED, num_packets=batches * batch, num_flows=num_flows,
        client_subnets=clients, server_subnets=servers,
    )
    frames = [packet.data for packet in TrafficGenerator(config).packets()]
    order = random.Random(f"ledger/order/{seed}")
    groups = [frames[start:start + batch] for start in range(0, len(frames), batch)]
    order.shuffle(groups)
    for group in groups:
        order.shuffle(group)
    return [frame for group in groups for frame in group]


def inputs_digest(texts: Iterable[str], frames: Iterable[bytes]) -> str:
    """sha256 over rulesets and frames — what the determinism test compares."""
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode("utf-8"))
        digest.update(b"\x00")
    for frame in frames:
        digest.update(len(frame).to_bytes(4, "big"))
        digest.update(frame)
    return digest.hexdigest()
