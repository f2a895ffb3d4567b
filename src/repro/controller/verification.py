"""Offline verification of NF applications before deployment (paper §6).

"verification solutions such as [VeriCon] might be applied on OpenBox
applications, with the required adaptations, to provide offline
verification before deploying NFs."

This is that adaptation: a static checker the controller can run over an
application's statements before accepting them. It does not execute
packets; it reasons about graph structure and classifier rule sets:

* structural validity (valid DAG, single entry, port ranges);
* reachability: every non-entry block is reachable from the entry, every
  classifier port with a connector has rules (or the default) mapping to
  it, and vice versa;
* rule hygiene: shadowed/duplicate rules (they silently never fire);
* blackhole detection: a catch-all rule routed to a Discard makes every
  later rule and every later application in the chain unreachable — the
  classic multi-tenant foot-gun the paper's security discussion worries
  about.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.blocks import BlockClass
from repro.core.concat import (
    ABSORBING_TERMINALS,
    INPUT_TERMINALS,
    OUTPUT_TERMINALS,
)
from repro.core.graph import GraphValidationError, ProcessingGraph


@dataclass(frozen=True)
class Finding:
    """One verification finding."""

    severity: str  # "error" | "warning"
    code: str
    block: str
    message: str


@dataclass
class VerificationReport:
    findings: list[Finding] = field(default_factory=list)

    def _add(self, severity: str, code: str, block: str, message: str) -> None:
        self.findings.append(Finding(severity, code, block, message))

    @property
    def errors(self) -> list[Finding]:
        return [finding for finding in self.findings if finding.severity == "error"]

    @property
    def warnings(self) -> list[Finding]:
        return [finding for finding in self.findings if finding.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors


def verify_graph(graph: ProcessingGraph) -> VerificationReport:
    """Statically verify one processing graph."""
    report = VerificationReport()

    # -------- structural validity --------
    try:
        graph.validate()
    except GraphValidationError as exc:
        report._add("error", "structure", graph.name, str(exc))
        return report
    roots = graph.roots()
    entries = [
        name for name in roots if graph.blocks[name].type in INPUT_TERMINALS
    ]
    if not entries:
        report._add("error", "structure", graph.name,
                    "graph has no input terminal (FromDevice/FromDump)")
        return report
    if len(entries) > 1:
        report._add("error", "structure", graph.name,
                    f"graph has multiple input terminals: {entries}")
        return report

    # -------- reachability --------
    reachable = graph.reachable(entries)
    for name in graph.blocks:
        if name not in reachable:
            report._add("warning", "unreachable", name,
                        f"block {name!r} can never see a packet")

    has_output = any(
        block.type in OUTPUT_TERMINALS for block in graph.blocks.values()
    )
    if not has_output:
        report._add(
            "warning", "no-output", graph.name,
            "graph has no output terminal: all traffic is absorbed, and no "
            "further NF can be chained after this application",
        )

    # -------- classifier checks --------
    for block in graph.blocks.values():
        if block.type != "HeaderClassifier":
            continue
        ruleset = block.config["rules"]
        pruned = ruleset.prune_shadowed()
        shadowed = len(ruleset) - len(pruned)
        if shadowed:
            report._add("warning", "shadowed-rules", block.name,
                        f"{shadowed} rule(s) can never fire (shadowed or duplicate)")

        wired = {connector.src_port for connector in graph.out_connectors(block.name)}
        declared = ruleset.used_ports
        for port in declared - wired:
            report._add("warning", "dangling-port", block.name,
                        f"port {port} is declared by rules but not wired: "
                        f"matching packets are silently absorbed")
        for port in wired - declared:
            report._add("warning", "dead-port", block.name,
                        f"port {port} is wired but no rule maps to it")

        # Blackhole: the effective catch-all leads (only) to absorption.
        catch_all_port = ruleset.catch_all_port
        successor = graph.successor_on_port(block.name, catch_all_port)
        if successor is not None:
            successor_block = graph.blocks[successor]
            if (successor_block.type in ABSORBING_TERMINALS
                    and successor_block.block_class == BlockClass.TERMINAL):
                report._add(
                    "warning", "blackhole", block.name,
                    f"the catch-all outcome (port {catch_all_port}) discards all "
                    f"traffic: every subsequent NF in the chain is starved",
                )
    return report


def verify_application(app) -> VerificationReport:
    """Verify every statement an application declares."""
    combined = VerificationReport()
    for statement in app.statements():
        report = verify_graph(statement.graph)
        combined.findings.extend(report.findings)
    return combined
