"""A per-class rate-limiter OpenBox application.

The shaper-class NF of paper Table 1 (``BpsShaper``: "Limit data rate")
as a full application: traffic classes are defined by source CIDR, each
class gets its own token-bucket rate, and unclassified traffic passes
unshaped (or is capped by an optional default rate).

Because shapers may not be crossed by classifier merging (§2.2.1), this
application also serves as a merge-boundary fixture in tests.
"""

from __future__ import annotations

from repro.controller.apps import AppStatement, OpenBoxApplication
from repro.core.blocks import Block
from repro.core.classify.rules import HeaderRule, Prefix
from repro.core.graph import ProcessingGraph


class RateLimiterApp(OpenBoxApplication):
    """Per-subnet bandwidth caps (bits/second token buckets)."""

    def __init__(
        self,
        name: str,
        limits: list[tuple[str, float]],
        default_bps: float | None = None,
        segment: str = "",
        obi_id: str | None = None,
        priority: int = 50,
        in_device: str = "in",
        out_device: str = "out",
    ) -> None:
        """``limits`` is an ordered list of ``(source CIDR, bps)``; first
        match wins. ``default_bps`` caps everything else (None = no cap).
        """
        if not limits and default_bps is None:
            raise ValueError("rate limiter needs at least one limit")
        super().__init__(name, priority=priority)
        self.limits = list(limits)
        self.default_bps = default_bps
        self.segment = segment
        self.obi_id = obi_id
        self.in_device = in_device
        self.out_device = out_device

    def build_graph(self) -> ProcessingGraph:
        graph = ProcessingGraph(self.name)
        read = Block("FromDevice", name=f"{self.name}_read",
                     config={"devname": self.in_device}, origin_app=self.name)
        out = Block("ToDevice", name=f"{self.name}_out",
                    config={"devname": self.out_device}, origin_app=self.name)
        rules = [
            HeaderRule(src=Prefix.parse(cidr), port=index + 1)
            for index, (cidr, _bps) in enumerate(self.limits)
        ]
        classify = Block(
            "HeaderClassifier",
            name=f"{self.name}_classify",
            config={"rules": rules, "default_port": 0},
            origin_app=self.name,
        )
        graph.add_blocks([read, out, classify])
        graph.connect(read, classify)

        if self.default_bps is not None:
            default_shaper = Block(
                "BpsShaper", name=f"{self.name}_shape_default",
                config={"bps": float(self.default_bps)}, origin_app=self.name,
            )
            graph.add_block(default_shaper)
            graph.connect(classify, default_shaper, 0)
            graph.connect(default_shaper, out)
        else:
            graph.connect(classify, out, 0)

        for index, (cidr, bps) in enumerate(self.limits):
            shaper = Block(
                "BpsShaper", name=f"{self.name}_shape_{index}",
                config={"bps": float(bps)}, origin_app=self.name,
            )
            graph.add_block(shaper)
            graph.connect(classify, shaper, index + 1)
            graph.connect(shaper, out)
        graph.validate()
        return graph

    def statements(self) -> list[AppStatement]:
        return [AppStatement(
            graph=self.build_graph(), segment=self.segment, obi_id=self.obi_id
        )]

    def set_rate(self, cidr: str, bps: float, obi_id: str) -> None:
        """Retune one class's rate live via the shaper's write handle —
        no graph redeployment needed (paper §3.2 write handles)."""
        index = next(
            (i for i, (existing, _bps) in enumerate(self.limits) if existing == cidr),
            None,
        )
        if index is None:
            raise KeyError(f"no limit class for {cidr!r}")
        self.limits[index] = (cidr, bps)
        self.request_write(obi_id, f"{self.name}_shape_{index}", "rate", bps)
