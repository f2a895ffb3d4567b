"""An L3 load-balancer OpenBox application (paper §5.2).

"This NF uses Layer 3 classification rules to split traffic to multiple
output interfaces." Traffic is split by source-address prefix into
``len(targets)`` equal slices, or by explicit CIDR rules.
"""

from __future__ import annotations

from repro.controller.apps import AppStatement, OpenBoxApplication
from repro.core.blocks import Block
from repro.core.classify.rules import HeaderRule, Prefix
from repro.core.graph import ProcessingGraph


class LoadBalancerApp(OpenBoxApplication):
    """The L3 load-balancer NF as an OpenBox application."""

    def __init__(
        self,
        name: str,
        targets: list[str],
        rules: list[tuple[str, str]] | None = None,
        segment: str = "",
        obi_id: str | None = None,
        priority: int = 40,
        in_device: str = "in",
    ) -> None:
        """``targets`` are output device names. Explicit ``rules`` map a
        CIDR to a target device; without them the source /, /1, /2 ...
        space is sliced evenly across targets.
        """
        if not targets:
            raise ValueError("load balancer needs at least one target")
        super().__init__(name, priority=priority)
        self.targets = list(targets)
        self.explicit_rules = list(rules or [])
        self.segment = segment
        self.obi_id = obi_id
        self.in_device = in_device

    def _slice_rules(self) -> list[HeaderRule]:
        """Slice the source-address space evenly across targets.

        Uses the smallest prefix length ``p`` with ``2**p >= len(targets)``
        and assigns the ``2**p`` buckets round-robin.
        """
        count = len(self.targets)
        prefix_len = max(1, (count - 1).bit_length()) if count > 1 else 0
        if prefix_len == 0:
            return [HeaderRule(port=0)]
        mask = (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF
        rules = []
        for bucket in range(1 << prefix_len):
            value = bucket << (32 - prefix_len)
            rules.append(HeaderRule(
                src=Prefix(value, mask), port=bucket % count,
            ))
        return rules

    def build_graph(self) -> ProcessingGraph:
        graph = ProcessingGraph(self.name)
        read = Block("FromDevice", name=f"{self.name}_read",
                     config={"devname": self.in_device}, origin_app=self.name)
        graph.add_block(read)

        if self.explicit_rules:
            device_port = {device: index for index, device in enumerate(self.targets)}
            rules = []
            for cidr, device in self.explicit_rules:
                if device not in device_port:
                    raise ValueError(f"rule target {device!r} is not in targets")
                rules.append(HeaderRule(
                    src=Prefix.parse(cidr), port=device_port[device],
                ))
        else:
            rules = self._slice_rules()

        classify = Block(
            "HeaderClassifier",
            name=f"{self.name}_classify",
            config={
                "rules": rules,
                "default_port": 0,
            },
            origin_app=self.name,
        )
        graph.add_block(classify)
        graph.connect(read, classify)
        for index, device in enumerate(self.targets):
            sink = Block("ToDevice", name=f"{self.name}_out_{index}",
                         config={"devname": device}, origin_app=self.name)
            graph.add_block(sink)
            graph.connect(classify, sink, index)
        graph.validate()
        return graph

    def statements(self) -> list[AppStatement]:
        return [AppStatement(
            graph=self.build_graph(), segment=self.segment, obi_id=self.obi_id
        )]
