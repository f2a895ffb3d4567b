"""Wire representation of the abstract block-type registry.

The block types themselves live in :mod:`repro.core.blocks` (the single
source of truth shared by controller and OBI). This module serializes
them for the protocol: ``Hello`` capability advertisement and
``AddCustomModuleRequest.block_types`` declarations both use this schema.
"""

from __future__ import annotations

from typing import Any

from repro.core.blocks import (
    PORTS_BY_CONFIG,
    BlockTypeSpec,
    HandleSpec,
    block_registry,
)


def spec_to_dict(spec: BlockTypeSpec) -> dict[str, Any]:
    """Serialize one block-type spec for the wire."""
    return {
        "name": spec.name,
        "class": spec.block_class,
        "description": spec.description,
        "num_ports": spec.num_ports,
        "params": list(spec.params),
        "required_params": list(spec.required_params),
        "handles": [
            {"name": handle.name, "writable": handle.writable}
            for handle in spec.handles
        ],
        "mergeable": spec.mergeable,
        "cacheable": spec.cacheable,
    }


def spec_from_dict(data: dict[str, Any]) -> BlockTypeSpec:
    """Deserialize a block-type declaration (e.g. from a custom module).

    ``combine`` hooks are code, not data — custom block types arrive
    without one and therefore never participate in static combining.
    ``cacheable`` likewise defaults to False on the wire: a custom type
    must *opt in* to the flow-decision fast path, since the OBI cannot
    inspect foreign code for hidden per-packet state.
    """
    return BlockTypeSpec(
        name=data["name"],
        block_class=data["class"],
        description=data.get("description", ""),
        num_ports=int(data.get("num_ports", 1)),
        params=tuple(data.get("params", ())),
        required_params=tuple(data.get("required_params", ())),
        handles=tuple(
            HandleSpec(name=handle["name"], writable=bool(handle.get("writable")))
            for handle in data.get("handles", ())
        ),
        mergeable=bool(data.get("mergeable", False)),
        cacheable=bool(data.get("cacheable", False)),
    )


def all_specs() -> list[dict[str, Any]]:
    """Every built-in abstract block type, serialized."""
    return [spec_to_dict(spec) for spec in block_registry]


#: Pseudo-block addressing the OBI itself in Read requests. It is not a
#: processing block — reads against it answer from instance-level
#: robustness state (PROTOCOL.md §7), uniformly for the controller and
#: for chaos tests. Its handles are ``repro.obi.instance.OBI_HANDLES``.
OBI_PSEUDO_BLOCK = "_obi"


def dynamic_port_types() -> list[str]:
    """Names of types whose port count depends on configuration."""
    return [spec.name for spec in block_registry if spec.num_ports == PORTS_BY_CONFIG]
