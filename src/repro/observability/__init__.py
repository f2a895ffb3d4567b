"""Observability plane: metrics registry + sampled per-packet tracing.

See ``docs/DESIGN.md`` (Observability) and ``docs/PROTOCOL.md`` §9 for
how snapshots travel from OBIs to the controller.
"""
