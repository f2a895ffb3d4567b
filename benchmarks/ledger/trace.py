"""Span recorder for the traced run.

Spans are recorded from the benchmark's own files: :meth:`Recorder.wrap`
rebinds one attribute *on an object of the stack the benchmark built*
(never on a class or a module), and the benchmark opens spans around the
calls it makes itself. ``Recorder.uninstall`` removes every rebinding, so
the untraced passes of a traced run execute unmodified code.

A span is ``(name, start_ns, end_ns, parent id, op id)``; the spans of
one batch / one deploy round share the op id. The driver is one thread
in a closed loop with one operation in flight, so spans nest strictly —
including those recorded on REST server threads, which only ever run
while the driving thread is blocked inside the enclosing request span —
and one stack serves the whole process. A layer's **self time** is its
span's duration minus the part its child spans cover; it is accumulated
as spans close. Full spans are kept for the first ``keep_ops`` operations
of each kind only (the trace file is for reading, the totals are for the
ledger).
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable

from repro.net.packet import Packet

_now = time.perf_counter_ns
_ABSENT = object()


class Recorder:
    def __init__(self, keep_ops: int = 64) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        #: Open spans: ``[name id, start_ns, ns covered by children, span id]``.
        self.stack: list[list[int]] = []
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.keep_ops = keep_ops
        self.op = 0
        self._keep = False
        self._ops_seen: dict[int, int] = {}
        self._next_span = 0
        #: ``(object, attribute, instance value it shadowed or _ABSENT)``.
        self._installed: list[tuple[Any, str, Any]] = []

    # -- names ----------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
        return nid

    # -- spans ----------------------------------------------------------
    def enter(self, nid: int) -> list[int]:
        self._next_span += 1
        frame = [nid, 0, 0, self._next_span]
        self.stack.append(frame)
        frame[1] = _now()
        return frame

    def exit(self, frame: list[int], end: int | None = None) -> None:
        if end is None:
            end = _now()
        stack = self.stack
        stack.pop()
        duration = end - frame[1]
        nid = frame[0]
        self.self_ns[nid] += duration - frame[2]
        self.calls[nid] += 1
        parent = 0
        if stack:
            top = stack[-1]
            top[2] += duration
            parent = top[3]
        if self._keep:
            self.spans.append((nid, frame[1], end, parent, self.op))

    def begin_op(self, nid: int) -> list[int]:
        """Open the root span of one operation (one batch, one round)."""
        self.op += 1
        seen = self._ops_seen.get(nid, 0)
        self._ops_seen[nid] = seen + 1
        self._keep = seen < self.keep_ops
        return self.enter(nid)

    # -- rebinding ------------------------------------------------------
    def wrap(
        self,
        obj: Any,
        attr: str,
        name: str | Callable[..., str],
        before: Callable[[], None] | None = None,
    ) -> None:
        """Rebind ``obj.attr`` to record a span around every call.

        ``name`` may be a function of the call's arguments (a channel's
        span is named after the message type it carries). ``before`` runs
        just ahead of the span (used to close the flow-key pseudo-span).
        """
        original = getattr(obj, attr)
        fixed = self.name_id(name) if isinstance(name, str) else None
        enter, exit_, name_id = self.enter, self.exit, self.name_id

        def traced(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before()
            frame = enter(fixed if fixed is not None else name_id(name(*args)))
            try:
                return original(*args, **kwargs)
            finally:
                exit_(frame)

        self.rebind(obj, attr, traced)

    def rebind(self, obj: Any, attr: str, replacement: Any) -> None:
        """Set ``obj.attr`` on the instance, remembering how to undo it."""
        self._installed.append((obj, attr, vars(obj).get(attr, _ABSENT)))
        setattr(obj, attr, replacement)

    def uninstall(self) -> None:
        """Undo every rebinding: the class's own method shows through
        again (or the instance attribute gets its previous value back)."""
        for obj, attr, previous in reversed(self._installed):
            if previous is _ABSENT:
                delattr(obj, attr)
            else:
                setattr(obj, attr, previous)
        self._installed.clear()

    # -- results --------------------------------------------------------
    def self_ms(self) -> dict[str, float]:
        return {
            name: self.self_ns[nid] / 1e6
            for name, nid in self._ids.items()
            if self.calls[nid]
        }

    def total_ns(self, name: str) -> int:
        nid = self._ids.get(name)
        return self.self_ns[nid] if nid is not None else 0

    def count(self, name: str) -> int:
        nid = self._ids.get(name)
        return self.calls[nid] if nid is not None else 0

    def dump(self, path: Any, header: dict[str, Any]) -> None:
        """Write the kept spans and the per-layer totals as one JSON file."""
        document = {
            **header,
            "names": self.names,
            "span_fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": self.spans,
            "self_ms": self.self_ms(),
            "calls": {
                name: self.calls[nid] for name, nid in self._ids.items()
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))


def traced_packet_class(recorder: Recorder, parse_name: str) -> type[Packet]:
    """A ``Packet`` whose first (real) header parse is a span.

    The benchmark constructs every packet it offers, so the traced passes
    construct this subclass; the untraced passes construct ``Packet``.
    """
    nid = recorder.name_id(parse_name)
    enter, exit_ = recorder.enter, recorder.exit
    parse = Packet._parse

    class TracedPacket(Packet):
        def _parse(self) -> None:
            if self._parsed:
                return
            frame = enter(nid)
            try:
                parse(self)
            finally:
                exit_(frame)

    return TracedPacket
