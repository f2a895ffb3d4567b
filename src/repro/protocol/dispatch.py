"""The receive path every protocol endpoint shares (PROTOCOL.md §6, §10).

An endpoint's ``handle_message`` runs its own epoch fence, then xid
dedup against a :class:`ResponseCache`, then :func:`serve` — its
``{message class: handler}`` table plus error mapping.
"""

from __future__ import annotations

import collections
import threading
from typing import Any, Callable, Mapping

from repro.protocol.errors import ErrorCode, ProtocolError
from repro.protocol.messages import ErrorMessage, Message

#: Message class -> ``handler(endpoint, message)``.
Handlers = Mapping[type[Message], Callable[[Any, Any], "Message | None"]]


def serve(endpoint: Any, handlers: Handlers, message: Message) -> Message | None:
    """Answer ``message`` from ``handlers``, never unwinding the transport:
    an unknown class, a :class:`ProtocolError` or any other exception a
    handler raises becomes an ``Error`` answer."""
    handler = handlers.get(type(message))
    try:
        if handler is None:
            raise ProtocolError(
                ErrorCode.UNKNOWN_MESSAGE,
                f"{type(endpoint).__name__} cannot handle {message.TYPE}",
            )
        return handler(endpoint, message)
    except ProtocolError as exc:
        return ErrorMessage(xid=message.xid, code=exc.code, detail=exc.detail)
    except Exception as exc:  # noqa: BLE001 — a handler bug is an answer
        return ErrorMessage(
            xid=message.xid,
            code=ErrorCode.INTERNAL_ERROR,
            detail=f"{type(exc).__name__}: {exc}",
        )


class ResponseCache:
    """Bounded xid -> answer map: a retransmit of an applied request is
    answered from here instead of being applied twice. ``Error`` answers
    are kept too: a late duplicate of a refused request is refused again,
    never applied against state that changed in between."""

    def __init__(self, limit: int) -> None:
        self._answers: collections.OrderedDict[int, Message] = (
            collections.OrderedDict()
        )
        self._limit = limit
        self._lock = threading.Lock()

    def get(self, xid: int) -> Message | None:
        return self._answers.get(xid)  # one dict operation: atomic

    def put(self, xid: int, response: Message | None) -> None:
        if response is None:
            return
        with self._lock:
            self._answers[xid] = response
            while len(self._answers) > self._limit:
                self._answers.popitem(last=False)
