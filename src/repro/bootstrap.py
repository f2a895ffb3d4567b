"""Wiring helpers: connect controllers and OBIs over a transport.

These helpers encapsulate the connection choreography so tests,
examples, and the simulator do not repeat it:

* :func:`connect_inproc` — deterministic in-process wiring;
* :func:`serve_controller_rest` / :func:`connect_obi_rest` — the paper's
  dual REST channel: the controller listens, each OBI runs its own local
  REST server and advertises it in ``Hello.callback_url``, and the
  controller connects back.
"""

from __future__ import annotations

from typing import Callable

from repro.controller.obc import OpenBoxController
from repro.obi.instance import OpenBoxInstance
from repro.protocol.messages import Hello, Message
from repro.transport.base import Channel
from repro.transport.inproc import InProcPair
from repro.transport.rest import RestEndpoint, RestPeerChannel
from repro.transport.retry import ResilientChannel, RetryPolicy, derive_seed


def connect_inproc(
    controller: OpenBoxController,
    instance: OpenBoxInstance,
    wrap_downstream: Callable[[Channel], Channel] | None = None,
) -> InProcPair:
    """Connect an OBI to a controller over an in-process channel pair.

    Performs the Hello handshake and binds the controller's downstream
    channel (triggering auto-deployment if enabled). ``wrap_downstream``
    decorates the controller→OBI channel before it is bound — the hook
    the fault-injection suite uses to interpose a
    :class:`~repro.transport.faults.FaultyChannel` and/or
    :class:`~repro.transport.retry.ResilientChannel`.
    """
    pair = InProcPair(left_name="obc", right_name=f"obi:{instance.config.obi_id}")
    pair.left.set_handler(controller.handle_message)
    instance.connect(pair.right)
    downstream: Channel = pair.left
    if wrap_downstream is not None:
        downstream = wrap_downstream(downstream)
    controller.connect_obi(instance.config.obi_id, downstream)
    return pair


def serve_controller_rest(
    controller: OpenBoxController,
    host: str = "127.0.0.1",
    port: int = 0,
    retry: RetryPolicy | None = None,
) -> RestEndpoint:
    """Start the controller's REST endpoint.

    Wraps the controller's handler so that when an OBI's ``Hello``
    arrives with a callback URL, the controller dials back — the "dual"
    half of the dual REST channel. ``retry`` hardens the dial-back
    channel with idempotent retry (safe: OBIs deduplicate by xid).
    """
    endpoint = RestEndpoint(host=host, port=port)

    def handler(message: Message) -> Message | None:
        response = controller.handle_message(message)
        if isinstance(message, Hello) and message.callback_url:
            downstream: Channel = RestPeerChannel(message.callback_url)
            if retry is not None:
                # Seed jitter by who we dial and under which epoch —
                # never by construction order, which two controllers
                # replaying the same journal would share (their
                # "jittered" retries would land in lockstep).
                downstream = ResilientChannel(
                    downstream, retry,
                    seed=derive_seed(
                        message.callback_url, controller.generation
                    ),
                )
            controller.connect_obi(message.obi_id, downstream)
        return response

    endpoint.set_handler(handler)
    endpoint.start()
    return endpoint


def connect_obi_rest(
    instance: OpenBoxInstance,
    controller_url: str,
    host: str = "127.0.0.1",
    port: int = 0,
    retry: RetryPolicy | None = None,
) -> tuple[RestEndpoint, Channel]:
    """Start an OBI's local REST server and register with the controller.

    Returns the OBI's endpoint and its upstream channel. The endpoint
    serves downstream requests (SetProcessingGraph, handles, stats);
    the channel carries upstream traffic (Hello, KeepAlive, Alerts),
    wrapped with retry/backoff when a ``retry`` policy is given.
    """
    endpoint = RestEndpoint(host=host, port=port)
    endpoint.set_handler(instance.handle_message)
    endpoint.start()
    upstream: Channel = RestPeerChannel(controller_url)
    if retry is not None:
        upstream = ResilientChannel(
            upstream, retry,
            seed=derive_seed(controller_url, instance.config.obi_id),
        )
    instance.set_upstream(upstream)
    instance.reconnect(callback_url=endpoint.url)
    return endpoint, upstream


def reconnect_inproc(
    controller: OpenBoxController,
    instance: OpenBoxInstance,
    pair: InProcPair,
    wrap_downstream: Callable[[Channel], Channel] | None = None,
) -> InProcPair:
    """Re-wire an existing in-process pair after a controller restart.

    Models a controller process coming back at the same address: the
    pair is reopened (sends during the outage failed with
    ``ChannelClosed``, like a refused connection), the recovered
    controller's handler is installed, and the OBI re-sends ``Hello`` —
    idempotent controller-side, carrying the running graph's digest so
    the recovered controller can *adopt* it instead of re-pushing
    (PROTOCOL.md §10). The OBI replays anything buffered while headless
    as part of the same exchange.
    """
    pair.reopen()
    pair.left.set_handler(controller.handle_message)
    instance.reconnect(pair.right)
    downstream: Channel = pair.left
    if wrap_downstream is not None:
        downstream = wrap_downstream(downstream)
    controller.connect_obi(instance.config.obi_id, downstream)
    return pair


def rehome_inproc(
    instance: OpenBoxInstance,
    candidates: list[tuple[str, OpenBoxController | None]],
) -> tuple[str, InProcPair] | None:
    """Re-home an OBI across controllers over fresh in-process pairs.

    Models the failover dial sequence (PROTOCOL.md §12): each candidate
    endpoint gets its own channel pair — a different controller lives
    at a different address — and the OBI walks them in order with
    :meth:`OpenBoxInstance.rehome`, skipping dead addresses (a ``None``
    controller: the pair is closed, so dialing it raises like a refused
    connection) and deposed leaders (stale HelloResponse generation).
    The winner's downstream channel is bound exactly like a reconnect.

    Returns ``(endpoint, pair)`` for the adopted controller, or None.
    """
    pairs: dict[str, tuple[InProcPair, OpenBoxController | None]] = {}
    dial_list = []
    for endpoint, controller in candidates:
        pair = InProcPair(
            left_name=f"obc:{endpoint}",
            right_name=f"obi:{instance.config.obi_id}",
        )
        if controller is None:
            pair.close()
        else:
            pair.left.set_handler(controller.handle_message)
        pairs[endpoint] = (pair, controller)
        dial_list.append((endpoint, pair.right))
    winner = instance.rehome(dial_list)
    if winner is None:
        return None
    pair, controller = pairs[winner]
    assert controller is not None
    controller.connect_obi(instance.config.obi_id, pair.left)
    return winner, pair
