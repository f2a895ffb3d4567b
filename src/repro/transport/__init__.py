"""Transport channels carrying OpenBox protocol messages.

Two interchangeable implementations of the same :class:`Channel`
interface:

* :mod:`repro.transport.inproc` — synchronous in-process channels, used
  by tests and the network simulator (deterministic, no threads);
* :mod:`repro.transport.rest` — the dual REST channel of the paper
  (§3.3): each side runs an HTTP server and POSTs JSON-encoded messages
  to its peer. TLS is omitted (see DESIGN.md substitutions).

Plus two composable wrappers for fault tolerance:

* :mod:`repro.transport.faults` — seeded chaos injection (drops,
  delays, duplicates, crashes) around any channel;
* :mod:`repro.transport.retry` — bounded exponential-backoff retry,
  safe because receivers deduplicate by ``xid``.
"""
