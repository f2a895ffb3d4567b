"""The OpenBox data plane: service instances (OBIs) and their engine.

An OBI (paper §3.1, §4.2) is a generic, low-level packet processor. It
receives a processing graph from the controller, instantiates it on the
execution engine, applies it to packets, answers read/write handles,
reports load, and raises alerts. The paper's implementation wraps the
Click modular router; :mod:`repro.obi.engine` is the Python analog —
a push-based element engine with the same block semantics.
"""
