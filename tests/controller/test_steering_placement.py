"""Traffic-steering tests."""

import pytest

from repro.controller.steering import ServiceChain, SteeringHop, TrafficSteering
from repro.net.builder import make_tcp_packet


class TestSteeringHop:
    def test_pick_deterministic_per_flow(self):
        hop = SteeringHop(group="g", replicas=["a", "b", "c"])
        assert hop.pick(12345) == hop.pick(12345)

    def test_pick_distributes(self):
        hop = SteeringHop(group="g", replicas=["a", "b"])
        choices = {hop.pick(key) for key in range(200)}
        assert choices == {"a", "b"}

    def test_rendezvous_stability_on_replica_add(self):
        """Adding a replica only moves flows TO the new replica."""
        before = SteeringHop(group="g", replicas=["a", "b"])
        after = SteeringHop(group="g", replicas=["a", "b", "c"])
        moved_wrongly = 0
        for key in range(500):
            old, new = before.pick(key), after.pick(key)
            if new != old and new != "c":
                moved_wrongly += 1
        assert moved_wrongly == 0

    def test_weights_bias_selection(self):
        hop = SteeringHop(group="g", replicas=["small", "big"],
                          weights={"small": 1.0, "big": 4.0})
        counts = {"small": 0, "big": 0}
        for key in range(2000):
            counts[hop.pick(key)] += 1
        assert counts["big"] > counts["small"] * 2

    def test_empty_replicas_rejected(self):
        with pytest.raises(ValueError):
            SteeringHop(group="g", replicas=[]).pick(1)


class TestServiceChainRouting:
    def test_route_consistent_per_flow(self):
        chain = ServiceChain(name="c", hops=[
            SteeringHop(group="fw", replicas=["fw-1", "fw-2"]),
            SteeringHop(group="ips", replicas=["ips-1"]),
        ])
        packet = make_tcp_packet("1.1.1.1", "2.2.2.2", 1000, 80)
        first = chain.route(packet)
        second = chain.route(packet.clone())
        assert first == second
        assert len(first) == 2
        assert first[1] == "ips-1"

    def test_reverse_direction_same_replica(self):
        chain = ServiceChain(name="c", hops=[
            SteeringHop(group="fw", replicas=["fw-1", "fw-2"]),
        ])
        forward = make_tcp_packet("1.1.1.1", "2.2.2.2", 1000, 80)
        backward = make_tcp_packet("2.2.2.2", "1.1.1.1", 80, 1000)
        assert chain.route(forward) == chain.route(backward)


class TestTrafficSteering:
    def _steering(self):
        steering = TrafficSteering()
        corp = ServiceChain("corp", [SteeringHop("fw", ["fw-1"])])
        guest = ServiceChain("guest", [SteeringHop("dpi", ["dpi-1"])])
        steering.register_chain(corp, vlan=10, default=True)
        steering.register_chain(guest, vlan=20)
        return steering

    def test_vlan_selection(self):
        steering = self._steering()
        corp_packet = make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 80, vlan=10)
        guest_packet = make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 80, vlan=20)
        assert steering.route(corp_packet) == ["fw-1"]
        assert steering.route(guest_packet) == ["dpi-1"]

    def test_default_chain(self):
        steering = self._steering()
        untagged = make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 80)
        assert steering.route(untagged) == ["fw-1"]

    def test_custom_selector(self):
        steering = self._steering()
        steering.set_selector(
            lambda packet: "guest" if packet.l4 and packet.l4.dst_port == 8080 else None
        )
        assert steering.route(make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 8080)) == ["dpi-1"]
        assert steering.route(make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 80)) == ["fw-1"]

    def test_no_chains_empty_route(self):
        steering = TrafficSteering()
        assert steering.route(make_tcp_packet("1.1.1.1", "2.2.2.2", 5, 80)) == []

    def test_update_replicas_propagates(self):
        steering = self._steering()
        steering.update_replicas("fw", ["fw-1", "fw-2"])
        chain = steering.chains["corp"]
        assert chain.hops[0].replicas == ["fw-1", "fw-2"]

