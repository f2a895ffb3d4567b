#!/usr/bin/env python3
"""Custom module injection over the real REST channel (paper §3.2.1).

An application developer extends a *running* OBI with a new processing
block — no recompilation, no redeployment of the OBI itself. The module
ships as a binary payload in an AddCustomModuleRequest (here: Python
source; in the paper: a compiled Click module), together with its block
type declaration and a translation map. The new block is then usable in
processing graphs immediately.

Run:  python3 examples/custom_module_rest.py
"""

from repro.bootstrap import connect_obi_rest, serve_controller_rest
from repro.controller.obc import OpenBoxController
from repro.core.blocks import Block
from repro.core.graph import ProcessingGraph
from repro.net.builder import make_http_get
from repro.obi.instance import ObiConfig, OpenBoxInstance
from repro.protocol.messages import AddCustomModuleRequest, SetProcessingGraphRequest

#: The custom module: a block that tags packets with their HTTP host.
MODULE_SOURCE = b'''
from repro.net.http import parse_http, HttpRequest

class HostTagger(Element):
    """Writes the HTTP Host header into the packet metadata storage."""

    def __init__(self, name, config, origin_app=None):
        super().__init__(name, config, origin_app)
        self.tagged = 0

    def process(self, packet):
        message = parse_http(packet.payload)
        if isinstance(message, HttpRequest) and message.host:
            packet.metadata["http.host"] = message.host
            self.tagged += 1
        return [(0, packet)]

    def read_handle(self, name):
        if name == "tagged":
            return self.tagged
        return super().read_handle(name)

ELEMENTS = {"HostTagger": HostTagger}
'''

BLOCK_TYPES = [{
    "name": "HostTagger",
    "class": "static",
    "description": "tag packets with their HTTP Host header",
    "num_ports": 1,
    "handles": [{"name": "tagged", "writable": False}],
}]


def main() -> None:
    # Controller and OBI talking over real loopback HTTP (dual REST).
    controller = OpenBoxController(auto_deploy=False)
    controller_endpoint = serve_controller_rest(controller)
    obi = OpenBoxInstance(ObiConfig(obi_id="rest-obi"))
    obi_endpoint, _upstream = connect_obi_rest(obi, controller_endpoint.url)

    def send(message):
        # The controller's one send path stamps its generation: the OBI
        # refuses requests below the highest generation it has obeyed.
        return controller.send("rest-obi", message)

    print(f"controller at {controller_endpoint.url}")
    print(f"OBI callback at {controller.obis['rest-obi'].callback_url}")

    # Inject the module.
    response = send(AddCustomModuleRequest.from_binary(
        "host-tagger", MODULE_SOURCE, BLOCK_TYPES,
    ))
    print(f"AddCustomModule -> {type(response).__name__}: {response.detail}")

    # Deploy a graph that uses the new block type.
    graph = ProcessingGraph("tagging")
    read = Block("FromDevice", name="read", config={"devname": "in"})
    tagger = Block("HostTagger", name="tagger")
    out = Block("ToDevice", name="out", config={"devname": "out"})
    graph.chain(read, tagger, out)
    deploy = send(SetProcessingGraphRequest(graph=graph.to_dict()))
    print(f"SetProcessingGraph -> ok={deploy.ok}")

    # Traffic through the extended OBI.
    for host in ("www.example.edu", "cdn.example.net"):
        outcome = obi.process_packet(
            make_http_get("10.0.0.1", "192.0.2.1", host, "/page")
        )
        tagged = outcome.outputs[0][1].metadata.get("http.host")
        print(f"packet to {host:18s} tagged with: {tagged}")

    # Read the module's custom handle through the protocol.
    from repro.protocol.messages import ReadRequest
    read_response = send(ReadRequest(block="tagger", handle="tagged"))
    print(f"tagger.tagged = {read_response.value}")

    obi_endpoint.close()
    controller_endpoint.close()


if __name__ == "__main__":
    main()
