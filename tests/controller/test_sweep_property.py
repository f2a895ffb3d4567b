"""Differential: a fleet sweep deploys, per OBI, exactly what an
independent, un-shared ``aggregate`` call computes for that OBI."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bootstrap import connect_inproc
from repro.controller.aggregator import GraphAggregator
from repro.controller.apps import AppStatement, FunctionApplication
from repro.controller.obc import OpenBoxController
from repro.core.graph import canonical_graph_digest
from repro.obi.instance import ObiConfig, OpenBoxInstance
from tests.core.test_merge_equivalence import build_random_nf

SEGMENTS = ["corp", "corp/eng", "corp/eng/lab", "corp/sales", "dmz"]


@st.composite
def fleets(draw):
    """OBIs over nested segments; apps with one or two statements scoped
    network-wide, to a (parent) segment or pinned to an OBI, with
    priority ties and non-mergeable runs."""
    obis = [
        (f"obi-{index}", segment) for index, segment in enumerate(
            draw(st.lists(st.sampled_from(SEGMENTS), min_size=1, max_size=6))
        )
    ]
    scope = st.one_of(
        st.sampled_from([""] + SEGMENTS).map(lambda s: {"segment": s}),
        st.sampled_from([obi_id for obi_id, _s in obis]).map(
            lambda o: {"obi_id": o}
        ),
    )
    apps = []
    for index in range(draw(st.integers(1, 4))):
        name = f"app{index}"
        statements = [
            AppStatement(
                graph=build_random_nf(
                    draw(st.integers(0, 10**6)), f"{name}s{number}"
                ),
                **draw(scope),
            )
            for number in range(draw(st.integers(1, 2)))
        ]
        apps.append(FunctionApplication(
            name, lambda statements=statements: list(statements),
            priority=draw(st.integers(1, 3)), mergeable=draw(st.booleans()),
        ))
    return obis, apps


def _unlabelled(result):
    """A result with the labels a merge draws from a process-wide counter
    taken out — block names become positions, and the ``origin_block`` of
    a block the merge synthesized (no ``origin_app``) is dropped — the
    way ``canonical_graph_digest`` reads a graph: two merges of the same
    inputs differ in those labels only."""
    graph = result.graph.to_dict()
    names = {block["name"]: index for index, block in enumerate(graph["blocks"])}
    for block in graph["blocks"]:
        block["name"] = names[block["name"]]
        if "origin_app" not in block:
            block.pop("origin_block", None)
    for connector in graph["connectors"]:
        connector["src"] = names[connector["src"]]
        connector["dst"] = names[connector["dst"]]
    return graph, result.app_names, list(result.origin_map().values())


@settings(max_examples=40, deadline=None)
@given(fleets())
def test_sweep_deploys_what_an_unshared_aggregate_computes(fleet):
    obis, apps = fleet
    controller = OpenBoxController(auto_deploy=False)
    for segment in SEGMENTS:
        controller.segments.add(segment)
    instances = {}
    for obi_id, segment in obis:
        instances[obi_id] = OpenBoxInstance(
            ObiConfig(obi_id=obi_id, segment=segment)
        )
        connect_inproc(controller, instances[obi_id])
    for app in apps:
        controller.register_application(app)

    controller.redeploy_all()

    for obi_id, segment in obis:
        handle = controller.obis[obi_id]
        alone = GraphAggregator(controller.segments).aggregate(
            list(apps), obi_id, segment
        )
        if alone is None:
            assert handle.deployed is None
            assert instances[obi_id].graph is None
            continue
        assert _unlabelled(handle.deployed) == _unlabelled(alone)
        digest = canonical_graph_digest(alone.graph.to_dict())
        assert handle.intended_digest == digest
        assert handle.reported_digest == digest
        assert instances[obi_id].graph_digest == digest
        # What the OBI runs is the shared result, label for label.
        assert instances[obi_id].graph.to_dict() == handle.deployed.graph.to_dict()
