"""Input refusals of the public API: each bad argument raises its own
exception class with its own message.

The rows cover the raise sites that no other test reaches, each through a
public call.  A row names the call, the exception class it must raise
(exactly, not a subclass) and the whole message.
"""

import pytest

from conftest import (
    bowtie_crosscap,
    build_graph,
    cycle_graph,
    triangle,
    triangle_with_loop,
    two_triangles,
    wheel,
)
from crossflow.cuts import (
    EdgeCut,
    boundary_connectivity,
    classify_cut,
    cuts_cross,
    make_cut,
)
from crossflow.embedding import (
    DisconnectedError,
    EmbeddedGraph,
    FaceWalk,
    OperationError,
    StructureError,
    canonical_anchor,
    contract_subgraph,
    delete_edge,
    delete_vertex,
    face_of_anchor,
    is_contractible_chord,
    lift_pair,
    side_in_open_disk,
    specified_walk,
    split_doubled_boundary_vertex,
    trace_faces,
)
from crossflow.families import (
    FamilyError,
    circulant_schedule,
    disk_crosscap_graph,
    gen_counterexample,
)
from crossflow.orient import (
    Orientation,
    OrientationError,
    ScheduleError,
    greedy_direct_and_delete,
    is_valid_orientation,
    orientation_from_tails,
    residue,
)
from crossflow.pgr import PgrError
from crossflow.solver import parse_trace


def _zeros(g):
    return {v: 0 for v in g.vertices}


def _without_faces(g):
    g.specified = []
    return g


def _stale_anchor():
    g = triangle()
    g.specified = [(9, 0)]
    return g


def _loop_face():
    # the face inside triangle_with_loop's loop, bounded by the loop alone
    g = triangle_with_loop()
    g.specified = [(3, 1)]
    g.validate()
    return g


def _three_faces():
    g = wheel(4)
    g.specified = [canonical_anchor(g, f) for f in trace_faces(g)[:3]]
    return g


def _sideways_darc():
    g = triangle()
    g.dvertex, g.darcs = 0, {0: "up"}
    return g


def _dangling_edge():
    g = triangle()
    g.edges[0] = (0, 9)
    return g


def _isolated_vertex():
    g = EmbeddedGraph()
    g.rotation = {0: []}
    return g


def _repeated_darts():
    # a -1 loop whose rotation lists each dart twice: its face step is no
    # permutation, and the orbit through (0, 0) holds its own mirror
    g = EmbeddedGraph()
    g.edges, g.sign = {0: (0, 0)}, {0: -1}
    g.rotation = {0: [(0, 0), (0, 0), (0, 1), (0, 1)]}
    return g


def _other_bowtie_walk():
    # bowtie_crosscap with vertex 0's rotation reordered: its specified walk
    # turns at corners that are not corners of bowtie_crosscap
    edges = {0: (0, 1), 1: (1, 2), 2: (2, 0), 3: (0, 3), 4: (3, 4), 5: (4, 0)}
    h = build_graph(
        edges,
        signs={2: -1},
        rotations={0: [(0, 0), (3, 0), (2, 1), (5, 1)]},
        specified_anchor=(0, 0),
    )
    return specified_walk(h)


def _walk_twice(g):
    # the triangle's face walked round twice: both visits of vertex 0 pass
    # the same corner
    w = specified_walk(g)
    return FaceWalk(states=w.states * 2, tails=w.tails * 2)


def _path_of_two():
    # the path 0-1-2: its one face runs along both edges and nothing else
    return build_graph({0: (0, 1), 1: (1, 2)}, specified_anchor=(0, 0))


def _odd_cut():
    # hand-made: one boundary edge of the triangle in the cut
    return EdgeCut(
        side=frozenset({0}), vertices=frozenset({0, 1, 2}), edges=(0,), size=1, robust=False
    )


REFUSALS = {
    # face-updating operations
    "delete_edge-unknown": (lambda: delete_edge(triangle(), 9), OperationError, "unknown edge 9"),
    "delete_edge-the-whole-face": (
        lambda: delete_edge(_loop_face(), 3),
        OperationError,
        "specified face is bounded by that edge alone",
    ),
    "delete_vertex-unknown": (
        lambda: delete_vertex(triangle(), 9),
        OperationError,
        "unknown vertex 9",
    ),
    "contract-empty-side": (
        lambda: contract_subgraph(triangle(), set()),
        OperationError,
        "side must be a non-empty set of vertices",
    ),
    "contract-unknown-vertex": (
        lambda: contract_subgraph(triangle(), {9}),
        OperationError,
        "unknown vertex 9",
    ),
    "contract-disconnected-side": (
        lambda: contract_subgraph(cycle_graph(4), {0, 2}),
        DisconnectedError,
        "side does not induce a connected subgraph",
    ),
    "contract-whole-graph": (
        lambda: contract_subgraph(triangle(), {0, 1, 2}),
        OperationError,
        "cannot contract the whole graph",
    ),
    "contract-swallows-a-component": (
        lambda: contract_subgraph(two_triangles(), {0, 1, 2}),
        StructureError,
        "no face is incident to the merged vertex",
    ),
    "lift-unknown-edge": (lambda: lift_pair(triangle(), 9, 0, 0), OperationError, "unknown edge 9"),
    "lift-a-loop": (
        lambda: lift_pair(triangle_with_loop(), 3, 0, 0),
        OperationError,
        "cannot lift a loop",
    ),
    "lift-one-edge-twice": (
        lambda: lift_pair(triangle(), 0, 0, 1),
        OperationError,
        "lift needs two distinct edges",
    ),
    "lift-edges-apart": (
        lambda: lift_pair(triangle(), 0, 1, 0),
        OperationError,
        "edges 0 and 1 do not meet at vertex 0",
    ),
    "lift-the-whole-face": (
        lambda: lift_pair(_path_of_two(), 0, 1, 1),
        OperationError,
        "specified face is bounded by the lifted pair",
    ),
    # chords and sides
    "chord-unknown": (
        lambda: is_contractible_chord(triangle(), 9),
        OperationError,
        "unknown edge 9",
    ),
    "chord-boundary-not-a-cycle": (
        lambda: is_contractible_chord(bowtie_crosscap(), 0),
        OperationError,
        "specified face boundary is not a cycle",
    ),
    "chord-off-the-boundary": (
        lambda: is_contractible_chord(wheel(4), 4),
        OperationError,
        "edge 4 is not a chord of the boundary",
    ),
    "disk-empty-side": (
        lambda: side_in_open_disk(triangle(), set()),
        OperationError,
        "side must be non-empty",
    ),
    "disk-unknown-vertex": (
        lambda: side_in_open_disk(triangle(), {9}),
        OperationError,
        "unknown vertex 9",
    ),
    "disk-disconnected-side": (
        lambda: side_in_open_disk(cycle_graph(4), {0, 2}),
        DisconnectedError,
        "side does not induce a connected subgraph",
    ),
    # faces and anchors
    "face_of_anchor-not-a-dart": (
        lambda: face_of_anchor(triangle(), trace_faces(triangle()), (9, 0)),
        StructureError,
        "anchor (9, 0) is not a dart of the graph",
    ),
    "face_of_anchor-self-mirror-orbit": (
        lambda: face_of_anchor(_repeated_darts(), [], (0, 0)),
        StructureError,
        "facial walk is its own mirror",
    ),
    "specified_walk-stale-anchor": (
        lambda: specified_walk(_stale_anchor()),
        StructureError,
        "specified face anchor is stale",
    ),
    "canonical_anchor-empty-walk": (
        lambda: canonical_anchor(_isolated_vertex(), trace_faces(_isolated_vertex())[0]),
        StructureError,
        "face has no positively traversed dart",
    ),
    "validate-three-faces": (
        lambda: _three_faces().validate(),
        StructureError,
        "at most two specified faces are allowed",
    ),
    "validate-darc-neither-way": (
        lambda: _sideways_darc().validate(),
        StructureError,
        "darc for edge 0 must be in or out",
    ),
    "validate-missing-endpoint": (
        lambda: _dangling_edge().validate(),
        StructureError,
        "edge 0 has a missing endpoint",
    ),
    # the split
    "split-no-face": (
        lambda: split_doubled_boundary_vertex(_without_faces(triangle()), 0),
        OperationError,
        "split needs exactly one specified face",
    ),
    "split-walk-of-another-graph": (
        lambda: split_doubled_boundary_vertex(bowtie_crosscap(), 0, _other_bowtie_walk(), 1),
        StructureError,
        "face corner darts are not adjacent in the rotation",
    ),
    "split-one-corner-twice": (
        lambda: split_doubled_boundary_vertex(triangle(), 0, _walk_twice(triangle()), 1),
        OperationError,
        "boundary visits share a corner; cannot split",
    ),
    # cuts
    "make_cut-empty-side": (
        lambda: make_cut(triangle(), set()),
        OperationError,
        "cut side must be a proper non-empty vertex subset",
    ),
    "classify_cut-odd-count": (
        lambda: classify_cut(triangle(), _odd_cut()),
        OperationError,
        "cut meets the boundary cycle in an odd edge count",
    ),
    "cuts_cross-two-graphs": (
        lambda: cuts_cross(make_cut(triangle(), {0}), make_cut(cycle_graph(4), {0})),
        OperationError,
        "cuts come from different graphs",
    ),
    "boundary_connectivity-unknown": (
        lambda: boundary_connectivity(wheel(4), 9),
        OperationError,
        "unknown vertex 9",
    ),
    "boundary_connectivity-no-face": (
        lambda: boundary_connectivity(_without_faces(triangle()), 0),
        OperationError,
        "graph has no specified face",
    ),
    # orientations
    "orientation_from_tails-unknown": (
        lambda: orientation_from_tails(triangle(), {9: 0}),
        OrientationError,
        "unknown edge 9",
    ),
    "residue-unknown-vertex": (
        lambda: residue(triangle(), Orientation(), 9),
        OrientationError,
        "unknown vertex 9",
    ),
    "residue-undirected-edge": (
        lambda: residue(triangle(), Orientation(), 0),
        OrientationError,
        "edge 0 at vertex 0 is undirected",
    ),
    "is_valid_orientation-unknown": (
        lambda: is_valid_orientation(
            triangle(), _zeros(triangle()), Orientation({0: (0, 1), 1: (1, 2), 2: (2, 0), 9: (0, 1)})
        ),
        OrientationError,
        "unknown edge 9",
    ),
    "greedy-lift-missing-edge": (
        lambda: greedy_direct_and_delete(triangle(), _zeros(triangle()), [(9, 0, 0)], []),
        ScheduleError,
        "lift names missing edge 9",
    ),
    "greedy-lift-edges-apart": (
        lambda: greedy_direct_and_delete(triangle(), _zeros(triangle()), [(0, 1, 0)], []),
        ScheduleError,
        "edges 0,1 do not meet at 0",
    ),
    "greedy-lift-to-a-loop": (
        lambda: greedy_direct_and_delete(cycle_graph(2), _zeros(cycle_graph(2)), [(0, 1, 0)], []),
        ScheduleError,
        "lift would create a loop",
    ),
    # families and traces
    "disk_crosscap-short-cycle": (
        lambda: disk_crosscap_graph([0, 1], []),
        FamilyError,
        "cycle must list at least three distinct vertices",
    ),
    "disk_crosscap-bad-chord": (
        lambda: disk_crosscap_graph([0, 1, 2], [(0, 0)]),
        FamilyError,
        "chord (0, 0) is not a vertex pair on the cycle",
    ),
    "counterexample-negative-scale": (
        lambda: gen_counterexample(-1),
        FamilyError,
        "counterexample scale must be >= 0, got -1",
    ),
    "circulant_schedule-no-lift-edges": (
        lambda: circulant_schedule(cycle_graph(5), 5, False),
        FamilyError,
        "graph does not carry the expected lift edges",
    ),
    "parse_trace-step-index": (
        lambda: parse_trace("trace 1\nstep x LiftPair args=1 digest=ab\noutcome none\n"),
        PgrError,
        "line 2: step index must be an integer, got 'x'",
    ),
}


@pytest.mark.parametrize("call, cls, message", list(REFUSALS.values()), ids=list(REFUSALS))
def test_public_call_refuses_bad_input(call, cls, message):
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is cls
    assert str(info.value) == message
