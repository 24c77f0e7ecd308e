"""Face tracing, topological predicates, and the reduction operations.

The frozen face counts and walk lengths in here were derived by hand
from the rotation data before the implementation existed; they are the
reference the tracer is checked against, not values copied from it.
"""

import hashlib
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    _count_calls,
    _record_candidates,
    bowtie_crosscap,
    build_graph,
    names_the_cut_halves,
    names_the_halves,
    orbit_pairs,
    petal_graph,
    random_multigraph,
    reference_split,
    square_with_chord,
    triangle,
    triangle_with_loop,
    two_triangles,
    wheel,
)
from crossflow.embedding import (
    DisconnectedError,
    EmbeddedGraph,
    EmbeddingError,
    OperationError,
    StructureError,
    _face_through,
    _mirror,
    _split_cut,
    _switch,
    _walk_from,
    boundary_cycle,
    canonical_anchor,
    contract_subgraph,
    cycle_sign,
    delete_edge,
    delete_vertex,
    euler_characteristic,
    face_of_anchor,
    is_contractible_chord,
    lift_pair,
    planarize_along_chord,
    side_in_open_disk,
    specified_walk,
    split_doubled_boundary_vertex,
    trace_faces,
)
from crossflow import embedding
from crossflow.families import (
    disk_crosscap_graph,
    gen_circulant_b,
    gen_counterexample,
    gen_random_pt,
)
from crossflow.pgr import serialize_graph


# ------------------------------------------------------------ face tracing


def test_triangle_two_faces():
    g = triangle()
    faces = trace_faces(g)
    assert sorted(f.length for f in faces) == [3, 3]
    assert euler_characteristic(g) == 2


def test_single_edge_one_face():
    g = build_graph({0: (0, 1)})
    faces = trace_faces(g)
    assert [f.length for f in faces] == [2]
    assert euler_characteristic(g) == 2


def test_b5_face_census():
    # 5 vertices, 10 edges, chi 1 forces F = 6; lengths add up to 2|E|
    g = gen_circulant_b(5)
    faces = trace_faces(g)
    assert len(faces) == 6
    assert sum(f.length for f in faces) == 20
    assert euler_characteristic(g) == 1


def test_face_walk_sum_is_twice_edges():
    for seed in range(40):
        g = random_multigraph(seed)
        assert sum(f.length for f in trace_faces(g)) == 2 * len(g.edges)


def test_anchor_roundtrip():
    g = random_multigraph(7)
    faces = trace_faces(g)
    anchors = [canonical_anchor(g, f) for f in faces]
    assert len(set(anchors)) == len(faces)


def test_trace_rejects_malformed_rotation():
    # the face counters check the rotation system by validate's own rule
    g = triangle()
    g.rotation[0] = g.rotation[0][:1]
    for check in (EmbeddedGraph.validate, trace_faces, euler_characteristic):
        with pytest.raises(StructureError, match="rotation at vertex 0 is malformed"):
            check(g)


def test_validate_refuses_negative_ids():
    # ids are non-negative; the cut layer's max-flow takes -1 for its sink
    for edges, message in (
        ({0: (0, -1), 1: (-1, 1), 2: (1, 0)}, "vertex id -1 is negative"),
        ({-2: (0, 1), 1: (1, 2), 2: (2, 0)}, "edge id -2 is negative"),
    ):
        with pytest.raises(StructureError, match=message):
            build_graph(edges)  # which validates


def test_validate_rejects_a_repeated_anchor():
    # two specified faces that are one face would be counted twice by the
    # class check and merged quietly by the first contraction
    g = random_multigraph(3)
    g.specified = [g.specified[0]] * 2
    with pytest.raises(StructureError, match="given twice"):
        g.validate()
    g = random_multigraph(1)  # two anchors of its two faces
    g.specified = [canonical_anchor(g, f) for f in trace_faces(g)]
    assert len(g.specified) == 2
    g.validate()


def test_validate_rejects_two_anchors_of_one_face():
    # every second anchor beside the specified one: refused exactly when
    # the full trace puts both in one face, whether (b, +1) lies on the
    # first anchor's orbit or only on its mirror
    kinds = Counter()
    graphs = [random_multigraph(seed) for seed in range(40)]
    graphs += [gen_circulant_b(5), gen_counterexample(0)[0], bowtie_crosscap()]
    for g in graphs:
        faces = trace_faces(g)
        a = g.specified[0]
        orbit = specified_walk(g).states
        for b in sorted((e, end) for e in g.edges for end in (0, 1)):
            if b == a:
                continue
            g.specified = [a, b]
            one = face_of_anchor(g, faces, a) == face_of_anchor(g, faces, b)
            if one:
                with pytest.raises(StructureError, match="name one face"):
                    g.validate()
            else:
                g.validate()
            kinds[one, (b, 1) in orbit] += 1
    assert kinds[True, True] and kinds[True, False] and kinds[False, False], kinds


def reference_validate(g):
    """EmbeddedGraph.validate as it was written first: the expected dart
    list of every vertex, compared with its rotation after sorting both."""
    expected = {v: [] for v in g.rotation}
    for e, (u, v) in g.edges.items():
        if u not in g.rotation or v not in g.rotation:
            raise StructureError(f"edge {e} has a missing endpoint")
        if g.sign.get(e) not in (1, -1):
            raise StructureError(f"edge {e} has no sign")
        expected[u].append((e, 0))
        expected[v].append((e, 1))
    if set(g.sign) != set(g.edges):
        raise StructureError("sign table does not match the edge set")
    for v, rot in g.rotation.items():
        if sorted(rot) != sorted(expected[v]):
            raise StructureError(f"rotation at vertex {v} is malformed")
    # the marks are checked by the same code in both; one call covers them
    g.validate()


def _corrupt(g, rng):
    """One random fault of the kinds validate must name."""
    verts = list(g.rotation)
    v = verts[int(rng.integers(len(verts)))]
    rot = g.rotation[v]
    k = int(rng.integers(len(rot)))
    kind = int(rng.integers(7))
    if kind == 0:  # drop a dart
        del rot[k]
    elif kind == 1:  # duplicate one, at its own vertex or another
        w = verts[int(rng.integers(len(verts)))]
        g.rotation[w].insert(int(rng.integers(len(g.rotation[w]) + 1)), rot[k])
    elif kind == 2:  # move one to another vertex
        w = verts[int(rng.integers(len(verts)))]
        g.rotation[w].append(rot.pop(k))
    elif kind == 3:  # end 2
        rot[k] = (rot[k][0], 2)
    elif kind == 4:  # unknown edge
        rot[k] = (max(g.edges) + 1, rot[k][1])
    elif kind == 5:  # an edge without a sign
        g.sign.pop(int(rng.choice(sorted(g.edges))), None)
    else:  # a sign without an edge
        g.sign[max(g.edges) + 1] = 1


def test_validate_matches_reference():
    # random multigraphs, some with a loop, each with one or two faults:
    # the same exception class and message, or none, as the reference
    rng = np.random.default_rng(11)
    kinds = Counter()
    for seed in range(600):
        g = random_multigraph(seed)
        if seed % 3 == 0:
            v, e = int(rng.integers(len(g.rotation))), max(g.edges) + 1
            g.edges[e], g.sign[e] = (v, v), 1
            g.rotation[v][1:1] = [(e, 0), (e, 1)]
        for _ in range(1 + seed % 2):
            _corrupt(g, rng)
        want, got = _raised(reference_validate, g), _raised(EmbeddedGraph.validate, g)
        assert got == want, f"seed {seed}"
        kinds[want and re.sub(r"\d+", "N", want[1])] += 1
    assert {
        "edge N has no sign",
        "sign table does not match the edge set",
        "rotation at vertex N is malformed",
    } <= set(kinds), kinds


def _raised(fn, g):
    try:
        fn(g)
    except Exception as exc:  # the class and the message are compared
        return type(exc), str(exc)
    return None


def test_disconnected_characteristic_refused():
    g = build_graph({0: (0, 1), 1: (2, 3)})
    with pytest.raises(DisconnectedError):
        euler_characteristic(g)


def _outcome(fn, g):
    try:
        return fn(g)
    except Exception as exc:  # the class is what is compared
        return type(exc)


def _chi_by_full_trace(g):
    if not g.rotation:
        raise OperationError("empty graph")
    if not g.is_connected():
        raise DisconnectedError("disconnected")
    faces = len(orbit_pairs(g)[1]) if g.edges else 1
    return len(g.rotation) - len(g.edges) + faces


def _without_edges(g, dead):
    h = g.copy()
    for e in dead:
        u, v = h.edges.pop(e)
        del h.sign[e]
        h.rotation[u].remove((e, 0))
        h.rotation[v].remove((e, 1))
    return h


def test_euler_characteristic_matches_full_trace(monkeypatch):
    # euler_characteristic walks one orbit per face of a checked rotation
    # system; the reference walks every orbit and pairs them, unchecked.
    # Values and exception classes must agree.
    graphs = []
    malformed = []
    for seed in range(300):
        g = random_multigraph(seed)
        graphs.append(g)
        graphs.append(_without_edges(g, sorted(g.edges)[1::3]))  # may disconnect
        bad = g.copy()  # a sign outside +-1: no facial walk closes
        bad.sign[0] = 0
        malformed.append(bad)
        bad = g.copy()  # a dart listed twice at its vertex, another lost
        rot = bad.rotation[bad.vertices[0]]
        rot[1] = rot[0]
        malformed.append(bad)
    for g in malformed:
        assert _outcome(_chi_by_full_trace, g) is StructureError
        assert _outcome(euler_characteristic, g) is StructureError
        assert _outcome(trace_faces, g) is StructureError
    graphs.extend(malformed)
    graphs.append(build_graph({0: (0, 1)}))
    graphs.append(EmbeddedGraph(rotation={0: []}))
    graphs.append(EmbeddedGraph())
    # the layout of every candidate the random generator draws, projective
    # or not, and the corpus graphs it accepts
    candidates = _record_candidates(monkeypatch)
    for seed in range(60):
        graphs.append(gen_random_pt(seed, 12)[0])
    monkeypatch.undo()
    seen = [disk_crosscap_graph(cycle, chords) for cycle, _, chords, _ in candidates]
    assert any(_chi_by_full_trace(g) != 1 for g in seen)
    graphs.extend(seen)
    outcomes = Counter()
    for g in graphs:
        want = _outcome(_chi_by_full_trace, g)
        assert _outcome(euler_characteristic, g) == want
        outcomes[want if isinstance(want, type) else int] += 1
    assert outcomes[StructureError] and outcomes[DisconnectedError]
    assert outcomes[OperationError] and outcomes[int]


# --------------------------------------------------------------- cycle sign


def test_boundary_cycle_sign_positive():
    g = gen_circulant_b(5)
    walk = specified_walk(g)
    assert cycle_sign(g, sorted(walk.edge_ids())) == 1


def test_one_jump_cycle_sign_negative():
    g = gen_circulant_b(5)
    cyc = boundary_cycle(g)
    # boundary edges v1->v2->v3 plus the jump chord v3 back to v1
    b12 = g.edges_between(cyc[0], cyc[1])[0]
    b23 = g.edges_between(cyc[1], cyc[2])[0]
    jump = [e for e in g.edges_between(cyc[2], cyc[0]) if g.sign[e] == -1][0]
    assert cycle_sign(g, [b12, b23, jump]) == -1


def test_cycle_sign_requires_cycle():
    g = gen_circulant_b(5)
    cyc = boundary_cycle(g)
    b12 = g.edges_between(cyc[0], cyc[1])[0]
    with pytest.raises(OperationError):
        cycle_sign(g, [b12])


_CYCLE_SIGN_ERRORS = {  # edges of two_triangles() -> the error, checked in this order
    "empty": ([], "cycle must be a non-empty set of distinct edges"),
    "repeated": ([0, 1, 2, 0], "cycle must be a non-empty set of distinct edges"),
    "unknown": ([0, 9], "unknown edge 9"),
    "path": ([0, 1], "edges do not form a cycle"),
    "two cycles": ([0, 1, 2, 3, 4, 5], "edges form more than one cycle"),
}


@pytest.mark.parametrize("case", sorted(_CYCLE_SIGN_ERRORS))
def test_cycle_sign_errors(case):
    edges, message = _CYCLE_SIGN_ERRORS[case]
    with pytest.raises(OperationError, match=f"^{message}$"):
        cycle_sign(two_triangles(), edges)


def test_cycle_sign_of_a_loop_and_a_digon():
    # a loop is a cycle of one edge, two parallel edges one of two
    g = triangle_with_loop()
    g.sign[3] = -1
    assert cycle_sign(g, [3]) == -1
    digon = build_graph({0: (0, 1), 1: (1, 0)}, signs={1: -1})
    assert cycle_sign(digon, [1, 0]) == -1


def test_cycle_sign_switching_invariant():
    # flipping all signs at one vertex never changes any cycle's sign
    g = gen_circulant_b(7)
    walk_edges = sorted(specified_walk(g).edge_ids())
    before = cycle_sign(g, walk_edges)
    v = g.vertices[3]
    h = g.copy()
    for e in set(h.incident(v)):
        h.sign[e] = -h.sign[e]
    assert cycle_sign(h, walk_edges) == before


# ----------------------------------------------------------- disk predicates


def test_acyclic_side_in_disk():
    g = gen_circulant_b(5)
    assert side_in_open_disk(g, frozenset(boundary_cycle(g)[:2]))


def test_whole_b5_not_in_disk():
    g = gen_circulant_b(5)
    assert not side_in_open_disk(g, frozenset(g.vertices))


def test_side_with_a_one_sided_loop_not_in_disk():
    # a -1 loop at vertex 0 is an induced cycle through the crosscap
    g = build_graph({0: (0, 1), 1: (1, 2), 2: (2, 0), 3: (0, 0)}, signs={3: -1})
    assert not side_in_open_disk(g, {0})
    assert side_in_open_disk(g, {1, 2})


def test_counterexample_pair_side_in_disk():
    g, p, dspec = gen_counterexample(0)
    u2, u3 = 2, 3  # gen_counterexample's ids: u_i = i
    assert side_in_open_disk(g, frozenset({u2, u3}))


def test_jump_chords_non_contractible():
    g = gen_circulant_b(5)
    for e in g.edges:
        if g.sign[e] == -1:
            assert not is_contractible_chord(g, e)


def test_tw_chord_non_contractible():
    g, p, dspec = gen_counterexample(0)
    t = g.tvertex
    w = 6  # gen_counterexample's ids: w = n + 1, n = 5 at k = 0
    e = g.edges_between(t, w)[0]
    assert not is_contractible_chord(g, e)


def test_plane_chord_contractible():
    g = square_with_chord()
    assert specified_walk(g).length == 4
    assert is_contractible_chord(g, 4)


# ------------------------------------------------------------------ deletion


def test_delete_triangle_edge_single_face():
    g = triangle()
    out = delete_edge(g, 1)
    faces = trace_faces(out)
    assert [f.length for f in faces] == [4]


def test_delete_b5_boundary_edge():
    g = gen_circulant_b(5)
    cyc = boundary_cycle(g)
    e = g.edges_between(cyc[0], cyc[1])[0]
    out = delete_edge(g, e)
    assert len(trace_faces(out)) == 5
    assert euler_characteristic(out) == 1


def test_delete_bridge_refused():
    g = build_graph({0: (0, 1), 1: (1, 2)})
    with pytest.raises(DisconnectedError):
        delete_edge(g, 0)


def test_delete_rim_vertex_exposes_hub():
    # face rule for vertex deletion: the specified face absorbs every face
    # at the vertex, so the hub lands on the new boundary
    g = wheel(5)
    out = delete_vertex(g, 0)
    assert 5 in specified_walk(out).tails


def test_delete_vertex_clears_marks():
    g, p, dspec = gen_counterexample(0)
    out = delete_vertex(g, g.dvertex)
    assert out.dvertex is None and not out.darcs


# --------------------------------------------------------------- contraction


def test_contract_single_vertex_identity():
    g = gen_circulant_b(5)
    out = contract_subgraph(g, {g.vertices[0]})
    assert sorted(out.edges.items()) == sorted(g.edges.items())
    assert euler_characteristic(out) == euler_characteristic(g)


def test_contract_boundary_pair_of_counterexample():
    g, p, dspec = gen_counterexample(0)
    u2, u3 = 2, 3  # gen_counterexample's ids: u_i = i
    before = specified_walk(g).length
    out = contract_subgraph(g, {u2, u3})
    merged = out.next_vertex_id() - 1
    assert out.degree(merged) == 6
    assert specified_walk(out).length == before - 1
    assert euler_characteristic(out) == 1


def test_contract_drops_loops():
    g = triangle()
    out = contract_subgraph(g, {0, 1})
    assert all(not out.is_loop(e) for e in out.edges)
    assert len(out.edges) == 2


# --------------------------------------------------------------------- lifts


def test_lift_triangle():
    g = triangle()
    out = lift_pair(g, 0, 1, 1)
    assert out.degree(1) == 0
    assert len(out.edges_between(0, 2)) == 2
    darts_before = sum(len(r) for r in g.rotation.values())
    darts_after = sum(len(r) for r in out.rotation.values())
    assert darts_after == darts_before - 2


def test_lift_b5_boundary_with_chord():
    g = gen_circulant_b(5)
    cyc = boundary_cycle(g)
    v1, v2 = cyc[0], cyc[1]
    e1 = g.edges_between(v1, v2)[0]
    v4 = cyc[3]
    e2 = [e for e in g.edges_between(v1, v4) if g.sign[e] == -1][0]
    out = lift_pair(g, e1, e2, v1)
    new = out.next_edge_id() - 1
    assert set(out.edges[new]) == {v2, v4}
    assert out.sign[new] == -1  # (+1) * (-1)


def test_lift_loop_refused():
    g = build_graph({0: (0, 1), 1: (0, 1), 2: (1, 2)})
    with pytest.raises(OperationError):
        lift_pair(g, 0, 1, 1)  # both lead back to 0


# ------------------------------------------------------------- planarization


def test_planarize_b5_chord():
    g = gen_circulant_b(5)
    chord = next(e for e in sorted(g.edges) if g.sign[e] == -1)
    out = planarize_along_chord(g, chord)
    assert euler_characteristic(out) == 2
    assert all(s == 1 for s in out.sign.values())
    assert len(out.vertices) == 3


def test_planarize_counterexample_tw():
    g, p, dspec = gen_counterexample(0)
    t = g.tvertex
    w = 6  # gen_counterexample's ids: w = n + 1, n = 5 at k = 0
    e = g.edges_between(t, w)[0]
    out = planarize_along_chord(g, e)
    assert euler_characteristic(out) == 2


@pytest.mark.parametrize("seed, e, chi", [(133, 11, -4), (238, 8, 0)])
def test_planarize_unbalanced_remainder_refused(seed, e, chi):
    # a well-formed input off the projective plane whose remainder cannot
    # be re-signed: the operation's contract fails, not the data
    g = random_multigraph(seed)
    assert euler_characteristic(g) == chi and not is_contractible_chord(g, e)
    with pytest.raises(OperationError, match="not balanced"):
        planarize_along_chord(g, e)


@pytest.mark.parametrize(
    "seed, e, chi", [(2043, 2, -2), (2084, 7, -2), (2481, 5, -4), (2991, 3, -1)]
)
def test_planarize_non_plane_remainder_refused(seed, e, chi):
    # a well-formed input off the projective plane whose remainder re-signs
    # but is not plane: a refusal of the input, not malformed data
    g = random_multigraph(seed)
    assert euler_characteristic(g) == chi and not is_contractible_chord(g, e)
    with pytest.raises(OperationError, match="did not produce a plane embedding"):
        planarize_along_chord(g, e)


def test_planarize_contractible_chord_refused():
    g = square_with_chord()
    with pytest.raises(OperationError):
        planarize_along_chord(g, 4)


# ----------------------------------------------------------------- splitting


def test_split_bowtie():
    g = bowtie_crosscap()
    out = split_doubled_boundary_vertex(g, 0)
    assert euler_characteristic(out) == 2
    assert len(out.specified) == 2
    assert sorted(out.edges.items()) == sorted(g.edges.items())
    for i in range(2):
        assert 0 in specified_walk(out, i).tails
    walk = specified_walk(g)
    assert walk.tails.count(0) == 3  # the merge is at the cut, not at a first visit
    assert names_the_halves(walk, out) and names_the_cut_halves(walk, 0, out)


# sha256 over (seed, v, outcome class, output) for every doubled vertex of
# random_multigraph seeds 0..3999 (the output's anchors are the darts that
# leave the two re-identified corners; only a chi = 1 input is split)
SPLIT_OUTCOME_DIGEST = "9d5592e67ff9d66563264fda711cf3ffceb7d473602d1660da9eab4f5f092a32"


def test_split_random_multigraphs():
    # The split's domain is a projective input: it accepts only chi = 1, its
    # faces are then F's two halves, and any other input is OperationError,
    # the refusal of well-formed data, never StructureError.
    h = hashlib.sha256()
    accepted = off_domain = 0
    for seed in range(4000):
        g = random_multigraph(seed)
        walk = specified_walk(g)
        doubled = Counter(walk.tails)
        chi = euler_characteristic(g)
        for v in sorted(x for x, c in doubled.items() if c >= 2):
            try:
                out = split_doubled_boundary_vertex(g, v)
            except (OperationError, StructureError) as exc:
                h.update(f"{seed} {v} {type(exc).__name__}\n".encode())
                if chi != 1:
                    assert isinstance(exc, OperationError), (seed, v, exc)
                    off_domain += 1
                continue
            h.update(f"{seed} {v} ok\n{serialize_graph(out)}".encode())
            accepted += 1
            assert chi == 1, (seed, v)
            assert _chi_by_full_trace(out) == 2
            assert out.edges == g.edges
            faces = [_face_through(out, (a, 1)) for a in out.specified]
            assert len(faces) == 2 and faces[0] != faces[1]
            assert names_the_halves(walk, out), (seed, v)
            assert names_the_cut_halves(walk, v, out), (seed, v)
            for i in range(2):
                assert v in specified_walk(out, i).tails
    assert accepted > 2000 and off_domain > 3000
    assert h.hexdigest() == SPLIT_OUTCOME_DIGEST


def _split_instances(seeds):
    """(g, v, walk, chi) for every doubled vertex of the random_multigraph
    seeds, then of bowtie_crosscap."""
    for g in [*map(random_multigraph, seeds), bowtie_crosscap()]:
        walk = specified_walk(g)
        doubled = Counter(walk.tails)
        chi = euler_characteristic(g)
        for v in sorted(x for x, c in doubled.items() if c >= 2):
            yield g, v, walk, chi


def _split_outcome(split, *args):
    try:
        return serialize_graph(split(*args)), None
    except EmbeddingError as exc:
        return None, (type(exc), str(exc))


def test_split_matches_reference():
    # The split reads F' off W's orientation bits and merges at the cut
    # corners; the reference walks the cut-open face and merges at the
    # first visits of its canonical walk.  Same text, or the same refusal.
    outcomes = Counter()
    for g, v, walk, chi in _split_instances(range(4000)):
        got = _split_outcome(split_doubled_boundary_vertex, g, v, walk, chi)
        assert got == _split_outcome(reference_split, g, v, walk, chi), v
        outcomes["refused" if got[1] else "accepted"] += 1
    assert outcomes["accepted"] > 2500 and outcomes["refused"] > 11000


def _refusal(fn, *args):
    try:
        fn(*args)
    except EmbeddingError as exc:
        return type(exc), str(exc)
    return None


def test_split_cut_refuses_exactly_when_the_split_does():
    # _split_cut holds every domain check of the split, so the solver can
    # ask it alone: handed the walk and chi, it refuses exactly when the
    # split (walking and counting for itself) refuses, with the same class
    # and text, so nothing the split does after the check refuses.
    outcomes = Counter()
    for g, v, walk, chi in _split_instances(range(4000)):
        refusal = _refusal(_split_cut, g, v, walk, chi)
        assert refusal == _refusal(split_doubled_boundary_vertex, g, v), (v, refusal)
        outcomes["refused" if refusal else "accepted"] += 1
    assert outcomes["accepted"] > 2500 and outcomes["refused"] > 11000


def test_split_handed_its_walk_walks_no_face(monkeypatch):
    # Handed W and chi, the split reads every face fact off W: no orbit walk
    # and no canonical walk.
    instances = [x for x in _split_instances(range(1000)) if x[3] == 1]
    walks = _count_calls(monkeypatch, embedding._walk_from)
    canonical = _count_calls(monkeypatch, embedding._canonical_walk)
    accepted = 0
    for g, v, walk, chi in instances:
        try:
            split_doubled_boundary_vertex(g, v, walk, chi)
            accepted += 1
        except OperationError:
            pass
    assert accepted > 600
    assert walks == [] and canonical == []


def test_split_refusal_copies_nothing(monkeypatch):
    # A two-sided cut (W's bits at v's first two visits agree, F' = 2) or
    # a chi != 1 input is refused before the graph is copied.
    instances = list(_split_instances(range(1000)))
    copies = _count_calls(monkeypatch, EmbeddedGraph.copy)
    refused = Counter()
    for g, v, walk, chi in instances:
        p1, p2 = [i for i, t in enumerate(walk.tails) if t == v][:2]
        two_sided = walk.states[p1][1] == walk.states[p2][1]
        if two_sided or chi != 1:
            with pytest.raises(OperationError, match="do not cut the crosscap"):
                split_doubled_boundary_vertex(g, v, walk, chi)
            refused["two-sided" if two_sided else "chi"] += 1
    assert refused["two-sided"] > 1000 and refused["chi"] > 1000
    assert copies == []


def test_split_merges_at_the_cut_when_the_face_revisits_the_vertex():
    # Three triangles at vertex 0, edge 3 through the crosscap: the face
    # visits 0 four times.  The split merges the copies at the cut corners,
    # so its faces are the halves at v's first two visits.  The reference
    # merged at the first visit of its canonical walk, another corner, and
    # named two other faces that split F.
    edges = {}
    for i in range(3):  # triangle 0, a, b on edges 3i, 3i + 1, 3i + 2
        a, b = 2 * i + 1, 2 * i + 2
        edges.update({3 * i: (0, a), 3 * i + 1: (a, b), 3 * i + 2: (b, 0)})
    rot0 = [(0, 0), (3, 0), (6, 0), (8, 1), (5, 1), (2, 1)]
    g = build_graph(edges, signs={3: -1}, rotations={0: rot0}, specified_anchor=(0, 1))
    walk = specified_walk(g)
    assert walk.tails.count(0) == 4 and euler_characteristic(g) == 1
    out, ref = split_doubled_boundary_vertex(g, 0), reference_split(g, 0)
    assert _chi_by_full_trace(out) == _chi_by_full_trace(ref) == 2
    assert names_the_halves(walk, out) and names_the_cut_halves(walk, 0, out)
    assert names_the_halves(walk, ref) and not names_the_cut_halves(walk, 0, ref)


def test_split_at_vertices_the_face_visits_three_or_more_times():
    # Petal graphs with chi = 1, each face specified in turn: at every
    # vertex the face visits three or more times, an accepted split names
    # the halves at the cut through the first two visits and is plane; a
    # refusal is OperationError
    outcomes = Counter()
    for seed in range(500):
        for k in (2, 3, 4):
            g = petal_graph(seed, k)
            if euler_characteristic(g) != 1:
                continue
            for f in trace_faces(g):
                g.specified = [canonical_anchor(g, f)]
                walk = specified_walk(g)
                for v in sorted(x for x, c in Counter(walk.tails).items() if c >= 3):
                    try:
                        out = split_doubled_boundary_vertex(g, v)
                    except OperationError:
                        outcomes["refused"] += 1
                        continue
                    assert names_the_cut_halves(walk, v, out), (seed, k, v)
                    assert _chi_by_full_trace(out) == 2 and len(out.specified) == 2
                    outcomes["accepted", walk.tails.count(v) > 3] += 1
    assert outcomes["accepted", False] > 100 and outcomes["accepted", True] > 20
    assert outcomes["refused"] > 50


def test_split_degree_two_vertices():
    # A one-sided 8-cycle: its one face visits every vertex twice, once at
    # each corner of a degree-2 vertex, and some visits walk the rotation
    # backwards.  The cut must use the corner the walk passes.
    g = random_multigraph(3)
    assert euler_characteristic(g) == 1
    assert all(g.degree(v) == 2 for v in g.vertices)
    for v in g.vertices:
        out = split_doubled_boundary_vertex(g, v)
        assert _chi_by_full_trace(out) == 2
        assert len(out.specified) == 2


def test_split_requires_doubled_visit():
    g = gen_circulant_b(5)  # Hamiltonian boundary, every vertex once
    with pytest.raises(OperationError):
        split_doubled_boundary_vertex(g, boundary_cycle(g)[0])


def test_split_disconnected_input_refused():
    # the split needs chi(g) = 1, and a disconnected g has no chi
    g = bowtie_crosscap()
    g.rotation[g.next_vertex_id()] = []
    with pytest.raises(DisconnectedError):
        split_doubled_boundary_vertex(g, 0)


# -------------------------------------------------------------- value object


def test_edges_between_matches_an_edge_scan():
    # parallel edges, loops (u == v) and a vertex the graph lacks
    for seed in range(100):
        g = random_multigraph(seed)
        v, e = seed % len(g.rotation), max(g.edges) + 1
        g.edges[e], g.sign[e] = (v, v), 1
        g.rotation[v][1:1] = [(e, 0), (e, 1)]
        verts = g.vertices + [max(g.vertices) + 1]
        for a in verts:
            for b in verts:
                want = sorted(e for e, uv in g.edges.items() if set(uv) == {a, b})
                assert g.edges_between(a, b) == want, f"seed {seed}"


def test_switching_keeps_the_faces():
    # switching a vertex redescribes the same embedding: the face lengths
    # stay, and a loop at the vertex, passed at both ends, keeps its sign
    for seed in range(100):
        g = random_multigraph(seed)
        v, e = seed % len(g.rotation), max(g.edges) + 1
        g.edges[e], g.sign[e] = (v, v), -1 if seed % 2 else 1
        g.rotation[v][1:1] = [(e, 0), (e, 1)]
        lengths = sorted(f.length for f in trace_faces(g))
        for w in g.vertices:
            h = g.copy()
            _switch(h, {w}, [])
            assert h.sign[e] == g.sign[e], f"seed {seed}"
            assert sorted(f.length for f in trace_faces(h)) == lengths, f"seed {seed}"


def test_switching_relabels_tracked_states():
    # a tracked state keeps naming the same face side: its face, walked in
    # the switched graph, is the old walk with each switched tail's
    # orientation bit flipped; None entries stay as they are
    for seed in range(100):
        g = random_multigraph(seed)
        verts = set(g.vertices[seed % 3 :: 2])
        for f in trace_faces(g):
            h = g.copy()
            track = [f.states[0], None]
            _switch(h, verts, track)
            moved = [(d, -s if t in verts else s) for (d, s), t in zip(f.states, f.tails)]
            assert track[1] is None
            assert _walk_from(h, track[0]) == moved, f"seed {seed}"


def test_copy_equality_and_independence():
    g = gen_circulant_b(7)
    h = g.copy()
    assert g == h
    h.sign[0] = -h.sign[0]
    assert g != h


def test_operations_do_not_mutate_input():
    g = gen_circulant_b(5)
    key = g._key()
    contract_subgraph(g, set(boundary_cycle(g)[:2]))
    delete_edge(g, next(iter(g.edges)))
    assert g._key() == key


# sha256 over (seed, operation, arguments, outcome class, message, output) for
# every contraction of an edge's two ends, edge deletion, vertex deletion and
# lift of the first two distinct non-loop edges at a vertex, on
# random_multigraph seeds 0..299
OPERATION_OUTCOME_DIGEST = "1819a1037fd1cdbdc55ec0c09ae1884dc36164712b229fd843832cffcecdc22a"


def _operations(g):
    """(operation, its arguments after ``g``, whether it swallows a
    specified face) for every operation the digest below covers on ``g``."""
    walks = [specified_walk(g, i) for i in range(len(g.specified))]
    for e in sorted(g.edges):
        u, v = g.edges[e]
        if u != v:
            inside = {x for x, (a, b) in g.edges.items() if {a, b} <= {u, v}}
            swallows = any(w.edge_ids() <= inside for w in walks)
            yield contract_subgraph, ({u, v},), swallows
    for e in sorted(g.edges):
        yield delete_edge, (e,), False
    for v in g.vertices:
        yield delete_vertex, (v,), False
    for v in g.vertices:
        pair = list(dict.fromkeys(e for e in g.incident(v) if not g.is_loop(e)))[:2]
        if len(pair) == 2:
            yield lift_pair, (*pair, v), False


def test_face_operations_random_multigraphs():
    h = hashlib.sha256()
    swallowed = 0
    for seed in range(300):
        g = random_multigraph(seed)
        for op, args, swallows in _operations(g):
            label = f"{seed} {op.__name__} {args}"
            try:
                out = op(g, *args)
            except EmbeddingError as exc:
                h.update(f"{label} {type(exc).__name__} {exc}\n".encode())
                continue
            h.update(f"{label} ok\n{serialize_graph(out)}".encode())
            swallowed += swallows
    assert swallowed >= 40  # the replacement face at the merged vertex is exercised
    assert h.hexdigest() == OPERATION_OUTCOME_DIGEST


# sha256 over (seed, side, output) for every contraction of an edge's two
# ends that swallows the specified face, on random_multigraph seeds
# 0..299: 60 contractions, each replacing the face by the face at the
# merged vertex with the least canonical anchor
SWALLOWED_FACE_DIGEST = "73caa821f4f9cd0f1f092c14216b7981074fbfc22145016f4a6443ab335ba288"


def test_contraction_replaces_a_swallowed_face_at_the_merged_vertex():
    h = hashlib.sha256()
    count = 0
    for seed in range(300):
        g = random_multigraph(seed)
        for op, args, swallows in _operations(g):
            if op is contract_subgraph and swallows:
                out = contract_subgraph(g, *args)
                h.update(f"{seed} {sorted(*args)}\n{serialize_graph(out)}".encode())
                count += 1
    assert count == 60
    assert h.hexdigest() == SWALLOWED_FACE_DIGEST


def _dead_edges(g, op, args):
    """The edges of ``g`` that an operation from ``_operations`` deletes."""
    if op is contract_subgraph:
        return {e for e, (a, b) in g.edges.items() if {a, b} <= args[0]}
    if op is delete_vertex:
        return set(g.incident(args[0]))
    if op is lift_pair:
        return set(args[:2])
    return {args[0]}


def test_operations_walk_only_a_face_whose_anchor_edge_dies(monkeypatch):
    # a face whose anchor's edge survives keeps the anchor's state as its
    # witness, so it is not walked; an operation that refuses may stop
    # before it walks
    graphs = [random_multigraph(seed) for seed in range(100)]
    graphs.append(split_doubled_boundary_vertex(bowtie_crosscap(), 0))  # two faces
    cases = [(g, op, args) for g in graphs for op, args, _ in _operations(g)]
    walks = _count_calls(monkeypatch, embedding.specified_walk)
    done = Counter()
    for g, op, args in cases:
        dead = _dead_edges(g, op, args)
        dying = sum(a[0] in dead for a in g.specified)
        walks.clear()
        try:
            op(g, *args)
        except EmbeddingError:
            assert len(walks) <= dying
            continue
        assert len(walks) == dying, f"{op.__name__} {args}"
        done[op.__name__, dying] += 1
    ops = (contract_subgraph, delete_edge, delete_vertex, lift_pair)
    assert all(done[op.__name__, k] for op in ops for k in (0, 1)), done
    assert done["delete_vertex", 2] > 0


def test_delete_vertex_walks_only_the_faces_at_the_vertex(monkeypatch):
    # a specified face whose whole boundary is at the vertex falls back to
    # a face at the vertex, found by walking those faces, never all of them
    graphs = [random_multigraph(seed) for seed in range(300)]
    fallbacks = 0
    counts = _count_calls(monkeypatch, embedding._face_orbits)
    for g in graphs:
        walk = specified_walk(g)
        for v in g.vertices:
            fallbacks += walk.edge_ids() <= set(g.incident(v))
            try:
                delete_vertex(g, v)
            except EmbeddingError:
                pass
    assert fallbacks > 0 and counts == []


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_random_graphs_trace_consistently(seed):
    g = random_multigraph(seed)
    faces = trace_faces(g)
    assert sum(f.length for f in faces) == 2 * len(g.edges)
    # each (dart, orientation) state lands in exactly one reported orbit
    seen = [s for f in faces for s in f.states]
    assert len(seen) == len(set(seen)) == 2 * len(g.edges)
    # walking one face from any of its states, or from their mirrors, gives
    # the walk trace_faces lists for it
    for f in faces:
        for s in f.states:
            assert _face_through(g, s) == f
            assert _face_through(g, _mirror(g, s)) == f


def test_face_counts_walk_one_orbit_per_face(monkeypatch):
    # each face is a mirror pair of orbits, and counting it walks one: 2|E|
    # face steps, where walking both orbits took 4|E|
    graphs = [random_multigraph(seed) for seed in range(300)]
    graphs += [gen_random_pt(seed, 12)[0] for seed in range(50)]  # all connected
    steps = _count_calls(monkeypatch, embedding._face_step)
    for g in graphs:
        for count in (euler_characteristic, trace_faces):
            steps.clear()
            count(g)
            assert len(steps) == 2 * len(g.edges), (count.__name__, g)


def test_mirror_orbit_is_the_orbit_reversed():
    # the face step maps the mirror of a state's successor to the mirror of
    # the state, so the mirror orbit is the orbit reversed with each state
    # mirrored; _canonical_walk reads it from one walk
    orbits = 0
    for seed in range(1500):
        g = random_multigraph(seed)
        orbits_of_g, _ = orbit_pairs(g)
        for orbit in orbits_of_g:
            derived = [_mirror(g, st) for st in reversed(orbit)]
            assert _walk_from(g, derived[0]) == derived, f"seed {seed}"
            orbits += 1
    assert orbits > 5000
