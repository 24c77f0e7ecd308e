"""Cut enumeration, cut taxonomy, Menger bounds, and class validators.

``bruteforce_cuts`` and ``bruteforce_min_separation`` are the reference
implementations: plain bipartition scans with no normal form and no flow
algorithm, against which the package's versions are checked.
"""

import hashlib
from itertools import combinations

import numpy as np
import pytest

from conftest import (
    _count_calls,
    build_graph,
    disjoint_union,
    random_multigraph,
    reference_grow_pieces,
    square_with_chord,
    triangle,
    two_triangles,
    wheel,
)
from crossflow import _kernels, cuts, embedding
from crossflow.cuts import (
    CutBudgetError,
    EdgeCut,
    OperationError,
    boundary_connectivity,
    check_class,
    classify_cut,
    cut_edges,
    cuts_cross,
    edge_connectivity,
    enumerate_robust_cuts,
    make_cut,
    smallest_bond_side,
    _grow_pieces,
    _neighbour_masks,
    _scan_masks,
    _small_cut_sets,
)
from crossflow.embedding import (
    EmbeddedGraph,
    EmbeddingError,
    _induced_connected,
    boundary_vertices,
    canonical_anchor,
    specified_walk,
    trace_faces,
)
from crossflow.families import gen_a, gen_circulant_b, gen_counterexample, gen_random_pt
from crossflow.orient import random_prescription


def bruteforce_cuts(g, max_size, min_side):
    """All bipartitions (side holds the smallest vertex's complement rule:
    every subset not containing vertex 0's stand-in, so each cut appears
    once per side) with at most max_size crossing edges and both sides of
    order at least min_side.  Returns frozenset sides."""
    verts = g.vertices
    anchor = verts[0]
    rest = verts[1:]
    found = []
    for r in range(1, len(verts)):
        for combo in combinations(rest, r):
            side = frozenset(combo)
            if len(side) < min_side or len(verts) - len(side) < min_side:
                continue
            if len(cut_edges(g, side)) <= max_size:
                found.append(side)
    return found


def bruteforce_min_separation(g, v):
    """Minimum |delta(S)| over all S containing v and avoiding the
    boundary vertex set entirely."""
    bnd = boundary_vertices(g)
    pool = [x for x in g.vertices if x not in bnd and x != v]
    best = None
    for r in range(len(pool) + 1):
        for combo in combinations(pool, r):
            side = frozenset(combo) | {v}
            k = len(cut_edges(g, side))
            if best is None or k < best:
                best = k
    return best


def _normal(g, side):
    # the enumerator's normal form: connected side, or two isolated vertices
    from crossflow.cuts import _induced_connected, _normal_side

    return _normal_side(g, side)


# --------------------------------------------------------- connectivity


def test_k4_edge_connectivity():
    g = build_graph(
        {0: (0, 1), 1: (0, 2), 2: (0, 3), 3: (1, 2), 4: (1, 3), 5: (2, 3)}
    )
    assert edge_connectivity(g) == 3


def test_b5_edge_connectivity():
    assert edge_connectivity(gen_circulant_b(5)) == 4


def test_counterexample_connectivity_and_unique_3cut():
    g, p, dspec = gen_counterexample(0)
    assert edge_connectivity(g) == 3
    t = g.tvertex
    sides = bruteforce_cuts(g, 3, 1)
    expected = {frozenset({t}), frozenset(set(g.vertices) - {t})}
    assert {s for s in sides if len(cut_edges(g, s)) == 3} <= expected
    assert any(s in expected for s in sides)


def _connectivity_graphs():
    rng = np.random.default_rng(2)
    for seed in range(600):
        g = random_multigraph(seed, max_vertices=10, max_extra=8)
        yield g
        yield without_edges(g, rng)
    for seed in range(50):
        yield gen_random_pt(seed, 12)[0]
    for i in range(5, 12, 2):
        yield gen_circulant_b(i)
        yield gen_a(i)
    for k in range(3):
        yield gen_counterexample(k)[0]


def test_small_cut_scan_reads_edge_connectivity():
    # check_class takes lambda below 3 from its 3-cut scan; max-flow is
    # the reference on every connected graph, and lambda 1 and 2 occur
    seen = set()
    for g in _connectivity_graphs():
        if len(g.vertices) < 2 or not g.is_connected():
            continue
        lam = min(map(len, _small_cut_sets(g)), default=3)
        assert lam == min(edge_connectivity(g), 3), g.edges
        seen.add(lam)
    assert seen == {1, 2, 3}


def test_edge_connectivity_needs_two_vertices():
    g = build_graph({}, rotations={0: []})
    g.rotation = {0: []}
    with pytest.raises(OperationError):
        edge_connectivity(g)


def test_edge_connectivity_of_a_disconnected_graph_is_zero():
    assert edge_connectivity(two_triangles()) == 0


# ---------------------------------------------------------- enumeration


def test_triangle_two_cuts_each_vertex():
    g = triangle()
    cuts = enumerate_robust_cuts(g, max_size=2, min_side=1)
    assert len(cuts) == 3
    assert all(c.size == 2 for c in cuts)


def test_counterexample_no_small_robust_cuts():
    g, p, dspec = gen_counterexample(0)
    assert enumerate_robust_cuts(g, max_size=3, min_side=2) == []


def test_b5_robust_4cuts_match_bruteforce():
    g = gen_circulant_b(5)
    got = enumerate_robust_cuts(g, max_size=4, min_side=2)
    want = {
        frozenset(s)
        for s in bruteforce_cuts(g, 4, 2)
        if _normal(g, frozenset(s)) and _normal(g, frozenset(g.vertices) - s)
    }
    # brute force lists each cut once per orientation of the bipartition
    canon = {min(s, frozenset(g.vertices) - s, key=sorted) for s in want}
    assert {min(c.side, c.complement, key=sorted) for c in got} == canon


def test_enumeration_deterministic_and_sorted():
    g = random_multigraph(3)
    cuts = enumerate_robust_cuts(g, max_size=4, min_side=2)
    keys = [(c.size, sorted(c.side)) for c in cuts]
    assert keys == sorted(keys)


def test_enumeration_agrees_with_bruteforce_smallcases():
    for seed in range(25):
        g = random_multigraph(seed, max_vertices=8)
        got = enumerate_robust_cuts(g, max_size=3, min_side=2)
        allv = frozenset(g.vertices)
        want = set()
        for s in bruteforce_cuts(g, 3, 2):
            if _normal(g, s) and _normal(g, allv - s):
                want.add(min(s, allv - s, key=sorted))
        assert {min(c.side, c.complement, key=sorted) for c in got} == want, seed


def test_size_cap_refused_on_large_graphs():
    g = build_graph({i: (i, (i + 1) % 30) for i in range(30)})
    with pytest.raises(OperationError):
        enumerate_robust_cuts(g, max_size=7, min_side=2)


def reference_sides(g, max_size, min_side):
    """The sides the 2^(n-1) bitmask scan finds, in its mask order."""
    verts = g.vertices
    free = verts[1:]
    index = {v: i for i, v in enumerate(free)}
    index[verts[0]] = len(free)
    iu = np.array([index[u] for u, _ in g.edges.values()], dtype=np.int64)
    iv = np.array([index[v] for _, v in g.edges.values()], dtype=np.int64)
    masks = _kernels.cut_scan(iu, iv, len(free), len(verts), max_size, min_side)
    return [frozenset(v for i, v in enumerate(free) if int(m) >> i & 1) for m in masks]


def without_edges(g, rng):
    """A copy of g with a random non-empty set of edges removed, which
    leaves it disconnected or with isolated vertices more often than not."""
    h = g.copy()
    k = int(rng.integers(1, len(h.edges) + 1))
    for e in rng.choice(sorted(h.edges), size=k, replace=False):
        e = int(e)
        del h.edges[e], h.sign[e]
        for v in h.rotation:
            h.rotation[v] = [d for d in h.rotation[v] if d[0] != e]
    h.specified = []
    h.validate()
    return h


def _differential_graphs():
    for seed in range(100):
        yield gen_random_pt(seed, 12)[0]
    for k in range(3):
        yield gen_counterexample(k)[0]
    rng = np.random.default_rng(7)
    for seed in range(40):
        g = random_multigraph(seed, max_vertices=10, max_extra=8)
        yield g
        yield without_edges(g, rng)


def test_scan_masks_matches_bitmask_reference():
    # one scan per graph at the loosest bounds; the scan's answer for
    # tighter (k, m) is that list filtered by cut size and side order,
    # in the same mask order, which spares CE2's 2^23 masks 20 rescans
    for g in _differential_graphs():
        n = len(g.vertices)
        loose = [(s, len(cut_edges(g, s))) for s in reference_sides(g, 6, 1)]
        for k in range(7):
            for m in (1, 2, 3):
                want = [s for s, c in loose if c <= k and m <= len(s) <= n - m]
                assert _scan_masks(g, k, m) == want, (g.vertices, k, m)


def _growth_cases():
    """(graph, banned vertex set) pairs: random multigraphs and their
    edge-deleted copies with the least, the greatest and two random
    vertices banned, the corpus with t if any, CE0-CE8 with t and d, and
    B_i and A_i with the least vertex."""
    rng = np.random.default_rng(5)
    for seed in range(600):
        g = random_multigraph(seed)
        for h in (g, without_edges(g, rng)):
            verts = h.vertices
            yield h, {verts[0]}
            yield h, {verts[-1]}
            yield h, set(map(int, rng.choice(verts, 2)))
    for seed in range(100):
        g = gen_random_pt(seed, 12)[0]
        yield g, {g.tvertex} - {None}
    for k in range(9):
        g = gen_counterexample(k)[0]
        yield g, {g.tvertex, g.dvertex}
    for i in range(5, 22, 2):
        for g in (gen_circulant_b(i), gen_a(i)):
            yield g, {g.vertices[0]}


def test_grow_pieces_matches_reference():
    # branching order and the touch bound change the steps, never the pieces
    steps = [0, 0]
    for g, banned in _growth_cases():
        nbr = _neighbour_masks(g)
        mask = sum(1 << g.vertices.index(v) for v in banned)
        for max_size in (3, 5):
            got, n = _grow_pieces(nbr, max_size, mask)
            want, n_ref = reference_grow_pieces(nbr, max_size, mask)
            assert sorted(got) == sorted(want), (g.vertices, banned, max_size)
            steps[0] += n
            steps[1] += n_ref
    assert steps[0] < steps[1]


# growth steps (nodes popped by cuts._grow_pieces) of searches that find
# nothing: the bond search on CE_k with t and d avoided, and the full
# enumeration on B201.  Branching on the lowest undecided neighbour, with
# no bound, took 1800 steps on CE3 and 81,204 on CE16 and passed the
# 2^19-step budget on CE32, CE40 and B201.
EMPTY_SEARCH_STEPS = {
    "CE3": 801,
    "CE16": 13_320,
    "CE32": 49_608,
    "CE40": 76_392,
    "B201": 50_388,
}


@pytest.mark.parametrize("name", sorted(EMPTY_SEARCH_STEPS))
def test_empty_small_cut_search_is_bounded(monkeypatch, name):
    steps = []
    real = cuts._grow_pieces

    def counted(*args):
        pieces, n = real(*args)
        steps.append(n)
        return pieces, n

    monkeypatch.setattr(cuts, "_grow_pieces", counted)
    if name == "B201":
        assert enumerate_robust_cuts(gen_circulant_b(201), 5) == []
    else:
        g = gen_counterexample(int(name[2:]))[0]
        assert smallest_bond_side(g, 5, {g.tvertex, g.dvertex}) is None
    assert sum(steps) <= EMPTY_SEARCH_STEPS[name]


def test_counterexample_cuts_above_old_ceiling():
    g = gen_counterexample(3)[0]
    assert len(g.vertices) == 30
    cuts = enumerate_robust_cuts(g, 5)
    assert [c.size for c in cuts] == [5, 5]
    assert [c.side for c in cuts] == [frozenset({0, 1}), frozenset({0, 16})]


def reference_bond_side(g, found, avoid):
    """The solver's former cut choice, given ``enumerate_robust_cuts(g, 5)``:
    the first listed cut with a side that avoids ``avoid`` and whose two
    sides are both connected, that side preferring the smaller (then
    lexicographically smaller) one.  A bond is non-empty, so a cut of size
    0 is skipped."""
    verts = frozenset(g.vertices)
    for cut in found:
        if not cut.size:
            continue
        sides = sorted((cut.side, cut.complement), key=lambda s: (len(s), sorted(s)))
        for side in sides:
            if avoid & side:
                continue
            if _induced_connected(g, side) and _induced_connected(g, verts - side):
                return side
    return None


def _bond_cases():
    """Graphs, each with the vertex sets to avoid on it: none, one random
    vertex, and two random (possibly equal) ones; CE0-CE7 also with their
    own protected and directed vertices."""
    rng = np.random.default_rng(11)
    graphs = [gen_random_pt(seed, 12)[0] for seed in range(100)]
    for seed in range(300):
        g = random_multigraph(seed, max_vertices=10, max_extra=8)
        graphs += [g, without_edges(g, rng)]
    for k in range(8):
        g, p, dspec = gen_counterexample(k)
        g.dvertex = dspec.vertex
        graphs.append(g)
    for g in graphs:
        verts = g.vertices
        avoid = [set(), {int(rng.choice(verts))}, set(map(int, rng.choice(verts, 2)))]
        if g.dvertex is not None:
            avoid.append({g.tvertex, g.dvertex})
        yield g, avoid


def test_bond_side_matches_full_enumeration():
    hits = 0
    for g, avoid_sets in _bond_cases():
        found = enumerate_robust_cuts(g, 5)
        for avoid in avoid_sets:
            want = reference_bond_side(g, found, frozenset(avoid))
            assert smallest_bond_side(g, 5, avoid) == want, (g.vertices, avoid)
            hits += want is not None
    assert hits >= 1000  # the sample reaches usable sides, not only None


def test_disconnected_graph_has_no_bond():
    # its only cuts with both sides connected split off a whole component
    # and cut no edge
    graphs = [two_triangles()]
    for seed in range(100):
        a, b = random_multigraph(seed), random_multigraph(seed + 1)
        graphs += [disjoint_union(a, b), disjoint_union(b, a)]
    for g in graphs:
        for avoid in (set(), {g.vertices[0]}, {g.vertices[-1]}):
            assert smallest_bond_side(g, 5, avoid) is None, (g.vertices, avoid)


def test_edgeless_graph_over_budget_is_refused():
    g = EmbeddedGraph()
    g.rotation = {v: [] for v in range(1500)}
    with pytest.raises(CutBudgetError):
        enumerate_robust_cuts(g, 5)


def test_cut_fields_consistent():
    g = gen_circulant_b(7)
    for c in enumerate_robust_cuts(g, max_size=4, min_side=2):
        assert c.size == len(c.edges)
        assert set(c.edges) == set(cut_edges(g, c.side))
        assert c.robust == (len(c.side) >= 2 and len(c.complement) >= 2)


# ------------------------------------------------------------- taxonomy


def test_wheel_hub_cut_is_type1():
    g = wheel(5)
    c = classify_cut(g, make_cut(g, {5}))
    assert c.cut_type == 1  # spokes only, no boundary edge


def test_boundary_pair_cut_is_type2():
    g = gen_circulant_b(5)
    from crossflow.embedding import boundary_cycle

    cyc = boundary_cycle(g)
    c = classify_cut(g, make_cut(g, set(cyc[:2])))
    assert c.cut_type == 2


def test_two_arc_side_is_type3():
    g = gen_circulant_b(7)
    from crossflow.embedding import boundary_cycle

    cyc = boundary_cycle(g)
    side = {cyc[0], cyc[3]}  # two separated boundary vertices
    c = classify_cut(g, make_cut(g, side))
    assert c.cut_type == 3


def test_boundary_intersection_always_even():
    from crossflow.embedding import specified_walk

    for seed in range(20):
        g, p = gen_random_pt(seed, 9)
        walk_edges = specified_walk(g).edge_ids()
        for c in enumerate_robust_cuts(g, max_size=5, min_side=2):
            assert len(set(c.edges) & walk_edges) % 2 == 0


def test_classify_requires_cycle_boundary():
    g = build_graph({0: (0, 1), 1: (1, 2)})
    from crossflow.embedding import canonical_anchor, trace_faces

    g.specified = [canonical_anchor(g, trace_faces(g)[0])]
    with pytest.raises(OperationError):
        classify_cut(g, make_cut(g, {0}))


def test_classify_cut_walks_the_face_once(monkeypatch):
    # the cycle check and the boundary edge ids come from one walk, and
    # the type needs no sign-balance search of either side
    path = build_graph({0: (0, 1), 1: (1, 2)})
    path.specified = [canonical_anchor(path, trace_faces(path)[0])]
    cases = [(wheel(5), {5}), (gen_circulant_b(7), {1, 4}), (gen_a(7), {0, 1})]
    walks = _count_calls(monkeypatch, embedding._walk_from)
    balances = _count_calls(monkeypatch, embedding._balance_potentials)
    for g, side in cases:
        walks.clear()
        classify_cut(g, make_cut(g, side))
        assert len(walks) == 1
        assert len(balances) == 0
    walks.clear()
    with pytest.raises(OperationError, match="^specified face boundary is not a cycle$"):
        classify_cut(path, make_cut(path, {0}))
    assert len(walks) == 1


# -------------------------------------------------------------- crossing


def test_disjoint_cuts_do_not_cross():
    g = build_graph({i: (i, (i + 1) % 8) for i in range(8)})
    a = make_cut(g, {0, 1})
    b = make_cut(g, {4, 5})
    assert not cuts_cross(a, b)


def test_nested_cuts_do_not_cross():
    g = build_graph({i: (i, (i + 1) % 8) for i in range(8)})
    a = make_cut(g, {0, 1, 2, 3})
    b = make_cut(g, {1, 2})
    assert not cuts_cross(a, b)


def test_quadrant_cuts_cross():
    g = build_graph({i: (i, (i + 1) % 8) for i in range(8)})
    a = make_cut(g, {0, 1, 2, 3})
    b = make_cut(g, {2, 3, 4, 5})
    assert cuts_cross(a, b)


# ---------------------------------------------------------------- Menger


def test_wheel_hub_five_paths():
    g = wheel(5)
    assert boundary_connectivity(g, 5) == 5


def test_bottleneck_limits_paths():
    # inner vertex 4 reaches the square boundary through 3 edges only
    g = build_graph(
        {
            0: (0, 1),
            1: (1, 2),
            2: (2, 3),
            3: (3, 0),
            4: (4, 0),
            5: (4, 1),
            6: (4, 2),
        },
        rotations={
            0: [(3, 1), (4, 1), (0, 0)],
            1: [(0, 1), (5, 1), (1, 0)],
            2: [(1, 1), (6, 1), (2, 0)],
        },
    )
    from crossflow.embedding import canonical_anchor, trace_faces

    outer = [f for f in trace_faces(g) if set(f.edge_ids()) == {0, 1, 2, 3}][0]
    g.specified = [canonical_anchor(g, outer)]
    assert boundary_connectivity(g, 4) == 3
    assert bruteforce_min_separation(g, 4) == 3


def test_boundary_vertex_refused():
    g = wheel(5)
    with pytest.raises(OperationError):
        boundary_connectivity(g, 0)


def test_menger_against_bruteforce():
    hits = 0
    for seed in range(60):
        g = random_multigraph(seed, max_vertices=8)
        bnd = boundary_vertices(g)
        interior = [v for v in g.vertices if v not in bnd]
        for v in interior:
            assert boundary_connectivity(g, v) == bruteforce_min_separation(g, v)
            hits += 1
    assert hits >= 10  # the sample actually exercised interior vertices


# -------------------------------------------------------------- classes


def test_b5_is_pt():
    g = gen_circulant_b(5)
    p = random_prescription(g, 0)
    rep = check_class(g, p, "pt")
    assert rep.holds and rep.violations == ()


def test_counterexample_without_d_is_pt():
    g, p, dspec = gen_counterexample(0)
    h = g.copy()
    h.dvertex = None
    h.darcs = {}
    rep = check_class(h, p, "pt")
    assert rep.holds
    assert h.degree(h.tvertex) == 3


def test_counterexample_with_d_fails_pt():
    g, p, dspec = gen_counterexample(0)
    rep = check_class(g, p, "pt")
    assert not rep.holds
    assert any(idx == 2 for idx, _ in rep.violations)


def test_two_low_degree_vertices_fail_pt():
    g, p = gen_random_pt(0, 9)
    # forcing a second degree-3 vertex by lifting at a degree-4 vertex
    from crossflow.embedding import lift_pair

    v = next(x for x in g.vertices if g.degree(x) == 4 and x != g.tvertex)
    inc = g.incident(v)
    out = None
    for i in range(4):
        e1, e2 = inc[i], inc[(i + 1) % 4]
        try:
            out = lift_pair(g, e1, e2, v)
            break
        except Exception:
            continue
    assert out is not None
    rep = check_class(out, p, "pt")
    assert not rep.holds


def test_unknown_class_refused():
    g = triangle()
    with pytest.raises(OperationError):
        check_class(g, {v: 0 for v in g.vertices}, "zt")


def test_holds_iff_no_violations():
    for seed in range(15):
        g = random_multigraph(seed)
        p = random_prescription(g, seed)
        for name in ("pt", "3pt", "ft", "dts", "3dts"):
            rep = check_class(g, p, name)
            assert rep.holds == (rep.violations == ())


def test_plane_instance_fails_pt_on_surface():
    g = square_with_chord()
    p = {v: 0 for v in g.vertices}
    rep = check_class(g, p, "pt")
    assert not rep.holds
    assert any(idx == 0 for idx, _ in rep.violations)


def test_path_condition_walks_the_faces_once(monkeypatch):
    # the off-boundary path condition pools the face vertex sets the check
    # already holds; it walks no face per interior vertex
    g = random_multigraph(18, 10, 12)
    zeros = {v: 0 for v in g.rotation}
    interior = set(g.rotation) - set(specified_walk(g).tails)
    walks = _count_calls(monkeypatch, embedding.specified_walk)
    rep = check_class(g, zeros, "pt")
    assert len(interior) == 8
    assert sum(idx == 5 for idx, _ in rep.violations) == 8  # each one ran its flow
    assert len(walks) == 1


def test_path_condition_sink_is_not_a_vertex():
    # check_class takes its graph as given, unvalidated: a plane K4 whose
    # centre is vertex -1, which validate refuses, gets K4's report (its
    # cuts in another order), where a max-flow sink of -1 met the source
    k4 = wheel(3)
    g = EmbeddedGraph(
        edges={e: tuple(-1 if x == 3 else x for x in uv) for e, uv in k4.edges.items()},
        sign=dict(k4.sign),
        rotation={-1 if v == 3 else v: list(r) for v, r in k4.rotation.items()},
        specified=list(k4.specified),
    )
    rep = check_class(g, {v: 0 for v in g.rotation}, "pt")
    ref = check_class(k4, {v: 0 for v in k4.rotation}, "pt")
    assert rep.violations[-1] == (5, "vertex -1 has only 3 edge-disjoint paths")
    assert sorted(rep.violations[:-1]) == sorted(ref.violations[:-1])
    assert ref.violations[-1] == (5, "vertex 3 has only 3 edge-disjoint paths")
    assert boundary_connectivity(g, -1) == 3


# ------------------------------------------------------------ pinned outputs

CLASS_NAMES = ("pt", "3pt", "ft", "dts", "3dts")


def _with_roles(g, seed, t=False, d=False):
    """A copy of g with a protected vertex t and/or a directed vertex d
    picked from the seed; d's arcs cover all its edges on even seeds and
    all but one on odd ones, so both answers of "fully directed" occur."""
    h = g.copy()
    verts = h.vertices
    if t:
        h.tvertex = verts[seed % len(verts)]
    if d:
        h.dvertex = verts[(7 * seed + 1) % len(verts)]
        inc = list(dict.fromkeys(h.incident(h.dvertex)))
        if seed % 2 and inc:
            inc.pop()
        h.darcs = {e: ("out" if i % 2 else "in") for i, e in enumerate(inc)}
    return h


def _small_graphs():
    """The empty graph and graphs on one and two vertices."""
    yield "empty", EmbeddedGraph()
    lone = EmbeddedGraph()
    lone.rotation = {0: []}
    yield "lone", lone
    for sign in (1, -1):
        yield f"loop{sign}", build_graph(
            {0: (0, 0)}, signs={0: sign}, specified_anchor=(0, 0)
        )
    yield "edge", build_graph({0: (0, 1)}, specified_anchor=(0, 0))
    yield "two", build_graph({0: (0, 1), 1: (2, 3)}, specified_anchor=(0, 0))
    yield "triple", build_graph(
        {0: (0, 1), 1: (0, 1), 2: (0, 1)}, specified_anchor=(0, 0)
    )


def _with_far_face(g):
    """A copy of g with a second specified face: the one sharing the fewest
    vertices with the first (the first itself when it is the only one)."""
    h = g.copy()
    near = set(specified_walk(h).tails)
    far = min(trace_faces(h), key=lambda f: len(near & set(f.tails)))
    h.specified.append(canonical_anchor(h, far))
    return h


def _class_cases():
    """(label, graph, prescription) for the class-report pin below."""
    rng = np.random.default_rng(5)
    for seed in range(60):
        g = random_multigraph(seed)
        p = random_prescription(g, seed)
        if seed % 5 == 0:  # a total that misses 0 mod 3
            v = g.vertices[0]
            p[v] = (p[v] + 2) % 3 - 1
        yield f"rm{seed}", g, p
        yield f"rm{seed}/t", _with_roles(g, seed, t=True), p
        yield f"rm{seed}/d", _with_roles(g, seed, d=True), p
        yield f"rm{seed}/td", _with_roles(g, seed, t=True, d=True), p
        yield f"rm{seed}/2", _with_far_face(g), p
        if seed % 4 == 0:  # often disconnected, and with no specified face
            yield f"rm{seed}/cut", without_edges(g, rng), p
    for seed in range(12):
        g, p = gen_random_pt(seed, 9)
        yield f"rpt{seed}", g, p
        h = g.copy()
        faces = trace_faces(h)
        h.specified.append(canonical_anchor(h, faces[seed % len(faces)]))
        yield f"rpt{seed}/2", h, p
    for i in (5, 7, 21):
        for name, g in ((f"B{i}", gen_circulant_b(i)), (f"A{i}", gen_a(i))):
            yield name, g, {v: 0 for v in g.rotation}
    for k in range(4):
        g, p, _ = gen_counterexample(k)
        yield f"CE{k}", g, p
        h = g.copy()
        h.dvertex, h.darcs = None, {}
        yield f"CE{k}/-d", h, p
    for name, g in _small_graphs():
        yield name, g, {v: 0 for v in g.rotation}
    for name, g in (("wheel5", wheel(5)), ("square", square_with_chord())):
        zero = {v: 0 for v in g.rotation}
        yield name, g, zero
        for seed in range(2):
            yield f"{name}/td{seed}", _with_roles(g, seed, t=True, d=True), zero


# sha256 over each case's class report (class name, holds, violations), or
# the exception it raises, for every class on the cases of _class_cases
CLASS_REPORT_DIGEST = "7aefc6a97878e9e4b6f9384f77450fb7e274aa9f6cb7469d4fdbab8823d9d56b"


def test_class_reports_are_pinned():
    h = hashlib.sha256()
    for label, g, p in _class_cases():
        for name in CLASS_NAMES:
            try:
                rep = check_class(g, p, name)
                line = f"{rep.class_name} {rep.holds} {rep.violations!r}"
            except EmbeddingError as exc:
                line = f"{type(exc).__name__} {exc}"
            h.update(f"{label} {name} {line}\n".encode())
    assert h.hexdigest() == CLASS_REPORT_DIGEST


def _robust_cut_graphs():
    rng = np.random.default_rng(3)
    for seed in range(60):
        g = random_multigraph(seed, max_vertices=8)
        yield f"rm{seed}", g
        yield f"rm{seed}/cut", without_edges(g, rng)
    for seed in range(10):
        yield f"rpt{seed}", gen_random_pt(seed, 9)[0]
    for i in (5, 7):
        yield f"B{i}", gen_circulant_b(i)
        yield f"A{i}", gen_a(i)
    yield from _small_graphs()


# sha256 over every cut (side, edges, size, robust) that
# enumerate_robust_cuts lists, or the exception it raises, for max 2..5 and
# min-side 0..3 on the graphs of _robust_cut_graphs
ROBUST_CUTS_DIGEST = "242f91153666e845b3a670eb2c4611eedaf80e381c1b5f8ea5dc2d4e0c78f2eb"


def test_robust_cuts_are_pinned():
    h = hashlib.sha256()
    for label, g in _robust_cut_graphs():
        for k in range(2, 6):
            for m in range(4):
                try:
                    cuts = [
                        (sorted(c.side), c.edges, c.size, c.robust)
                        for c in enumerate_robust_cuts(g, k, m)
                    ]
                    line = repr(cuts)
                except EmbeddingError as exc:
                    line = f"{type(exc).__name__} {exc}"
                h.update(f"{label} {k} {m} {line}\n".encode())
    assert h.hexdigest() == ROBUST_CUTS_DIGEST
