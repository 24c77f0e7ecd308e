"""Acceptance gate: one test per shipped guarantee, zero tolerance unless a
runtime ceiling is stated inline.  ``pytest -v`` prints one pass/fail line
per criterion.

1. circulant schedules solve every prescription (exhaustive at small sizes)
2. the counterexample instance admits no valid orientation
3. projective random instances are always orientable
4. solver and oracle agree on a 1000-instance corpus
5. family embeddings live on the projective plane and planarize
6. boundary connectivity matches a brute-force minimum separation
7. 5-edge-cuts of 5-edge-connected graphs never cross
8. reduction operations preserve the interior path bound
9. a residue-sum obstruction blocks every graph
"""

import time
from itertools import combinations, product

import numpy as np

from conftest import build_graph, count_valid, random_multigraph, wheel
from crossflow.cuts import (
    boundary_connectivity,
    cut_edges,
    cuts_cross,
    make_cut,
)
from crossflow.embedding import (
    EmbeddingError,
    boundary_vertices,
    contract_subgraph,
    delete_edge,
    delete_vertex,
    euler_characteristic,
    lift_pair,
    planarize_along_chord,
    specified_walk,
    trace_faces,
)
from crossflow.families import (
    FamilyError,
    circulant_schedule,
    gen_a,
    gen_circulant_b,
    gen_counterexample,
    gen_random_pt,
)
from crossflow.orient import (
    greedy_direct_and_delete,
    is_valid_orientation,
    oracle_solve,
    prescription_ok,
    random_prescription,
)
from crossflow.solver import solve
from test_cuts import bruteforce_min_separation
from test_orient import enumerate_all_orientations

RESIDUES = (-1, 0, 1)


def _rep(r):
    # residue class representative in {-1, 0, +1}
    r %= 3
    return r - 3 if r == 2 else r


def _all_prescriptions(vertices):
    """Every residue map with total 0 mod 3: free choice on all but the
    last vertex, last forced."""
    head, last = vertices[:-1], vertices[-1]
    for combo in product(RESIDUES, repeat=len(head)):
        p = dict(zip(head, combo))
        p[last] = _rep(-sum(combo))
        yield p


# 1 ------------------------------------------------------------------


def test_circulant_schedule_solves_all_prescriptions():
    """Greedy direct-and-delete with the circulant schedule succeeds on
    every valid prescription: exhaustively at parameters 5 and 7 (81 and
    729 prescriptions for the i-vertex family, 243 and 2187 for the
    subdivided one), and on 200 seeded random prescriptions for every
    odd parameter 9..25, both families.  100% success, under 60 s."""
    t0 = time.perf_counter()
    exhaustive = [
        (gen_circulant_b, False, 5, 81),
        (gen_circulant_b, False, 7, 729),
        (gen_a, True, 5, 243),
        (gen_a, True, 7, 2187),
    ]
    for build, subdiv, i, expect in exhaustive:
        g = build(i)
        lifts, order = circulant_schedule(g, i, with_subdivision=subdiv)
        n = 0
        for p in _all_prescriptions(g.vertices):
            o, _ = greedy_direct_and_delete(g, p, lifts, order)
            assert is_valid_orientation(g, p, o)
            n += 1
        assert n == expect
    for i in range(9, 26, 2):
        for build, subdiv in ((gen_circulant_b, False), (gen_a, True)):
            g = build(i)
            lifts, order = circulant_schedule(g, i, with_subdivision=subdiv)
            for seed in range(200):
                p = random_prescription(g, seed)
                o, _ = greedy_direct_and_delete(g, p, lifts, order)
                assert is_valid_orientation(g, p, o)
    assert time.perf_counter() - t0 < 60.0


# 2 ------------------------------------------------------------------


def test_counterexample_is_unorientable():
    """The smallest directed-vertex instance has no valid orientation:
    exhaustive count over all completions of its 20 free edges is zero,
    under 60 s.  Consistency pre-checks on the published data first."""
    t0 = time.perf_counter()
    g, p, dspec = gen_counterexample(0)
    assert sum(p.values()) == 6 and prescription_ok(g, p)
    degrees = sorted(len(g.rotation[v]) for v in g.vertices)
    assert degrees == [3] + [4] * 10 + [5]
    assert p[dspec.vertex] == -1
    assert dspec.residue() == -1  # all four forced arcs point outward
    assert len(g.edges) - len(g.darcs) == 20
    assert oracle_solve(g, p) is None
    assert count_valid(g, p) == 0
    assert time.perf_counter() - t0 < 60.0


# 3 ------------------------------------------------------------------


def test_projective_generator_instances_all_orientable():
    """500 seeded projective instances (at most 9 vertices), 5 sampled
    valid prescriptions each: the oracle finds a valid orientation for
    every single one."""
    for seed in range(500):
        g, _ = gen_random_pt(seed, 9)
        for j in range(5):
            p = random_prescription(g, 1000 * seed + j)
            o = oracle_solve(g, p)
            assert o is not None
            assert is_valid_orientation(g, p, o)


# 4 ------------------------------------------------------------------


def test_solver_agrees_with_oracle_on_corpus():
    """1000 corpus instances with at most 20 undirected free edges,
    mixing the directed-vertex counterexample, projective instances, and
    arbitrary multigraphs: solve and the oracle agree on solvability and
    every returned orientation validates.  Tolerance zero."""
    checked = 0
    seed = 0
    while checked < 1000:
        seed += 1
        kind = seed % 5
        if kind == 0:
            g, _, _ = gen_counterexample(0)
            p = random_prescription(g, seed)
        elif kind in (1, 2):
            try:
                g, p = gen_random_pt(seed, 9)
            except FamilyError:
                continue
        else:
            g = random_multigraph(seed, 8)
            p = random_prescription(g, seed)
        if len(g.edges) - len(g.darcs) > 20:
            continue
        got, _ = solve(g, p)
        want = oracle_solve(g, p)
        assert (got is None) == (want is None)
        if got is not None:
            assert is_valid_orientation(g, p, got)
        checked += 1


# 5 ------------------------------------------------------------------


def test_family_embeddings_projective_and_planarizable():
    """100 seeded family embeddings: Euler characteristic 1, facial walk
    lengths summing to twice the edge count, and cutting along some
    noncontractible chord yields characteristic 2."""
    done = 0
    seed = 0
    while done < 100:
        seed += 1
        kind = seed % 4
        try:
            if kind == 0:
                g = gen_circulant_b(5 + 2 * (seed % 5))
            elif kind == 1:
                g = gen_a(5 + 2 * (seed % 5))
            elif kind == 2:
                g, _, _ = gen_counterexample(seed % 3)
            else:
                g, _ = gen_random_pt(seed, 9)
        except FamilyError:
            continue
        assert euler_characteristic(g) == 1
        assert sum(len(f.states) for f in trace_faces(g)) == 2 * len(g.edges)
        flat = None
        for e in sorted(g.edges):
            try:
                flat = planarize_along_chord(g, e)
                break
            except EmbeddingError:
                continue
        assert flat is not None
        assert euler_characteristic(flat) == 2
        done += 1


# 6 ------------------------------------------------------------------


def test_boundary_connectivity_matches_bruteforce():
    """On 100 seeded instances of at most 10 vertices with interior
    vertices, the flow-based boundary connectivity equals an exhaustive
    minimum-separation scan at every interior vertex."""
    instances = 0
    probes = 0
    seed = 0
    while instances < 100:
        seed += 1
        g = wheel(4 + seed % 5) if seed % 3 == 0 else random_multigraph(seed, 10)
        bnd = boundary_vertices(g)
        inner = [v for v in g.vertices if v not in bnd]
        if not inner:
            continue
        for v in inner:
            assert boundary_connectivity(g, v) == bruteforce_min_separation(g, v)
            probes += 1
        instances += 1
    assert probes >= 100


# 7 ------------------------------------------------------------------


def _five_edge_connected(seed):
    """5-regular stub-pairing multigraph on 6, 8, or 10 vertices,
    redrawn until loop-free and 5-edge-connected."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([6, 8, 10]))
    while True:
        stubs = [v for v in range(n) for _ in range(5)]
        rng.shuffle(stubs)
        pairs = list(zip(stubs[0::2], stubs[1::2]))
        if any(a == b for a, b in pairs):
            continue
        edges = {e: uv for e, uv in enumerate(pairs)}
        incid = {v: [] for v in range(n)}
        for e, (u, v) in edges.items():
            incid[u].append((e, 0))
            incid[v].append((e, 1))
        rotations = {}
        for v in range(n):
            ends = incid[v][:]
            rng.shuffle(ends)
            rotations[v] = ends
        g = build_graph(edges, None, rotations, (0, 0))
        lam = min(
            len(cut_edges(g, frozenset(c)))
            for r in range(1, n)
            for c in combinations(range(1, n), r)
        )
        if lam >= 5:
            return g


def test_five_edge_connected_five_cuts_never_cross():
    """On 100 seeded 5-edge-connected multigraphs of at most 10
    vertices, every pair of 5-edge-cuts is non-crossing.  Zero
    violations."""
    for seed in range(100):
        g = _five_edge_connected(seed)
        n = len(g.vertices)
        sides = set()
        for r in range(1, n):
            for c in combinations(range(1, n), r):
                side = frozenset(c)
                if len(cut_edges(g, side)) == 5:
                    sides.add(side)
        cuts = [make_cut(g, s) for s in sorted(sides, key=sorted)]
        assert cuts  # vertex stars give at least one 5-cut
        for c1, c2 in combinations(cuts, 2):
            assert not cuts_cross(c1, c2)


# 8 ------------------------------------------------------------------


def _interior(g):
    bnd = boundary_vertices(g)
    return [v for v in g.vertices if v not in bnd]


def _applicable_ops(g):
    """Reduction moves whose preconditions hold: contracting an interior
    vertex, deleting a boundary edge or vertex that meets the specified
    walk exactly once, lifting a walk edge with a non-walk partner
    consecutive at a shared vertex, and contracting two adjacent walk
    vertices."""
    walk = specified_walk(g)
    bnd = set(walk.tails)
    wedges = set(walk.edge_ids())
    eids = [d[0] for d in walk.darts]
    ops = []
    for v in g.vertices:
        if v not in bnd:
            ops.append(("contract-interior", ({v},)))
    for e in sorted(wedges):
        if eids.count(e) == 1:
            ops.append(("delete-edge", (e,)))
    for v in sorted(bnd):
        ops.append(("delete-vertex", (v,)))
    for v in g.vertices:
        rot = g.rotation[v]
        for k in range(len(rot)):
            e1, e2 = rot[k][0], rot[(k + 1) % len(rot)][0]
            for a, b in ((e1, e2), (e2, e1)):
                if a in wedges and b not in wedges and a != b:
                    u0, v0 = g.edges[a]
                    w0, w1 = g.edges[b]
                    u = v0 if u0 == v else u0
                    w = w1 if w0 == v else w0
                    if u != w and not g.is_loop(a) and not g.is_loop(b):
                        ops.append(("lift", (a, b, v)))
    tails = walk.tails
    for i in range(len(tails)):
        a, b = tails[i], tails[(i + 1) % len(tails)]
        if a != b:
            ops.append(("contract-path", ({a, b},)))
    return ops


def _apply_op(g, op):
    kind, args = op
    if kind in ("contract-interior", "contract-path"):
        return contract_subgraph(g, args[0])
    if kind == "delete-edge":
        return delete_edge(g, args[0])
    if kind == "delete-vertex":
        return delete_vertex(g, args[0])
    return lift_pair(g, *args)


def test_reductions_preserve_interior_path_bound():
    """200 seeded (instance, applicable operation) pairs drawn from
    plane and projective instances whose interior vertices all reach the
    boundary on at least 5 edge-disjoint paths: after the operation,
    every interior vertex of the result still does.  Zero failures."""
    rng = np.random.default_rng(0)
    checked = 0
    probes = 0
    seed = 0
    while checked < 200:
        seed += 1
        kind = seed % 3
        try:
            if kind == 0:
                g = wheel(5 if seed % 2 else 6)
            elif kind == 1:
                g, _ = gen_random_pt(seed, 9)
            else:
                g = random_multigraph(seed, 8)
                if euler_characteristic(g) not in (1, 2):
                    continue
        except FamilyError:
            continue
        if any(boundary_connectivity(g, v) < 5 for v in _interior(g)):
            continue
        ops = _applicable_ops(g)
        if not ops:
            continue
        op = ops[int(rng.integers(len(ops)))]
        try:
            out = _apply_op(g, op)
        except EmbeddingError:
            continue
        checked += 1
        for v in _interior(out):
            probes += 1
            assert boundary_connectivity(out, v) >= 5, (seed, op, v)
    assert probes >= 10  # the property must not hold vacuously


# 9 ------------------------------------------------------------------


def test_residue_sum_obstruction_blocks_all_graphs():
    """100 seeded graphs with a prescription whose total is not 0 mod 3:
    the oracle reports no valid orientation for each, and an unpruned
    enumeration confirms it on the small loop-free instances.  A total
    orientation is checked as invalid, not refused: B5's oracle
    orientation for all zeros, against all zeros but p[1] = 1."""
    g = gen_circulant_b(5)
    p = dict.fromkeys(g.vertices, 0)
    o = oracle_solve(g, p)
    p[1] = 1
    assert o.is_total_for(g) and is_valid_orientation(g, p, o) is False
    done = 0
    seed = 0
    while done < 100:
        seed += 1
        if seed % 3 == 0:
            g = gen_circulant_b(5 + 2 * (seed % 4))
        elif seed % 3 == 1:
            try:
                g, _ = gen_random_pt(seed, 9)
            except FamilyError:
                continue
        else:
            g = random_multigraph(seed, 8)
        p = random_prescription(g, seed)
        v = g.vertices[seed % len(g.vertices)]
        p[v] = _rep(p[v] + 1)
        assert not prescription_ok(g, p)
        assert oracle_solve(g, p) is None
        if len(g.edges) <= 12 and not g.darcs:
            assert enumerate_all_orientations(g, p) == []
        done += 1
