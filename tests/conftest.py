"""Shared instance builders.

Everything here is deterministic given its arguments; random builders
take an explicit numpy seed.
"""

from __future__ import annotations

import sys
from collections import Counter

import numpy as np
import pytest

from crossflow import _kernels, families, orient
from crossflow.embedding import (
    EmbeddedGraph,
    OperationError,
    StructureError,
    _canonical_walk,
    _corner_gap,
    _face_through,
    _mirror,
    _move_darts,
    _orbit_anchor,
    _resign_all_positive,
    _walk_from,
    canonical_anchor,
    euler_characteristic,
    specified_walk,
    trace_faces,
)
from crossflow.orient import OracleBoundError, prescription_ok


def build_graph(edges, signs=None, rotations=None, specified_anchor=None):
    """Assemble an EmbeddedGraph from edge endpoint pairs.

    ``edges`` maps id -> (u, v).  Signs default to +1.  Rotations default
    to sorted dart order at every vertex (an arbitrary but legal
    embedding).  ``specified_anchor`` marks one face.
    """
    g = EmbeddedGraph()
    g.edges = dict(edges)
    g.sign = {e: 1 for e in edges}
    if signs:
        g.sign.update(signs)
    verts = {v for uv in edges.values() for v in uv}
    g.rotation = {v: [] for v in verts}
    for e, (u, v) in sorted(g.edges.items()):
        g.rotation[u].append((e, 0))
        g.rotation[v].append((e, 1))
    if rotations:
        for v, rot in rotations.items():
            g.rotation[v] = list(rot)
    if specified_anchor is not None:
        g.specified = [specified_anchor]
    g.validate()
    return g


def cycle_graph(n, signs=None):
    """Plane n-cycle: vertices 0..n-1, edge i joins i and (i+1) % n.
    Two faces; the specified one is anchored at dart (0, 0)."""
    edges = {i: (i, (i + 1) % n) for i in range(n)}
    return build_graph(edges, signs=signs, specified_anchor=(0, 0))


def triangle():
    return cycle_graph(3)


def triangle_with_loop():
    """Plane triangle 0-1-2 (edges 0..2) with loop 3 at vertex 0, drawn in
    the specified face, which therefore visits vertex 0 twice; edge 0 is
    forced out of directed vertex 0."""
    g = build_graph(
        {0: (0, 1), 1: (1, 2), 2: (2, 0), 3: (0, 0)},
        rotations={0: [(2, 1), (3, 0), (3, 1), (0, 0)]},
        specified_anchor=(0, 0),
    )
    g.dvertex = 0
    g.darcs = {0: "out"}
    return g


def wheel(k):
    """Plane wheel: rim cycle 0..k-1 (edges 0..k-1), hub k joined to every
    rim vertex (edge k+i joins hub and rim vertex i).  The specified face
    is the outer one bounded by the rim alone."""
    edges = {i: (i, (i + 1) % k) for i in range(k)}
    for i in range(k):
        edges[k + i] = (k, i)
    rotations = {}
    for i in range(k):
        # outer face on the +1 side: previous rim edge, spoke, next rim edge
        rotations[i] = [((i - 1) % k, 1), (k + i, 1), (i, 0)]
    rotations[k] = [(k + i, 0) for i in reversed(range(k))]
    g = build_graph(edges, rotations=rotations)
    outer = [f for f in trace_faces(g) if set(f.edge_ids()) == set(range(k))]
    assert len(outer) == 1 and outer[0].length == k
    g.specified = [canonical_anchor(g, outer[0])]
    return g


def square_with_chord():
    """Plane square 0-1-2-3 with the diagonal 0-2 drawn inside; the
    specified face is the outer square, making the diagonal a contractible
    chord of its boundary."""
    g = build_graph(
        {0: (0, 1), 1: (1, 2), 2: (2, 3), 3: (3, 0), 4: (0, 2)},
        rotations={
            0: [(3, 1), (4, 0), (0, 0)],
            2: [(1, 1), (4, 1), (2, 0)],
        },
    )
    outer = [f for f in trace_faces(g) if set(f.edge_ids()) == {0, 1, 2, 3}]
    assert len(outer) == 1 and outer[0].length == 4
    g.specified = [canonical_anchor(g, outer[0])]
    return g


def bowtie_crosscap():
    """Two triangles sharing vertex 0, one edge through the crosscap; the
    specified face (length 9) walks through vertex 0 more than once, which
    is the doubled-boundary-vertex situation."""
    edges = {0: (0, 1), 1: (1, 2), 2: (2, 0), 3: (0, 3), 4: (3, 4), 5: (4, 0)}
    g = build_graph(
        edges,
        signs={2: -1},
        rotations={0: [(0, 0), (2, 1), (3, 0), (5, 1)]},
        specified_anchor=(0, 0),
    )
    return g


def two_triangles():
    """Two plane triangles, 0-1-2 (edges 0..2) and 3-4-5 (edges 3..5), as
    one graph with two components; the specified face is on the first."""
    edges = {0: (0, 1), 1: (1, 2), 2: (2, 0), 3: (3, 4), 4: (4, 5), 5: (5, 3)}
    return build_graph(edges, specified_anchor=(0, 0))


def disjoint_union(a, b):
    """a and b side by side as one graph, b's vertex and edge ids shifted
    past a's; the specified faces are a's, then b's."""
    g = a.copy()
    de, dv = max(a.edges) + 1, max(a.rotation) + 1
    for e, (u, v) in b.edges.items():
        g.edges[e + de] = (u + dv, v + dv)
        g.sign[e + de] = b.sign[e]
    for v, rot in b.rotation.items():
        g.rotation[v + dv] = [(e + de, s) for e, s in rot]
    g.specified += [(e + de, s) for e, s in b.specified]
    g.validate()
    return g


def random_multigraph(seed, max_vertices=9, max_extra=6):
    """Random connected embedded multigraph: a spanning cycle plus extra
    random edges, random rotations and signs, one random specified face.
    Makes no surface promise; useful as hostile input."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, max_vertices + 1))
    edges = {i: (i, (i + 1) % n) for i in range(n)}
    for j in range(int(rng.integers(0, max_extra + 1))):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges[len(edges)] = (int(u), int(v))
    g = EmbeddedGraph()
    g.edges = edges
    g.sign = {e: (-1 if rng.random() < 0.4 else 1) for e in edges}
    g.rotation = {v: [] for v in range(n)}
    for e, (u, v) in edges.items():
        g.rotation[u].append((e, 0))
        g.rotation[v].append((e, 1))
    for v in range(n):
        order = rng.permutation(len(g.rotation[v]))
        g.rotation[v] = [g.rotation[v][int(j)] for j in order]
    faces = trace_faces(g)
    pick = faces[int(rng.integers(len(faces)))]
    g.specified = [canonical_anchor(g, pick)]
    g.validate()
    return g


def petal_graph(seed, k):
    """k triangles at vertex 0 (triangle i on 0, 2i+1, 2i+2, by edges 3i,
    3i+1, 3i+2), with random signs and a random rotation at 0; no face is
    specified.  A face of it may visit vertex 0 up to 2k times."""
    rng = np.random.default_rng(seed)
    edges = {}
    for i in range(k):
        a, b = 2 * i + 1, 2 * i + 2
        edges.update({3 * i: (0, a), 3 * i + 1: (a, b), 3 * i + 2: (b, 0)})
    signs = {e: (-1 if rng.random() < 0.5 else 1) for e in edges}
    rot0 = [d for i in range(k) for d in ((3 * i, 0), (3 * i + 2, 1))]
    rot0 = [rot0[int(j)] for j in rng.permutation(len(rot0))]
    return build_graph(edges, signs=signs, rotations={0: rot0})


def orbit_pairs(g):
    """Every face orbit of an embedding with edges, in discovery order, and
    each face as the indices of its two mirror orbits: every orbit walked,
    with no rotation check first.  The reference the one-orbit face count
    is tested against.  Raises StructureError when the face step is not a
    permutation or an orbit is its own mirror."""
    orbit_of = {}
    orbits = []
    for e in sorted(g.edges):
        for end in (0, 1):
            for s in (1, -1):
                st = ((e, end), s)
                if st in orbit_of:
                    continue
                try:
                    orbit = _walk_from(g, st)
                except ValueError:  # a dart arrives where its vertex does not list it
                    raise StructureError("rotation system is not a permutation") from None
                for x in orbit:
                    if x in orbit_of:
                        raise StructureError("rotation system is not a permutation")
                    orbit_of[x] = len(orbits)
                orbits.append(orbit)
    pairs = []
    taken = set()
    for idx, orbit in enumerate(orbits):
        if idx in taken:
            continue
        midx = orbit_of[_mirror(g, orbit[0])]
        if midx == idx:
            raise StructureError("facial walk is its own mirror")
        taken.add(idx)
        taken.add(midx)
        pairs.append((idx, midx))
    return orbits, pairs


def names_the_halves(walk, out):
    """Whether the specified faces of ``out`` are the two halves of the face
    whose walk is ``walk``: two faces whose walks together have its length
    and use each edge as often as it does."""
    halves = [_face_through(out, (a, 1)) for a in out.specified]
    return (
        len(halves) == 2
        and sum(h.length for h in halves) == walk.length
        and Counter(e for h in halves for e, _ in h.darts)
        == Counter(e for e, _ in walk.darts)
    )


def names_the_cut_halves(walk, v, out):
    """Whether the specified faces of ``out`` are the halves of the face
    whose walk is ``walk`` at the cut through ``v``'s first two visits
    p1 < p2: faces with the edge multisets of walk[p1:p2] and
    walk[p2:] + walk[:p1], in either order."""
    p1, p2 = [i for i, t in enumerate(walk.tails) if t == v][:2]
    darts = walk.darts
    want = [Counter(e for e, _ in darts[p1:p2]), Counter(e for e, _ in darts[p2:] + darts[:p1])]
    got = [Counter(e for e, _ in _face_through(out, (a, 1)).darts) for a in out.specified]
    return got in (want, want[::-1])


def reference_split(g, v, walk=None, chi=None):
    """``split_doubled_boundary_vertex`` as it was before it read its cut
    off F's walk: it walks the cut-open face to count F', re-signs that
    walk, builds its canonical walk, merges the copies at the corners of
    the first visits of v and of the copy there, and anchors the halves
    as that walk's two arcs between them.  The reference the split is
    tested against."""
    if len(g.specified) != 1:
        raise OperationError("split needs exactly one specified face")
    if walk is None:
        walk = specified_walk(g)
    occ = [i for i, t in enumerate(walk.tails) if t == v]
    if len(occ) < 2:
        raise OperationError(f"vertex {v} does not repeat on the boundary")
    p1, p2 = occ[0], occ[1]
    out = g.copy()
    rot = out.rotation[v]
    c1, c2 = _corner_gap(rot, walk, p1), _corner_gap(rot, walk, p2)
    if c1 == c2:
        raise OperationError("boundary visits share a corner; cannot split")
    if c1 > c2:
        c1, c2 = c2, c1
    arc_a = rot[c1:c2]
    arc_b = rot[c2:] + rot[:c1]
    fresh = out.next_vertex_id()
    out.rotation[v] = arc_a
    out.rotation[fresh] = arc_b
    _move_darts(out, arc_b, fresh)
    cut = _walk_from(out, walk.states[p1 if walk.states[p1][0] in arc_a else p2])
    if len(cut) != walk.length or (euler_characteristic(g) if chi is None else chi) != 1:
        raise OperationError("boundary visits do not cut the crosscap")
    _resign_all_positive(out, cut)
    shared = _canonical_walk(out, cut)
    iv, iw = shared.tails.index(v), shared.tails.index(fresh)
    rv = out.rotation[v]
    rw = out.rotation[fresh]
    gv, gw = _corner_gap(rv, shared, iv), _corner_gap(rw, shared, iw)
    merged_rot = rv[gv:] + rv[:gv] + rw[gw:] + rw[:gw]
    del out.rotation[fresh]
    out.rotation[v] = merged_rot
    _move_darts(out, merged_rot, v)
    i, j = (iv, iw) if shared.states[0][1] == 1 else (iw, iv)
    arcs, k = shared.states[i:] + shared.states[:i], (j - i) % shared.length
    out.specified = [_orbit_anchor(out, arcs[:k]), _orbit_anchor(out, arcs[k:])]
    return out


def reference_grow_pieces(nbr, max_size, banned):
    """The piece growth of ``cuts._grow_pieces`` as it first was: branch on
    the lowest undecided neighbour, prune only a cut past max_size, no step
    budget.  Returns (pieces, steps) like it; the reference the fail-first
    search is tested against."""
    steps = 0
    pieces = []
    for s in range(len(nbr)):
        if banned >> s & 1:
            continue
        outside = (1 << s) - 1 | banned
        cut = sum((m & outside).bit_count() for m in nbr[s])
        stack = [(1 << s, outside, nbr[s][0], cut)] if cut <= max_size else []
        while stack:
            steps += 1
            inside, outside, reach, cut = stack.pop()
            undecided = reach & ~(inside | outside)
            if not undecided:
                pieces.append((cut, inside, inside | reach))
                continue
            w = (undecided & -undecided).bit_length() - 1
            row = nbr[w]
            out_cut = in_cut = cut
            for m in row:
                out_cut += (m & inside).bit_count()
                in_cut += (m & outside).bit_count()
            if out_cut <= max_size:
                stack.append((inside, outside | 1 << w, reach, out_cut))
            if in_cut <= max_size:
                stack.append((inside | 1 << w, outside, reach | row[0], in_cut))
    return pieces, steps


def reference_forced_arcs(g):
    """The directed vertex's arcs as (tail, head) by edge id."""
    arcs = {}
    for e, way in g.darcs.items():
        u, v = g.edges[e]
        other = v if u == g.dvertex else u
        arcs[e] = (g.dvertex, other) if way == "out" else (other, g.dvertex)
    return arcs


def reference_oracle_lists(g, p, directed):
    """The oracle's instance over vertex indices, built as it was before
    ``orient._oracle_instance``: the free edge ids, their lower and higher
    endpoints, the in-minus-out sum of the directed edges at each vertex,
    and its target residue.  Loops are left out: either way round, a loop
    adds nothing to a residue."""
    verts = g.vertices
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    cur = [0] * n
    tgt = [p[v] for v in verts]
    free, lo, hi = [], [], []
    for e in sorted(g.edges):
        u, v = g.edges[e]
        if u == v:
            continue
        if e in directed:
            t, h = directed[e]
            cur[index[t]] -= 1
            cur[index[h]] += 1
        else:
            a, b = index[u], index[v]
            free.append(e)
            lo.append(min(a, b))
            hi.append(max(a, b))
    return free, lo, hi, cur, tgt


def _reference_orientable(lo, hi, need, rank):
    """The oracle's frontier DP as a decision only: whether the free edges
    lo[j]-hi[j] can be directed to meet ``need``, in the same vertex and
    edge order, slots and state budget as ``orient._frontier_first``."""
    n = len(need)
    left = [0] * n
    for a, b in zip(lo, hi):
        left[a] += 1
        left[b] += 1
    if any(need[v] and not left[v] for v in range(n)):
        return False
    slot = [-1] * n
    spare = []
    width = 0
    states = {0}
    created = 0
    later_first = [sorted((rank[a], rank[b]), reverse=True) for a, b in zip(lo, hi)]
    for j in sorted(range(len(lo)), key=later_first.__getitem__):
        a, b = lo[j], hi[j]
        for x in (a, b):
            if slot[x] < 0:
                slot[x] = spare.pop() if spare else width
                width = max(width, slot[x] + 1)
        sa, sb = 2 * slot[a], 2 * slot[b]
        left[a] -= 1
        left[b] -= 1
        ra = -1 if left[a] else need[a]
        rb = -1 if left[b] else need[b]
        for x in (a, b):
            if not left[x]:
                spare.append(slot[x])
        mask = 3 << sa | 3 << sb
        moves = orient._edge_moves(sa, sb, ra, rb)
        states = {s + d for s in states for d, _ in moves[s & mask]}
        if not states:
            return False
        created += len(states)
        if created > orient._FRONTIER_STATE_BUDGET:
            raise OracleBoundError(
                f"the frontier DP passed its budget of {orient._FRONTIER_STATE_BUDGET} "
                f"states at frontier width {width} ({len(lo)} free edges)"
            )
    return True


def reference_oracle_solve(g, p):
    """``oracle_solve`` as it was when it read its witness by
    self-reduction: one decision run, then one more run per free edge, in
    id order, each giving the edge its tail at the lower endpoint when the
    remaining edges can still be directed, else the reverse.  The reference
    the one-run read is tested against."""
    if not orient._check_prescription(g, p):
        return None
    if any(way == "in" and g.is_loop(e) for e, way in g.darcs.items()):
        return None
    directed = reference_forced_arcs(g)
    free, lo, hi, cur, tgt = reference_oracle_lists(g, p, directed)
    need = [(t - c) % 3 for t, c in zip(tgt, cur)]
    rank = orient._search_rank(len(need), lo, hi)
    if not _reference_orientable(lo, hi, need, rank):
        return None
    direction = dict(directed)
    for j, e in enumerate(free):
        a, b = lo[j], hi[j]
        u, v = min(g.edges[e]), max(g.edges[e])
        # tail at a leaves a one more to take in, and b one less
        need[a] = (need[a] + 1) % 3
        need[b] = (need[b] - 1) % 3
        if _reference_orientable(lo[j + 1 :], hi[j + 1 :], need, rank):
            direction[e] = (u, v)
        else:
            need[a] = (need[a] - 2) % 3
            need[b] = (need[b] + 2) % 3
            direction[e] = (v, u)
    for e, (u, v) in g.edges.items():
        if u == v:
            direction.setdefault(e, (u, u))
    o = orient.Orientation(direction=direction, fixed=frozenset(g.darcs))
    if not orient.is_valid_orientation(g, p, o):
        raise orient.OrientationError("the oracle read an invalid orientation")
    return o


# count_valid's backtracking search is exponential; it refuses graphs with
# more edges than this.
_COUNT_EDGE_BOUND = 24


def free_edge_counts(n, lo, hi):
    """The number of free edges at each of the vertex indices 0..n-1, from
    the free edges' lower and higher endpoints."""
    und = [0] * n
    for a, b in zip(lo, hi):
        und[a] += 1
        und[b] += 1
    return und


def count_valid(g, p):
    """Number of valid total orientations (extending forced arcs), counted
    by the backtracking search; the reference the frontier DP is tested
    against.  Loops are not branched on: a loop adds nothing to a
    residue, and the count is over the other edges.  Refuses, with
    OracleBoundError, a graph of more than ``_COUNT_EDGE_BOUND`` edges."""
    if len(g.edges) > _COUNT_EDGE_BOUND:
        raise OracleBoundError(
            f"|E|={len(g.edges)} exceeds the count bound {_COUNT_EDGE_BOUND}"
        )
    if not prescription_ok(g, p):
        return 0
    free, lo, hi, cur, tgt = reference_oracle_lists(g, p, reference_forced_arcs(g))
    und = free_edge_counts(len(cur), lo, hi)
    return int(_kernels.orient_search(lo, hi, cur, und, tgt, 1, np.zeros(0, np.int8)))


def _replace_everywhere(monkeypatch, old, new) -> None:
    """Bind ``new`` wherever crossflow binds ``old`` (by identity, as
    solvebench's spans patch their targets): in its modules and in the
    bodies of the classes they define, so a method counts too."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "crossflow":
            classes = [
                c for c in vars(module).values() if isinstance(c, type) and c.__module__ == name
            ]
            for owner in (module, *classes):
                for attr, value in list(vars(owner).items()):
                    if value is old:
                        monkeypatch.setattr(owner, attr, new)


def _count_calls(monkeypatch, fn) -> list[int]:
    """Count calls of ``fn``, wherever crossflow binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    _replace_everywhere(monkeypatch, fn, counted)
    return calls


def _record_candidates(monkeypatch) -> list[tuple]:
    """Record every candidate ``gen_random_pt`` draws, as its candidate
    iterator yields them."""
    seen = []
    real = families._random_pt_candidates

    def recorded(rng, max_vertices):
        for candidate in real(rng, max_vertices):
            seen.append(candidate)
            yield candidate

    monkeypatch.setattr(families, "_random_pt_candidates", recorded)
    return seen


@pytest.fixture
def rng():
    return np.random.default_rng(0)
