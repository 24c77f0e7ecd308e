"""Shared instance builders.

Everything here is deterministic given its arguments; random builders
take an explicit numpy seed.
"""

from __future__ import annotations

import sys
from collections import Counter

import numpy as np
import pytest

from crossflow import _kernels, families
from crossflow.embedding import (
    EmbeddedGraph,
    StructureError,
    _face_through,
    _mirror,
    _walk_from,
    canonical_anchor,
    trace_faces,
)
from crossflow.orient import OracleBoundError, _forced_arcs, _oracle_lists, prescription_ok


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
    free, lo, hi, cur, tgt = _oracle_lists(g, p, _forced_arcs(g))
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
