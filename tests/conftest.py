"""Shared instance builders.

Everything here is deterministic given its arguments; random builders
take an explicit numpy seed.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from crossflow.embedding import EmbeddedGraph, canonical_anchor, trace_faces


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


def _count_calls(monkeypatch, fn) -> list[int]:
    """Count calls of ``fn``, wherever crossflow binds it (by identity, as
    solvebench's spans patch their targets)."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "crossflow":
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(0)
