"""Concrete instance generators: the jump-circulant family, its
subdivided variant, the directed-vertex counterexample family, and a
seeded random corpus of projective instances.

All three deterministic families use the same canonical embedding: the
specified face is a disk bounded by a Hamiltonian cycle (signs +1, ids
first), and every remaining edge is a chord passing through a crosscap
outside that disk (sign -1).  Rotations come from a geometric layout:
vertices sit on the unit circle, each chord exits toward the rim of a
radius-2 disk with antipodal identification, entering at the angle that
mirrors its endpoints, and the darts at a vertex are sorted by heading.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING

from .cuts import check_class
from .embedding import (
    EmbeddedGraph,
    _orbit_anchor,
    _walk_from,
    euler_characteristic,
    specified_walk,
)
from .orient import DirectedVertexSpec, _draw_prescription

if TYPE_CHECKING:
    import numpy as np


class FamilyError(Exception):
    """Generator parameter out of range, or generation failed."""


@dataclass(frozen=True)
class FamilySpec:
    """Which circulant family ``detect_family`` recognised an instance as,
    and its index (odd >= 5)."""

    kind: str  # "B" | "A"
    parameter: int


def _circdist(a: float, b: float) -> float:
    d = (a - b) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


def _heading(p, q) -> float:
    return math.atan2(q[1] - p[1], q[0] - p[0])


def disk_crosscap_graph(cycle: list[int], chords: list[tuple[int, int]]) -> EmbeddedGraph:
    """Embed a Hamiltonian cycle as a disk boundary with every chord
    routed through one crosscap.  Boundary edges get ids 0..len(cycle)-1
    in cycle order and sign +1; chords follow in list order with sign -1.
    The specified face is the disk side of the cycle."""
    m = len(cycle)
    if m < 3 or len(set(cycle)) != m:
        raise FamilyError("cycle must list at least three distinct vertices")
    phi = {v: 2 * math.pi * j / m for j, v in enumerate(cycle)}
    pos = {v: (math.cos(a), math.sin(a)) for v, a in phi.items()}
    g = EmbeddedGraph()
    for v in cycle:
        g.rotation[v] = []
    headings: dict[int, list[tuple[float, int, int]]] = {v: [] for v in cycle}
    for j in range(m):
        u, v = cycle[j], cycle[(j + 1) % m]
        g.edges[j] = (u, v)
        g.sign[j] = 1
        headings[u].append((_heading(pos[u], pos[v]), j, 0))
        headings[v].append((_heading(pos[v], pos[u]), j, 1))
    for k, (a, b) in enumerate(chords):
        if a not in phi or b not in phi or a == b:
            raise FamilyError(f"chord {(a, b)} is not a vertex pair on the cycle")
        e = m + k
        g.edges[e] = (a, b)
        g.sign[e] = -1
        beta = ((phi[a] + phi[b] - math.pi) / 2) % math.pi
        for vert, end in ((a, 0), (b, 1)):
            exit_angle = beta if _circdist(beta, phi[vert]) <= _circdist(
                beta + math.pi, phi[vert]
            ) else beta + math.pi
            rim = (2 * math.cos(exit_angle), 2 * math.sin(exit_angle))
            headings[vert].append((_heading(pos[vert], rim), e, end))
    for v in cycle:
        headings[v].sort()
        g.rotation[v] = [(e, end) for _, e, end in headings[v]]
    # a face walking the cycle once uses boundary edge 0 (ids below m are the
    # boundary edges) on one of its sides
    sides = (_walk_from(g, ((0, 0), s)) for s in (1, -1))
    disk = [o for o in sides if len(o) == m and all(d[0] < m for d, _ in o)]
    if not disk:
        raise FamilyError("layout failed: the cycle does not bound a face")
    g.specified = [min(_orbit_anchor(g, o) for o in disk)]
    return g


def _circulant_chords(i: int, subdivided: bool) -> Iterator[tuple[int, int]]:
    """The crosscap chords of B_i, or ``subdivided`` of A_i, as pairs of
    boundary positions: each position 1..i joined to the one (i - 1) / 2
    further round, and A_i's subdivider (position 0) to its antipode.
    Yielded one at a time, so a reader that keeps none holds no pairs."""
    h = (i - 1) // 2
    for j in range(1, i + 1):
        yield (j, (j + h - 1) % i + 1)
    if subdivided:
        yield (0, (i + 1) // 2)


def _circulant(i: int, subdivided: bool) -> EmbeddedGraph:
    """B_i, the circulant on vertices 1..i with unit jumps (the disk
    boundary) and half-way jumps (the crosscap chords); or, ``subdivided``,
    A_i: B_i with vertex 0 on the boundary edge from i to 1 and a chord
    from 0 to its antipode.  Each vertex id is its boundary position."""
    if i < 5 or i % 2 == 0:
        raise FamilyError(f"family index must be odd and >= 5, got {i}")
    cycle = list(range(1, i + 1)) + ([0] if subdivided else [])
    g = disk_crosscap_graph(cycle, list(_circulant_chords(i, subdivided)))
    if euler_characteristic(g) != 1:
        raise FamilyError(f"{'A' if subdivided else 'B'}_{i} layout is not projective")
    return g


def gen_circulant_b(i: int) -> EmbeddedGraph:
    """Circulant on vertices 1..i with unit jumps (the disk boundary) and
    half-way jumps (the crosscap chords); 4-regular, 2i edges."""
    return _circulant(i, subdivided=False)


def gen_a(i: int) -> EmbeddedGraph:
    """The circulant with one boundary edge subdivided by a new vertex 0,
    which also gains a crosscap chord to the antipodal vertex; vertex 0 is
    the protected degree-3 vertex."""
    g = _circulant(i, subdivided=True)
    g.tvertex = 0
    return g


def circulant_schedule(
    g: EmbeddedGraph,
    i: int,
    with_subdivision: bool,
    posmap: dict[int, int] | None = None,
) -> tuple[list[tuple[int, int, int]], list[int]]:
    """Greedy schedule that solves the circulant families for every
    prescription: lift the boundary edge at position 1 together with
    position 1's backward chord, then sweep position 1, (the subdivider,)
    position i, the antipode, and zig-zag pairs down to position 2.  The
    forward antipode neighbour is never swept; its residue is forced by
    the handshake and caught by the final validation.

    ``posmap`` maps boundary positions (0 = subdivider) to vertex ids for
    graphs that are a relabelling of the standard construction."""
    if posmap is None:
        posmap = {j: j for j in range(i + 1)}
    lo = g.edges_between(posmap[1], posmap[2])
    hidden = g.edges_between(posmap[1], posmap[(i + 3) // 2])
    if len(lo) != 1 or len(hidden) != 1:
        raise FamilyError("graph does not carry the expected lift edges")
    lifts = [(lo[0], hidden[0], posmap[1])]
    positions = [1]
    if with_subdivision:
        positions.append(0)
    positions += [i, (i + 1) // 2]
    for m in range((i - 7) // 2 + 1):
        positions += [(i - 1) // 2 - m, i - 1 - m]
    positions.append(2)
    return lifts, [posmap[j] for j in positions]


def detect_family(g: EmbeddedGraph) -> tuple[FamilySpec, dict[int, int]] | None:
    """Recognize B_i and A_i whatever the vertex ids.  Returns the family
    and a position map (boundary position -> vertex id, position 0 for
    the subdivider) usable with circulant_schedule, or None.

    The graph must have |V| >= 5 and 2|V| edges, checked before the
    specified face is walked, and that face must pass every vertex once;
    its one walk numbers them by boundary position, from A_i's degree-3
    vertex (the protected vertex, if the graph names one).  Then the graph
    is B_i or A_i exactly when the edges off the walk are
    ``_circulant_chords``: the walk's |V| edges are distinct, so the
    chords are as many as the edges left, and set equality is exact.  The
    chord pattern is invariant under rotation and reflection of the
    boundary, so any start and direction of the walk will do.
    """
    if g.dvertex is not None or g.darcs or len(g.specified) != 1:
        return None
    nv = len(g.rotation)
    if nv < 5 or len(g.edges) != 2 * nv:
        return None
    walk = specified_walk(g)
    ring = walk.tails
    if len(ring) != nv or len(set(ring)) != nv:
        return None
    subdivided = nv % 2 == 0
    i = nv - 1 if subdivided else nv
    if subdivided:
        v0 = g.tvertex
        if v0 is None:  # any other start fails the chord check
            v0 = next((v for v in ring if g.degree(v) == 3), ring[0])
        k = ring.index(v0)
        ring = ring[k:] + ring[:k]
    posmap = dict(enumerate(ring, start=0 if subdivided else 1))
    pos = {v: j for j, v in posmap.items()}

    def code(a: int, b: int) -> int:  # one int per position pair; positions run 0..i
        return a * (i + 1) + b if a < b else b * (i + 1) + a

    on_walk = walk.edge_ids()
    chords = {code(pos[a], pos[b]) for e, (a, b) in g.edges.items() if e not in on_walk}
    if chords != {code(a, b) for a, b in _circulant_chords(i, subdivided)}:
        return None
    return FamilySpec("A" if subdivided else "B", i), posmap


def gen_counterexample(
    k: int,
) -> tuple[EmbeddedGraph, dict[int, int], DirectedVertexSpec]:
    """The directed-vertex family with no valid orientation.

    Two boundary paths of length n+1 = 3k+6 join the degree-3 vertex t
    (id 0) to the degree-5 vertex w (id n+1); the ladder chords, the t-w
    chord and the w-v1 chord all pass the crosscap.  Vertex ids: t=0,
    u_i=i, w=n+1, v_j=n+1+j; the directed vertex is v_{n-1}=2n with all
    four edges forced outward.
    """
    if k < 0:
        raise FamilyError(f"counterexample scale must be >= 0, got {k}")
    n = 3 * k + 5
    t, w = 0, n + 1

    def vid(j: int) -> int:
        # path-position convention: index n+1 is w; the cycle names t itself
        if j == n + 1:
            return w
        return n + 1 + j

    cycle = [t] + list(range(1, n + 1)) + [w] + [vid(j) for j in range(n, 0, -1)]
    chords = [(t, w)]
    chords += [(i, vid(n - i + 1)) for i in range(1, n + 1)]
    chords += [(i, vid(n - i + 2)) for i in range(1, n + 1)]
    chords.append((w, vid(1)))
    g = disk_crosscap_graph(cycle, chords)
    g.tvertex = t
    d = vid(n - 1)
    g.dvertex = d
    g.darcs = {e: "out" for e in g.incident(d)}
    p = {v: 1 for v in g.rotation}
    p[t] = 0
    p[w] = 0
    p[1] = -1
    p[d] = -1
    if euler_characteristic(g) != 1:
        raise FamilyError(f"counterexample layout is not projective (k={k})")
    if sum(p.values()) % 3 != 0:
        raise FamilyError("counterexample prescription does not close")
    return g, p, DirectedVertexSpec(vertex=d, arcs=dict(g.darcs))


# -------------------------------------------------------- random corpus


# gen_random_pt draws at most this many candidates before it gives up.
_RANDOM_PT_ATTEMPTS = 4000


def _check_random_pt_args(seed: int, max_vertices: int) -> None:
    """Raise FamilyError unless gen_random_pt can draw from these: n is
    drawn from 5..max_vertices."""
    if seed < 0:
        raise FamilyError(f"corpus seed must be >= 0, got {seed}")
    if not 5 <= max_vertices <= 12:
        raise FamilyError("corpus generator supports 5..12 vertices")


def _float64_sum(w: list[float]) -> float:
    """``float(np.add.reduce(w))``, added in numpy's pairwise order: one
    running sum below 8 terms, 8 interleaved accumulators up to 128, and
    above that the halves split at ``n // 2`` rounded down to a multiple of 8."""
    n = len(w)
    if n < 8:
        total = 0.0
        for x in w:
            total += x
        return total
    if n <= 128:
        r = w[:8]
        tail = n - n % 8
        for i in range(8, tail, 8):
            for j in range(8):
                r[j] += w[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in w[tail:]:
            total += x
        return total
    half = n // 2 - n // 2 % 8
    return _float64_sum(w[:half]) + _float64_sum(w[half:])


def _choice(rng: np.random.Generator, weights: list[float]) -> int:
    """``rng.choice(len(weights), p=w / w.sum())`` for ``w`` the weights as
    a float64 array, with numpy's rounding: the cdf is the running sum of
    ``w_i / total`` divided by its last entry, searched on the right for
    one ``random()`` double, the only draw numpy's ``choice`` makes."""
    total = _float64_sum(weights)
    cdf = list(accumulate([w / total for w in weights]))
    last = cdf[-1]
    return bisect_right([c / last for c in cdf], rng.random())


def _random_pt_candidates(rng: np.random.Generator, max_vertices: int) -> Iterator[tuple]:
    """Up to ``_RANDOM_PT_ATTEMPTS`` candidates ``(cycle, want, chords, antipodal)``:
    a shuffled boundary cycle, the degrees (4 mostly, a few 5s, at most one 3),
    chords pairing ``want[v] - 2`` stubs per vertex by a draw biased toward far
    partners (weight ``(min(d, n - d) / n) ** 6`` at cycle distance d), and
    whether those chords, as unordered pairs, join stub j to stub j + half
    along the cycle.  Lazy, so draws between candidates keep their order."""
    for _ in range(_RANDOM_PT_ATTEMPTS):
        n = int(rng.integers(5, max_vertices + 1))
        cycle = [int(v) for v in rng.permutation(n)]
        want = [4 if rng.random() < 0.8 else 5 for _ in range(n)]
        if rng.random() < 0.5:
            want[int(rng.integers(n))] = 3
        stubs = [want[v] - 2 for v in range(n)]
        if sum(stubs) % 2:
            j = int(rng.integers(n))
            stubs[j] += 1 if want[j] < 5 else -1
            want[j] = stubs[j] + 2
        pos = {v: k for k, v in enumerate(cycle)}
        far = [(min(d, n - d) / n) ** 6 for d in range(n)]
        chords: list[tuple[int, int]] = []
        live = [v for v in range(n) if stubs[v] > 0]
        while live:
            u = live[int(rng.integers(len(live)))]
            cand = [v for v in live if v != u]
            if not cand:  # stranded stubs: the chords cannot be antipodal
                break
            v = cand[_choice(rng, [far[abs(pos[u] - pos[x])] for x in cand])]
            chords.append((u, v))
            stubs[u] -= 1
            stubs[v] -= 1
            live = [x for x in live if stubs[x] > 0]
        ends = [v for v in cycle for _ in range(want[v] - 2)]
        pairs = sorted(map(sorted, zip(ends, ends[len(ends) // 2 :])))
        yield cycle, want, chords, sorted(map(sorted, chords)) == pairs


def gen_random_pt(seed: int, max_vertices: int) -> tuple[EmbeddedGraph, dict[int, int]]:
    """Seeded random projective instance passing the one-face class check,
    with a prescription drawn uniformly among valid ones.

    The biased pairing of ``_random_pt_candidates`` is only a proposal: the
    one pairing kept is the exact antipodal one, which threads every chord
    through the same crosscap.  It is recognised from the chord list, so only
    a kept candidate is laid out, and its surface is counted once, by
    ``check_class``.
    """
    _check_random_pt_args(seed, max_vertices)
    import numpy as np  # loaded only where a seeded draw needs it

    rng = np.random.default_rng(seed)
    for cycle, want, chords, antipodal in _random_pt_candidates(rng, max_vertices):
        if not antipodal:
            continue
        g = disk_crosscap_graph(cycle, chords)
        g.tvertex = next((v for v, w in enumerate(want) if w == 3), None)
        p = _draw_prescription(rng, list(range(len(cycle))))
        if check_class(g, p, "pt").holds:
            return g, p
    raise FamilyError(
        f"no instance passed the class filter in {_RANDOM_PT_ATTEMPTS} attempts "
        f"(seed {seed})"
    )
