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
from dataclasses import dataclass

import numpy as np

from .cuts import check_class
from .embedding import (
    EmbeddedGraph,
    _face_through,
    _state_key,
    canonical_anchor,
    euler_characteristic,
)
from .orient import DirectedVertexSpec


class FamilyError(Exception):
    """Generator parameter out of range, or generation failed."""


@dataclass(frozen=True)
class FamilySpec:
    """Which family an instance belongs to.  parameter is the family index
    (odd >= 5), the counterexample scale k, or the corpus seed."""

    kind: str  # "B" | "A" | "CE" | "randomPT"
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
    # a face walking the cycle once uses boundary edge 0 on one of its sides
    boundary_ids = set(range(m))
    sides = (_face_through(g, ((0, 0), s)) for s in (1, -1))
    disk = [f for f in sides if f.length == m and f.edge_ids() <= boundary_ids]
    if not disk:
        raise FamilyError("layout failed: the cycle does not bound a face")
    g.specified = [canonical_anchor(g, min(disk, key=lambda f: _state_key(f.states[0])))]
    return g


def _require_odd(i: int) -> None:
    if i < 5 or i % 2 == 0:
        raise FamilyError(f"family index must be odd and >= 5, got {i}")


def _wrap(x: int, i: int) -> int:
    return ((x - 1) % i) + 1


def gen_circulant_b(i: int) -> EmbeddedGraph:
    """Circulant on vertices 1..i with unit jumps (the disk boundary) and
    half-way jumps (the crosscap chords); 4-regular, 2i edges."""
    _require_odd(i)
    h = (i - 1) // 2
    cycle = list(range(1, i + 1))
    chords = [(j, _wrap(j + h, i)) for j in range(1, i + 1)]
    g = disk_crosscap_graph(cycle, chords)
    g.labels = {j: f"v{j}" for j in cycle}
    if euler_characteristic(g) != 1:
        raise FamilyError(f"B_{i} layout is not projective")
    return g


def gen_a(i: int) -> EmbeddedGraph:
    """The circulant with one boundary edge subdivided by a new vertex 0,
    which also gains a crosscap chord to the antipodal vertex; vertex 0 is
    the protected degree-3 vertex."""
    _require_odd(i)
    h = (i - 1) // 2
    cycle = list(range(1, i + 1)) + [0]
    chords = [(j, _wrap(j + h, i)) for j in range(1, i + 1)]
    chords.append((0, (i + 1) // 2))
    g = disk_crosscap_graph(cycle, chords)
    g.tvertex = 0
    g.labels = {j: f"v{j}" for j in range(i + 1)}
    if euler_characteristic(g) != 1:
        raise FamilyError(f"A_{i} layout is not projective")
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
        # path-position convention: index 0 is t, index n+1 is w
        if j == 0:
            return t
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
    g.labels = {t: "t", w: "w"}
    g.labels.update({i: f"u{i}" for i in range(1, n + 1)})
    g.labels.update({vid(j): f"v{j}" for j in range(1, n + 1)})
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


def gen_random_pt(seed: int, max_vertices: int) -> tuple[EmbeddedGraph, dict[int, int]]:
    """Seeded random projective instance passing the one-face class check,
    with a prescription drawn uniformly among valid ones.

    Strategy: put all vertices on a shuffled boundary cycle, then attach
    chord stubs (degree 4 mostly, a few 5s, at most one 3) and pair them
    up biased toward near-antipodal partners, which is what lets every
    chord thread the same crosscap.  Uniform rotation systems are useless
    here: their face count concentrates around log E, so demanding a
    one-crosscap characteristic by filtering alone essentially never hits.
    """
    if not 4 <= max_vertices <= 12:
        raise FamilyError("corpus generator supports 4..12 vertices")
    rng = np.random.default_rng(seed)
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
        if sum(1 for w in want if w == 3) > 1:
            continue
        pos = {v: k for k, v in enumerate(cycle)}
        chords: list[tuple[int, int]] = []
        live = [v for v in range(n) if stubs[v] > 0]
        stuck = False
        while live:
            u = live[int(rng.integers(len(live)))]
            cand = [v for v in live if v != u]
            if not cand:
                stuck = True
                break
            weights = np.empty(len(cand))
            for k, v in enumerate(cand):
                d = abs(pos[u] - pos[v]) % n
                weights[k] = (min(d, n - d) / n) ** 6
            weights /= weights.sum()
            v = cand[int(rng.choice(len(cand), p=weights))]
            chords.append((u, v))
            stubs[u] -= 1
            stubs[v] -= 1
            live = [x for x in live if stubs[x] > 0]
        if stuck:
            continue
        try:
            g = disk_crosscap_graph(cycle, chords)
        except FamilyError:
            continue
        if euler_characteristic(g) != 1:
            continue
        deg3 = [v for v in range(n) if want[v] == 3]
        if deg3:
            g.tvertex = deg3[0]
        p: dict[int, int] = {}
        for v in range(n - 1):
            p[v] = int(rng.integers(-1, 2))
        last = (-sum(p.values())) % 3
        p[n - 1] = last - 3 if last == 2 else last
        if check_class(g, p, "pt").holds:
            return g, p
    raise FamilyError(
        f"no instance passed the class filter in {_RANDOM_PT_ATTEMPTS} attempts "
        f"(seed {seed})"
    )
