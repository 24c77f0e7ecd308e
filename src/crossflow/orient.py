"""Prescriptions, orientations mod 3, the oracle (a frontier DP that
decides, and reads the witness by self-reduction), and the greedy
direct-and-delete engine.

A prescription assigns every vertex a residue in {-1, 0, +1}; its total
must vanish mod 3 (reversing the handshake argument, no orientation can
meet it otherwise).  An orientation directs edges; it is valid when at
every vertex indegree minus outdegree is congruent to the prescribed
residue mod 3, and when it extends the forced arcs at the directed
vertex if the graph carries one.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .embedding import EmbeddedGraph


class OrientationError(Exception):
    """Bad orientation/prescription input."""


class OracleBoundError(OrientationError):
    """A frontier DP run passed its state budget."""


class ScheduleError(OrientationError):
    """Greedy schedule failed.  ``vertex`` names the blocking vertex when
    the failure is local, else None."""

    def __init__(self, message: str, vertex: int | None = None):
        self.vertex = vertex
        super().__init__(message)


@dataclass(frozen=True)
class DirectedVertexSpec:
    """Forced arcs at one vertex: edge id -> "in" | "out"."""

    vertex: int
    arcs: dict[int, str]

    def residue(self) -> int:
        r = sum(1 if w == "in" else -1 for w in self.arcs.values()) % 3
        return r - 3 if r == 2 else r


@dataclass
class Orientation:
    """Edge directions, possibly partial.

    direction maps edge id -> (tail, head).  ``fixed`` records the edges
    whose direction came in as input rather than being chosen: the
    directed vertex's arcs, or the cut edges a transfer carried over.  It
    is a record only; no operation reads it.
    """

    direction: dict[int, tuple[int, int]] = field(default_factory=dict)
    fixed: frozenset[int] = frozenset()

    def tails(self) -> dict[int, int]:
        return {e: th[0] for e, th in self.direction.items()}

    def is_total_for(self, g: EmbeddedGraph) -> bool:
        return set(self.direction) == set(g.edges)


def orientation_from_tails(g: EmbeddedGraph, tails: dict[int, int]) -> Orientation:
    direction = {}
    for e, t in tails.items():
        if e not in g.edges:
            raise OrientationError(f"unknown edge {e}")
        u, v = g.edges[e]
        if t == u:
            direction[e] = (u, v)
        elif t == v:
            direction[e] = (v, u)
        else:
            raise OrientationError(f"vertex {t} is not an endpoint of edge {e}")
    return Orientation(direction=direction)


# ----------------------------------------------------------- prescriptions


def prescription_ok(g: EmbeddedGraph, p: dict[int, int]) -> bool:
    """Covers every vertex with a residue in {-1,0,1}, total 0 mod 3."""
    if set(p) != set(g.rotation):
        return False
    if any(r not in (-1, 0, 1) for r in p.values()):
        return False
    return sum(p.values()) % 3 == 0


def random_prescription(g: EmbeddedGraph, seed: int) -> dict[int, int]:
    """Uniform over valid prescriptions: free residues on all vertices but
    the last, which is forced to close the total."""
    rng = np.random.default_rng(seed)
    verts = g.vertices
    if not verts:
        return {}
    p: dict[int, int] = {}
    for v in verts[:-1]:
        p[v] = int(rng.integers(-1, 2))
    last = (-sum(p.values())) % 3
    p[verts[-1]] = last - 3 if last == 2 else last
    return p


def residue(g: EmbeddedGraph, o: Orientation, v: int) -> int:
    """Indegree minus outdegree at v, reduced to {-1, 0, +1}.  Loops
    contribute nothing.  Every non-loop edge at v must be directed."""
    if v not in g.rotation:
        raise OrientationError(f"unknown vertex {v}")
    r = 0
    for d in g.rotation[v]:
        e = d[0]
        if g.is_loop(e):
            continue
        if e not in o.direction:
            raise OrientationError(f"edge {e} at vertex {v} is undirected")
        r += 1 if o.direction[e][1] == v else -1
    r %= 3
    return r - 3 if r == 2 else r


def is_valid_orientation(g: EmbeddedGraph, p: dict[int, int], o: Orientation) -> bool:
    """Total orientation meeting p everywhere and extending the graph's
    forced arcs."""
    if not o.is_total_for(g):
        raise OrientationError("orientation is not total")
    if not prescription_ok(g, p):
        raise OrientationError("prescription is malformed")
    balance = {v: -r for v, r in p.items()}  # in minus out, less p
    for e, (t, h) in o.direction.items():
        if g.edges[e] != (t, h) and g.edges[e] != (h, t):
            raise OrientationError(f"edge {e} directed between non-endpoints")
        balance[t] -= 1  # a loop adds -1 and +1 at its vertex
        balance[h] += 1
    if any(b % 3 for b in balance.values()):
        return False
    for e, way in g.darcs.items():
        t = o.direction[e][0]
        if way == "out" and t != g.dvertex:
            return False
        if way == "in" and t == g.dvertex:
            return False
    return True


# ----------------------------------------------------------------- oracle


def _forced_arcs(g: EmbeddedGraph) -> dict[int, tuple[int, int]]:
    """The directed vertex's arcs as (tail, head) by edge id."""
    arcs = {}
    for e, way in g.darcs.items():
        u, v = g.edges[e]
        other = v if u == g.dvertex else u
        arcs[e] = (g.dvertex, other) if way == "out" else (other, g.dvertex)
    return arcs


# One frontier DP run refuses once it has created more states than this, over
# all its steps.  No step starts from more, and a step at most doubles its
# set, so this bounds the DP's time and memory.
_FRONTIER_STATE_BUDGET = 1 << 18


def _oracle_lists(g, p, directed):
    """The oracle's instance over vertex indices: the free edge ids, their
    lower and higher endpoints, the in-minus-out sum of the directed edges
    at each vertex, its count of free edges, and its target residue.
    Loops are left out: either way round, a loop adds nothing to a
    residue."""
    verts = g.vertices
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    cur = [0] * n
    und = [0] * n
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
            und[a] += 1
            und[b] += 1
    return free, lo, hi, cur, und, tgt


@functools.lru_cache(maxsize=4096)
def _edge_moves(sa: int, sb: int, ra: int, rb: int) -> dict[int, tuple[int, ...]]:
    """What one edge does to a state, keyed by the state's bits in the
    edge's two slots (at bit offsets sa and sb): the deltas to add.  Tail
    at a steps a's residue by -1 and b's by +1 mod 3; tail at b the
    reverse.  ra (rb) is a's (b's) need when this edge is its last, else
    -1: then only a move landing on it survives, and clears the slot.
    """
    table = {}
    for xa in range(3):
        for xb in range(3):
            moves = []
            for ya, yb in (((xa + 2) % 3, (xb + 1) % 3), ((xa + 1) % 3, (xb + 2) % 3)):
                if ra >= 0:
                    if ya != ra:
                        continue
                    ya = 0
                if rb >= 0:
                    if yb != rb:
                        continue
                    yb = 0
                moves.append(((ya - xa) << sa) + ((yb - xb) << sb))
            table[xa << sa | xb << sb] = tuple(moves)
    return table


def _search_rank(n: int, lo: list[int], hi: list[int]) -> list[int]:
    """Each vertex's place in a maximum-cardinality search over the edges
    lo[j]-hi[j], started at a vertex of least degree, ties to the lower
    index; -1 for a vertex without edges."""
    inc: list[list[int]] = [[] for _ in range(n)]
    for j, (a, b) in enumerate(zip(lo, hi)):
        inc[a].append(j)
        inc[b].append(j)
    live = [v for v in range(n) if inc[v]]
    weight = [0] * n  # edges to visited vertices
    rank = [-1] * n
    if live:
        weight[min(live, key=lambda v: (len(inc[v]), v))] = 1
    heap = [(-weight[v], v) for v in live]
    heapq.heapify(heap)
    visited = 0
    while heap:
        w, v = heapq.heappop(heap)
        if rank[v] >= 0 or -w != weight[v]:
            continue  # visited, or an entry its weight has outgrown
        rank[v] = visited
        visited += 1
        for j in inc[v]:
            u = lo[j] + hi[j] - v
            if rank[u] < 0:
                weight[u] += 1
                heapq.heappush(heap, (-weight[u], u))
    return rank


def _frontier_orientable(lo: list[int], hi: list[int], need: list[int], rank: list[int]) -> bool:
    """Whether the free edges lo[j]-hi[j] can be directed so that every
    vertex's in-minus-out sum over them is need[v] mod 3.

    Frontier-based search.  Vertices are visited in the order of ``rank``,
    which must rank every vertex with an edge; each edge is taken when its
    later endpoint is visited, those to earlier vertices first.  A state
    packs, 2 bits per slot, the residue so far of each open vertex (one
    with edges on both sides of the sweep).  A vertex takes a slot at its
    first edge and gives it back at its last, where it must sit on its
    need.  Raises OracleBoundError once more than
    ``_FRONTIER_STATE_BUDGET`` states have been created.
    """
    n = len(need)
    left = [0] * n  # edges not yet taken
    for a, b in zip(lo, hi):
        left[a] += 1
        left[b] += 1
    if any(need[v] and not left[v] for v in range(n)):
        return False
    slot = [-1] * n
    spare: list[int] = []
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
        # a vertex taking its last edge lands on its need and frees its slot
        ra = -1 if left[a] else need[a]
        rb = -1 if left[b] else need[b]
        for x in (a, b):
            if not left[x]:
                spare.append(slot[x])
        mask = 3 << sa | 3 << sb
        moves = _edge_moves(sa, sb, ra, rb)
        states = {s + d for s in states for d in moves[s & mask]}
        if not states:
            return False
        created += len(states)
        if created > _FRONTIER_STATE_BUDGET:
            raise OracleBoundError(
                f"the frontier DP passed its budget of {_FRONTIER_STATE_BUDGET} "
                f"states at frontier width {width} ({len(lo)} free edges)"
            )
    return True


def oracle_solve(g: EmbeddedGraph, p: dict[int, int]) -> Orientation | None:
    """Decide whether a valid total orientation extends the graph's forced
    arcs, and return the first one.

    A frontier DP over the undirected edges decides: when it finds none,
    the answer is None.  For an orientable instance the witness is read by
    self-reduction with the same DP: the undirected edges are taken in id
    order, and each gets its tail at the lower endpoint when the DP still
    finds the remaining edges orientable, else the reverse.  That is the
    first valid orientation in lexicographic order, with tail-at-lower
    first.  Every run visits the vertices in the decision run's order, so a
    read run's states at each edge project the decision run's: a run past
    ``_FRONTIER_STATE_BUDGET`` states raises OracleBoundError, but never a
    read run of an instance whose decision fits.  A loop adds
    nothing to a residue, so loops stay out of the DP, and each undirected
    loop is directed at its vertex, ``(u, u)``.  The result's ``fixed``
    names the forced arcs.
    """
    if not prescription_ok(g, p):
        return None
    directed = _forced_arcs(g)
    free, lo, hi, cur, _, tgt = _oracle_lists(g, p, directed)
    need = [(t - c) % 3 for t, c in zip(tgt, cur)]
    rank = _search_rank(len(need), lo, hi)
    if not _frontier_orientable(lo, hi, need, rank):
        return None
    direction = dict(directed)
    for j, e in enumerate(free):
        a, b = lo[j], hi[j]
        u, v = min(g.edges[e]), max(g.edges[e])
        # tail at a leaves a one more to take in, and b one less
        need[a] = (need[a] + 1) % 3
        need[b] = (need[b] - 1) % 3
        if _frontier_orientable(lo[j + 1 :], hi[j + 1 :], need, rank):
            direction[e] = (u, v)
        else:
            need[a] = (need[a] - 2) % 3
            need[b] = (need[b] + 2) % 3
            direction[e] = (v, u)
    for e, (u, v) in g.edges.items():
        if u == v:
            direction.setdefault(e, (u, u))
    o = Orientation(direction=direction, fixed=frozenset(g.darcs))
    if not is_valid_orientation(g, p, o):
        raise OrientationError("the oracle read an invalid orientation")
    return o


# count_valid's backtracking search is exponential; it refuses graphs with
# more edges than this.
_COUNT_EDGE_BOUND = 24


def count_valid(g: EmbeddedGraph, p: dict[int, int]) -> int:
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
    free, lo, hi, cur, und, tgt = _oracle_lists(g, p, _forced_arcs(g))
    return int(_kernels.orient_search(lo, hi, cur, und, tgt, 1, np.zeros(0, np.int8)))


# --------------------------------------------------- greedy direct-and-delete


def _digest_line(e: int, uv: tuple[int, int]) -> str:
    return f"{e} {uv[0]} {uv[1]}"


def _digest_of_lines(lines) -> str:
    """Digest of edge lines already in ascending edge-id order."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _abstract_digest(edges: dict[int, tuple[int, int]]) -> str:
    return _digest_of_lines(_digest_line(e, uv) for e, uv in sorted(edges.items()))


def greedy_direct_and_delete(
    g: EmbeddedGraph,
    p: dict[int, int],
    lifts: list[tuple[int, int, int]],
    order: list[int],
) -> tuple[Orientation, list[tuple[str, tuple[int, ...], str]]]:
    """Run a lift-then-sweep schedule; return a validated orientation and
    the steps taken.

    ``lifts`` lists (edge1, edge2, shared vertex) to lift first; ``order``
    lists vertices to process: each in turn directs all its remaining
    undirected edges so its residue lands on p, lowest edge ids inward,
    and drops out.  Edges forced along the way (a vertex keeping a single
    undirected edge gets it by its neighbour's turn) are inherited.  The
    result is pulled back through the lifts and fully validated; any
    residue the sweep cannot meet raises ScheduleError naming the vertex.

    The steps are (kind, args, digest) triples, one per lift
    ("LiftPair", (edge1, edge2, vertex)) and one per swept vertex
    ("OrientDeleteVertex", (vertex,)), each with the digest of the working
    multigraph after it: the solver's trace steps.

    The sweep is O(|E| log Δ); each step also hashes the remaining edge
    list for its digest.
    """
    if not prescription_ok(g, p):
        raise OrientationError("prescription is malformed")
    if g.darcs:
        raise ScheduleError("greedy schedules do not handle forced arcs")
    edges = dict(g.edges)
    # digest lines stay in ascending id order: seeded sorted, and lifted ids
    # from next_edge_id() exceed every existing id
    lines = {e: _digest_line(e, edges[e]) for e in sorted(edges)}
    steps: list[tuple[str, tuple[int, ...], str]] = []
    inc: dict[int, set[int]] = {v: set() for v in g.rotation}
    for e, (a, b) in edges.items():
        inc[a].add(e)
        inc[b].add(e)
    ep = dict(g.edges)
    lifted: list[tuple[int, int, int, int, int, int]] = []
    next_id = g.next_edge_id()
    for e1, e2, v in lifts:
        for e in (e1, e2):
            if e not in edges:
                raise ScheduleError(f"lift names missing edge {e}")
        a, b = edges[e1]
        u = b if a == v else a if b == v else None
        a, b = edges[e2]
        w = b if a == v else a if b == v else None
        if u is None or w is None:
            raise ScheduleError(f"edges {e1},{e2} do not meet at {v}")
        if u == w:
            raise ScheduleError("lift would create a loop")
        for e in (e1, e2):
            for x in edges.pop(e):
                inc[x].discard(e)
        edges[next_id] = (u, w)
        ep[next_id] = (u, w)
        inc[u].add(next_id)
        inc[w].add(next_id)
        lifted.append((next_id, e1, e2, u, v, w))
        del lines[e1]
        del lines[e2]
        lines[next_id] = _digest_line(next_id, (u, w))
        steps.append(("LiftPair", (e1, e2, v), _digest_of_lines(lines.values())))
        next_id += 1

    direction: dict[int, tuple[int, int]] = {}
    cur: dict[int, int] = {v: 0 for v in g.rotation}
    for v in order:
        if v not in cur:
            raise ScheduleError(f"schedule names missing vertex {v}", vertex=v)
        mine = sorted(inc[v])
        inc[v].clear()
        k = len(mine)
        need = (2 * (p[v] - cur[v] + k)) % 3
        if need > k:
            raise ScheduleError(
                f"vertex {v} cannot reach its residue with {k} undirected edges",
                vertex=v,
            )
        for idx, e in enumerate(mine):
            del lines[e]
            a, b = edges.pop(e)
            other = b if a == v else a
            inc[other].discard(e)
            if idx < need:
                direction[e] = (other, v)
                cur[other] -= 1
            else:
                direction[e] = (v, other)
                cur[other] += 1
        steps.append(("OrientDeleteVertex", (v,), _digest_of_lines(lines.values())))

    if edges:
        raise ScheduleError(f"{len(edges)} edges left undirected by the schedule")
    for new, e1, e2, u, v, w in reversed(lifted):
        t, h = direction.pop(new)
        if t == u:
            direction[e1] = _toward(ep[e1], src=u)
            direction[e2] = _toward(ep[e2], src=v)
        else:
            direction[e2] = _toward(ep[e2], src=w)
            direction[e1] = _toward(ep[e1], src=v)
    o = Orientation(direction=direction)
    if not is_valid_orientation(g, p, o):
        raise ScheduleError("schedule completed but the result does not validate")
    return o, steps


def _toward(endpoints: tuple[int, int], src: int) -> tuple[int, int]:
    u, v = endpoints
    return (u, v) if u == src else (v, u)


# ------------------------------------------------------------- transfer


def transfer_orientation(
    g: EmbeddedGraph,
    side,
    solved: Orientation,
    merged: int,
) -> Orientation:
    """Map a valid orientation of the side-contracted graph back onto g.

    Every surviving edge keeps its id across contraction, so each gets the
    solved direction with ``merged`` replaced by its own endpoint inside
    ``side``; edges interior to the side stay undirected.
    """
    side = set(side)
    direction: dict[int, tuple[int, int]] = {}
    for e, (t, h) in solved.direction.items():
        if e not in g.edges:
            continue
        u, v = g.edges[e]
        if u in side and v in side:
            continue
        if t == merged:
            t = u if u in side else v
            hh = v if t == u else u
            direction[e] = (t, hh)
        elif h == merged:
            hh = u if u in side else v
            tt = v if hh == u else u
            direction[e] = (tt, hh)
        else:
            direction[e] = (t, h)
    return Orientation(direction=direction, fixed=frozenset(direction))
