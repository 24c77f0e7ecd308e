"""Prescriptions, orientations mod 3, the oracle (a frontier DP that
decides, and reads the witness back through its own states), the greedy
direct-and-delete engine, and the reduction steps it and the solver make.

A prescription assigns every vertex a residue in {-1, 0, +1}; its total
must vanish mod 3 (reversing the handshake argument, no orientation can
meet it otherwise).  An orientation directs edges; it is valid when at
every vertex indegree minus outdegree is congruent to the prescribed
residue mod 3, and when it extends the forced arcs at the directed
vertex if the graph carries one.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import heapq
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .embedding import EmbeddedGraph

if TYPE_CHECKING:
    import numpy as np


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
        return _mod3(sum(1 if w == "in" else -1 for w in self.arcs.values()))


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
        return self.direction.keys() == g.edges.keys()


def orientation_from_tails(g: EmbeddedGraph, tails: dict[int, int]) -> Orientation:
    direction = {}
    for e, t in tails.items():
        if e not in g.edges:
            raise OrientationError(f"unknown edge {e}")
        if t not in g.edges[e]:
            raise OrientationError(f"vertex {t} is not an endpoint of edge {e}")
        direction[e] = _toward(g.edges[e], t)
    return Orientation(direction=direction)


# ----------------------------------------------------------- prescriptions


def _mod3(r: int) -> int:
    """r mod 3, as -1, 0 or 1."""
    return (r + 1) % 3 - 1


def _check_prescription(g: EmbeddedGraph, p: dict[int, int]) -> bool:
    """Raise OrientationError, naming the fault, unless ``p`` gives every
    vertex of ``g``, and no other, a residue in {-1, 0, 1}; then answer
    whether its total is 0 mod 3, which no orientation can meet otherwise."""
    if p.keys() != g.rotation.keys():
        missing = g.rotation.keys() - p.keys()
        if missing:
            raise OrientationError(f"prescription misses vertex {min(missing)}")
        raise OrientationError(f"prescription names unknown vertex {min(p.keys() - g.rotation)}")
    if not set(p.values()) <= {-1, 0, 1}:
        v = min(v for v, r in p.items() if r not in (-1, 0, 1))
        raise OrientationError(f"residue must be -1, 0 or 1, got {p[v]} at vertex {v}")
    return sum(p.values()) % 3 == 0


def prescription_ok(g: EmbeddedGraph, p: dict[int, int]) -> bool:
    """Covers every vertex with a residue in {-1,0,1}, total 0 mod 3."""
    try:
        return _check_prescription(g, p)
    except OrientationError:
        return False


def random_prescription(g: EmbeddedGraph, seed: int) -> dict[int, int]:
    """Uniform over valid prescriptions: free residues on all vertices but
    the last, which is forced to close the total."""
    import numpy as np  # loaded only where a seeded draw needs it

    return _draw_prescription(np.random.default_rng(seed), g.vertices)


def _draw_prescription(rng: np.random.Generator, verts: list[int]) -> dict[int, int]:
    """One residue in {-1, 0, 1} for each of ``verts`` but the last, in
    order, from one ``integers`` call (the stream of one scalar draw per
    vertex); the last closes the total to 0 mod 3."""
    if not verts:
        return {}
    p = dict(zip(verts, rng.integers(-1, 2, size=len(verts) - 1).tolist()))
    p[verts[-1]] = _mod3(-sum(p.values()))
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
    return _mod3(r)


def is_valid_orientation(g: EmbeddedGraph, p: dict[int, int], o: Orientation) -> bool:
    """Total orientation meeting p everywhere and extending the graph's
    forced arcs.  An orientation that is not total, and a malformed
    prescription, raise OrientationError naming the fault; a total off 0
    mod 3 answers False, as some vertex then misses its residue."""
    if not o.is_total_for(g):
        undirected = g.edges.keys() - o.direction.keys()
        if undirected:
            raise OrientationError(f"edge {min(undirected)} is undirected")
        raise OrientationError(f"unknown edge {min(o.direction.keys() - g.edges.keys())}")
    _check_prescription(g, p)
    balance = {v: -r for v, r in p.items()}  # in minus out, less p
    edges = g.edges
    for e, (t, h) in o.direction.items():
        u, v = edges[e]
        if (u != t or v != h) and (u != h or v != t):
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


# One frontier DP run refuses once it has created more states than this, over
# all its steps.  No step starts from more, and a step at most doubles its
# set, so this bounds the DP's time and memory.
_FRONTIER_STATE_BUDGET = 1 << 18


def _oracle_instance(g: EmbeddedGraph, p: dict[int, int]):
    """The oracle's instance, from one pass over the edges in id order:
    the free edge ids; their lower and higher ends, as indices into
    ``g.vertices``; each vertex's need mod 3, its residue less the
    in-minus-out sum of its forced arcs; and the directions fixed before
    the search, by edge id: each forced arc as (tail, head), and each
    undirected loop at its vertex, ``(u, u)``.  Either way round a loop
    adds nothing to a residue, so loops stay out of the search.  A loop
    forced ``in`` at the directed vertex has its tail there whichever way
    it runs, so no orientation extends it: then None."""
    index = {v: i for i, v in enumerate(g.vertices)}
    need = [p[v] % 3 for v in index]
    free, lo, hi = [], [], []
    fixed = {}
    for e in sorted(g.edges):
        u, v = g.edges[e]
        way = g.darcs.get(e)
        if u == v:
            if way == "in":
                return None
            fixed[e] = (u, u)
        elif way is None:
            a, b = index[u], index[v]
            free.append(e)
            lo.append(min(a, b))
            hi.append(max(a, b))
        else:
            other = v if u == g.dvertex else u
            t, h = (g.dvertex, other) if way == "out" else (other, g.dvertex)
            fixed[e] = (t, h)
            need[index[t]] = (need[index[t]] + 1) % 3
            need[index[h]] = (need[index[h]] - 1) % 3
    return free, lo, hi, need, fixed


@functools.lru_cache(maxsize=4096)
def _edge_moves(sa: int, sb: int, ra: int, rb: int) -> dict[int, tuple[tuple[int, int], ...]]:
    """What one edge does to a state, keyed by the state's bits in the
    edge's two slots (at bit offsets sa and sb): (delta to add, which end
    is the tail, 0 for a and 1 for b) pairs.  Tail at a steps a's residue
    by -1 and b's by +1 mod 3; tail at b the reverse.  ra (rb) is a's
    (b's) need when this edge is its last, else -1: then only a move
    landing on it survives, and clears the slot.
    """
    table = {}
    for xa in range(3):
        for xb in range(3):
            moves = []
            for rev, ya, yb in ((0, (xa + 2) % 3, (xb + 1) % 3), (1, (xa + 1) % 3, (xb + 2) % 3)):
                if ra >= 0:
                    if ya != ra:
                        continue
                    ya = 0
                if rb >= 0:
                    if yb != rb:
                        continue
                    yb = 0
                moves.append((((ya - xa) << sa) + ((yb - xb) << sb), rev))
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


def _frontier_first(lo: list[int], hi: list[int], need: list[int]) -> int | None:
    """The least mask over the ways to direct the m free edges lo[j]-hi[j]
    so that each vertex's in-minus-out sum over them is need[v] mod 3, or
    None: bit m-1-j is set when edge j has its tail at hi[j], so the least
    mask is the first way in edge order, tail-at-lo first.

    Frontier-based search.  Vertices are visited in ``_search_rank``'s
    order; each edge is taken when its later endpoint is visited, those to
    earlier vertices first.  A state packs, 2 bits per slot, the residue
    so far of each open vertex (one with edges on both sides of the
    sweep).  A vertex takes a slot at its first edge and gives it back at
    its last, where it must sit on its need.  Raises OracleBoundError once
    more than ``_FRONTIER_STATE_BUDGET`` states have been created.  The
    run keeps each edge's states, and a backward pass gives each state the
    least mask of the later edges that reaches the end.  That is exact:
    which edges can follow depends on the state alone, and the bits are
    disjoint.
    """
    n, m = len(need), len(lo)
    rank = _search_rank(n, lo, hi)
    left = [0] * n  # edges not yet taken
    for a, b in zip(lo, hi):
        left[a] += 1
        left[b] += 1
    if any(need[v] and not left[v] for v in range(n)):
        return None
    slot = [-1] * n
    spare: list[int] = []
    width = 0
    states = {0}
    created = 0
    steps = []  # (states before the edge, its slot mask, its moves, its bit)
    later_first = [sorted((rank[a], rank[b]), reverse=True) for a, b in zip(lo, hi)]
    for j in sorted(range(m), key=later_first.__getitem__):
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
        steps.append((states, mask, moves, 1 << (m - 1 - j)))
        states = {s + d for s in states for d, _ in moves[s & mask]}
        if not states:
            return None
        created += len(states)
        if created > _FRONTIER_STATE_BUDGET:
            raise OracleBoundError(
                f"the frontier DP passed its budget of {_FRONTIER_STATE_BUDGET} "
                f"states at frontier width {width} ({m} free edges)"
            )
    best = {0: 0}  # at the end every slot has been given back
    for states, mask, moves, bit in reversed(steps):
        later, best = best, {}
        for s in states:
            masks = [later[s + d] | bit * rev for d, rev in moves[s & mask] if s + d in later]
            if masks:
                best[s] = min(masks)
    return best[0]


def oracle_solve(g: EmbeddedGraph, p: dict[int, int]) -> Orientation | None:
    """Decide whether a valid total orientation extends the graph's forced
    arcs, and return the first one.

    One frontier DP run (``_frontier_first``) over the instance
    ``_oracle_instance`` builds decides, and reads back through its own
    states the first valid orientation in edge id order, tail-at-lower
    first, or None.  A run past ``_FRONTIER_STATE_BUDGET`` states raises
    OracleBoundError.  The result's ``fixed`` names the forced arcs.  A
    malformed prescription raises OrientationError
    (``_check_prescription``).
    """
    if not _check_prescription(g, p):
        return None
    instance = _oracle_instance(g, p)
    if instance is None:
        return None
    free, lo, hi, need, direction = instance
    first = _frontier_first(lo, hi, need)
    if first is None:
        return None
    verts = g.vertices
    for j, e in enumerate(free):
        u, v = verts[lo[j]], verts[hi[j]]
        direction[e] = (v, u) if first >> (len(free) - 1 - j) & 1 else (u, v)
    o = Orientation(direction=direction, fixed=frozenset(g.darcs))
    if not is_valid_orientation(g, p, o):
        raise OrientationError("the oracle read an invalid orientation")
    return o


# --------------------------------------------------- greedy direct-and-delete


def _digest_line(e: int, uv: tuple[int, int]) -> str:
    return f"{e} {uv[0]} {uv[1]}"


def _digest_of_lines(lines) -> str:
    """Digest of edge lines already in ascending edge-id order."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _abstract_digest(edges: dict[int, tuple[int, int]]) -> str:
    return _digest_of_lines(_digest_line(e, uv) for e, uv in sorted(edges.items()))


def _deferred_digest(g: EmbeddedGraph) -> Callable[[], str]:
    """g's digest as it is now, to be hashed when first called."""
    return functools.partial(_abstract_digest, dict(g.edges))


class ReductionStep:
    """One reduction taken: its kind, its integer arguments and the digest
    of the working multigraph after it.

    ``result_digest`` is the digest itself (``parse_trace``) or a function
    of no arguments that returns it: ``_deferred_digest``'s snapshot of a
    graph's edges, or a step of a sweep's ``_SweepDigests``.  It is hashed
    the first time it is read (``serialize_trace``, ``replay``, ``==``),
    then kept, and never while ``solve`` runs.  Equality, hashing and repr
    are by the digest's value.
    """

    __slots__ = ("kind", "arguments", "_digest")

    def __init__(
        self, kind: str, arguments: tuple[int, ...], result_digest: str | Callable[[], str]
    ):
        self.kind = kind
        self.arguments = arguments
        self._digest = result_digest

    @property
    def result_digest(self) -> str:
        if not isinstance(self._digest, str):
            self._digest = self._digest()
        return self._digest

    def _key(self) -> tuple[str, tuple[int, ...], str]:
        return self.kind, self.arguments, self.result_digest

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReductionStep):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"ReductionStep(kind={self.kind!r}, arguments={self.arguments!r}, "
            f"result_digest={self.result_digest!r})"
        )


class _SweepDigests:
    """The step digests of one lift-then-sweep schedule, recorded as edge
    changes while it runs and all hashed in one pass the first time one
    is read."""

    def __init__(self, edges: dict[int, tuple[int, int]]):
        self.start = tuple(edges)  # the input's edge ids
        self.edges = dict(edges)  # every edge the sweep has made, by id
        self.changes: list[tuple[Sequence[int], int | None]] = []  # removed, added
        self._digests: list[str] | None = None

    def step(self, removed: Sequence[int], added: int | None = None):
        """Record a step; returns its digest, as a function of no arguments."""
        self.changes.append((removed, added))
        return functools.partial(self.digest, len(self.changes) - 1)

    def digest(self, i: int) -> str:
        if self._digests is None:
            # ids and lines stay in ascending id order: seeded sorted, and
            # lifted ids from next_edge_id() exceed every input id.  Lists,
            # not a dict: join reads a list as it is, while a dict's values
            # are copied out past its deleted slots at every step.
            ids = sorted(self.start)
            lines = [_digest_line(e, self.edges[e]) for e in ids]
            digests = []
            for removed, added in self.changes:
                for e in removed:
                    k = bisect.bisect_left(ids, e)
                    del ids[k], lines[k]
                if added is not None:
                    ids.append(added)
                    lines.append(_digest_line(added, self.edges[added]))
                digests.append(_digest_of_lines(lines))
            self._digests = digests
        return self._digests[i]


def greedy_direct_and_delete(
    g: EmbeddedGraph,
    p: dict[int, int],
    lifts: list[tuple[int, int, int]],
    order: list[int],
) -> tuple[Orientation, list[ReductionStep]]:
    """Run a lift-then-sweep schedule; return a validated orientation and
    the steps taken.

    ``lifts`` lists (edge1, edge2, shared vertex) to lift first; ``order``
    lists vertices to process: each in turn directs all its remaining
    undirected edges so its residue lands on p, lowest edge ids inward,
    and drops out.  Edges forced along the way (a vertex keeping a single
    undirected edge gets it by its neighbour's turn) are inherited.  The
    result is pulled back through the lifts and fully validated; any
    residue the sweep cannot meet raises ScheduleError naming the vertex,
    and so does a total off 0 mod 3.  A malformed prescription raises
    OrientationError naming the fault.

    The steps are ReductionSteps, one per lift ("LiftPair", (edge1,
    edge2, vertex)) and one per swept vertex ("OrientDeleteVertex",
    (vertex,)), each with the digest of the working multigraph after it:
    the solver's trace steps, as ``solve`` returns them.

    The sweep is O(|E| log Δ).  No digest is hashed while it runs: the
    sweep records its edge changes, and the first digest read hashes every
    step's, in one pass over O(|V|·|E|) bytes.
    """
    o, steps = _greedy_sweep(g, p, lifts, order)
    return o, [ReductionStep(*st) for st in steps]


def _greedy_sweep(g, p, lifts, order):
    """The loop of ``greedy_direct_and_delete``: its steps are (kind, args,
    digest) triples, each digest a function of no arguments whose first
    call hashes every step's.  Its containers are freed before the steps
    are built: building them in this frame moved where the garbage
    collector fired, and circulant p95 read 11-24% worse."""
    _check_prescription(g, p)  # a total off 0 mod 3 fails as a schedule
    if g.darcs:
        raise ScheduleError("greedy schedules do not handle forced arcs")
    log = _SweepDigests(g.edges)
    ep = log.edges
    edges = dict(g.edges)
    steps = []
    inc: dict[int, set[int]] = {v: set() for v in g.rotation}
    for e, (a, b) in edges.items():
        inc[a].add(e)
        inc[b].add(e)
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
        steps.append(("LiftPair", (e1, e2, v), log.step((e1, e2), next_id)))
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
            a, b = edges.pop(e)
            other = b if a == v else a
            inc[other].discard(e)
            if idx < need:
                direction[e] = (other, v)
                cur[other] -= 1
            else:
                direction[e] = (v, other)
                cur[other] += 1
        steps.append(("OrientDeleteVertex", (v,), log.step(mine)))

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
        inner = u if u in side else v
        direction[e] = (inner if t == merged else t, inner if h == merged else h)
    return Orientation(direction=direction, fixed=frozenset(direction))
