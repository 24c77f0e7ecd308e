"""Hybrid valid-orientation solver with replayable traces.

Strategy order, fixed here: a detected circulant schedule runs
first (complete for those two families; the sweep is O(|E| log Δ), and
its step digests are hashed only when the trace is read), then robust-cut
contraction with orientation transfer, on a side found by a search for
bonds of size <= 5 that never grows a side through the protected or the
directed vertex (cuts.smallest_bond_side) and only on connected input,
then the doubled-boundary-vertex split, then the oracle.  There a
frontier DP decides, within a fixed state budget, whether any valid
orientation exists, and reads the lexicographically first witness by
self-reduction; past the state budget or the cut search budget the
instance is refused, and the refusal names the bound.  Every orientation
leaving this module is validated against the untouched input.

Face data is carried down the recursion rather than re-derived.  Each
level walks its specified faces at most once and hands the walks to the
public operations it calls, ``detect_family``, ``contract_subgraph`` (both
contractions) and ``split_doubled_boundary_vertex``, which take them in
place of walking the faces themselves.  The split also takes chi of the
graph it cuts, and no level counts it: Euler genus (2 - chi)
never rises along the recursion.  Contracting a non-loop edge keeps chi,
deleting a loop raises it by 0, 1 or 2, and a split's output is plane,
which the split checks itself.  So when the input to ``solve`` has chi 1
or 2, every graph h reached has Euler genus at most 1, and chi(h) is 2
when h is balanced (orientable) and 1 when it is not: one search, no face
walk (Mohar and Thomassen, *Graphs on Surfaces*, 2001).  The input's chi
is counted once, at the first split attempted, since most solves never
split; on any other input, or one the count refuses, each split counts
chi itself.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, partial

from .cuts import CutBudgetError, smallest_bond_side
from .embedding import (
    EmbeddedGraph,
    EmbeddingError,
    FaceWalk,
    _balance_potentials,
    _specified_walks,
    contract_subgraph,
    euler_characteristic,
    split_doubled_boundary_vertex,
    specified_walk,
)
from .families import FamilySpec, circulant_schedule
from .orient import (
    OracleBoundError,
    Orientation,
    OrientationError,
    ScheduleError,
    _abstract_digest,
    _greedy_sweep,
    is_valid_orientation,
    oracle_solve,
    prescription_ok,
    transfer_orientation,
)

STEP_KINDS = frozenset(
    {
        "ContractSide",
        "TransferOrientation",
        "LiftPair",
        "OrientDeleteVertex",
        "DeleteBoundaryEdge",
        "PlanarizeChord",
        "SplitBoundaryVertex",
        "OracleCall",
    }
)


class SolverRefusal(Exception):
    """The instance is outside every strategy's regime."""


class TraceError(Exception):
    """Malformed trace text."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ReductionStep:
    """One reduction taken: its kind, its integer arguments and the digest
    of the working multigraph after it.

    ``result_digest`` is given either as the digest itself (``parse_trace``
    does this) or as a function of no arguments that returns it.  The
    solver gives a function over a snapshot of the edges, taken when the
    step is made, so that later edits to a working graph cannot change the
    digest; it is hashed the first time it is read (``serialize_trace``,
    ``replay``, ``==``), then kept, and never while ``solve`` runs.
    Equality, hashing and repr are by the digest's value.
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


def _deferred_digest(g: EmbeddedGraph) -> Callable[[], str]:
    """g's digest as it is now, to be hashed when first called."""
    return partial(_abstract_digest, dict(g.edges))


@dataclass
class ReductionTrace:
    """What the solver did, step by step, plus everything needed to do it
    again: the prescription."""

    steps: list[ReductionStep]
    outcome: str  # "valid" | "none"
    prescription: dict[int, int]


def serialize_trace(trace: ReductionTrace) -> str:
    # The oracle once had a free-edge threshold, 28 by default.  Every trace
    # still carries that line, so that traces stay byte-identical;
    # parse_trace accepts any integer there and ignores it.
    lines = ["trace 1", "threshold 28"]
    for v in sorted(trace.prescription):
        lines.append(f"p {v} {trace.prescription[v]}")
    for n, st in enumerate(trace.steps):
        args = ",".join(str(a) for a in st.arguments)
        lines.append(f"step {n} {st.kind} args={args} digest={st.result_digest}")
    lines.append(f"outcome {trace.outcome}")
    return "\n".join(lines) + "\n"


def _int(token: str, ln: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise TraceError(f"expected an integer, got {token!r}", ln) from None


def parse_trace(text: str) -> ReductionTrace:
    steps: list[ReductionStep] = []
    outcome = None
    prescription: dict[int, int] = {}
    saw_header = False
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if not saw_header:
            if parts != ["trace", "1"]:
                raise TraceError("expected header 'trace 1'", ln)
            saw_header = True
        elif parts[0] == "threshold" and len(parts) == 2:
            _int(parts[1], ln)
        elif parts[0] == "p" and len(parts) == 3:
            v = _int(parts[1], ln)
            if v in prescription:
                raise TraceError(f"duplicate prescription for vertex {v}", ln)
            prescription[v] = _int(parts[2], ln)
        elif parts[0] == "step" and len(parts) == 5:
            if _int(parts[1], ln) != len(steps):
                raise TraceError("step index out of order", ln)
            kind = parts[2]
            if kind not in STEP_KINDS:
                raise TraceError(f"unknown step kind {kind}", ln)
            if not parts[3].startswith("args=") or not parts[4].startswith("digest="):
                raise TraceError("malformed step line", ln)
            argtext = parts[3][len("args=") :]
            arguments = (
                tuple(_int(x, ln) for x in argtext.split(",")) if argtext else ()
            )
            steps.append(ReductionStep(kind, arguments, parts[4][len("digest=") :]))
        elif parts[0] == "outcome" and len(parts) == 2 and parts[1] in ("valid", "none"):
            if outcome is not None:
                raise TraceError("duplicate outcome line", ln)
            outcome = parts[1]
        else:
            raise TraceError(f"unrecognized line: {line}", ln)
    if not saw_header:
        raise TraceError("empty trace")
    if outcome is None:
        raise TraceError("trace has no outcome line")
    return ReductionTrace(steps=steps, outcome=outcome, prescription=prescription)


# ------------------------------------------------------- family detection


def _norm(r: int) -> int:
    return (r + 1) % 3 - 1


def _chord_partners(g: EmbeddedGraph, v: int, boundary_ids: set[int]) -> list[int]:
    out = []
    for e in g.incident(v):
        if e in boundary_ids:
            continue
        a, b = g.edges[e]
        out.append(b if a == v else a)
    return out


def detect_family(
    g: EmbeddedGraph, walk: FaceWalk | None = None
) -> tuple[FamilySpec, dict[int, int]] | None:
    """Recognize the two circulant families from the shape of the specified
    face, whatever the vertex ids.  Returns the family and a position map
    (boundary position -> vertex id, position 0 for the subdivider) usable
    with circulant_schedule, or None.

    Both families are determined by their chord pattern relative to the
    boundary cycle; the pattern is invariant under rotation and reflection
    of the cycle, so the first labelling that matches is as good as any.

    ``walk`` is the specified face's walk (``specified_walk(g)``), as a
    caller that holds it already passes it (``solve`` does), or None to
    walk it here: either way the face is walked once.
    """
    if g.dvertex is not None or g.darcs or len(g.specified) != 1:
        return None
    if walk is None:
        walk = specified_walk(g)
    cyc = walk.tails
    verts = g.vertices
    nv = len(verts)
    # the walk passes every vertex once: the boundary is a Hamilton cycle
    if len(cyc) != nv or set(cyc) != set(verts) or nv < 5:
        return None
    if any(u == v for u, v in g.edges.values()):
        return None
    walk_ids = walk.edge_ids()
    degs = {v: g.degree(v) for v in verts}

    if nv % 2 == 1:
        i = nv
        if len(g.edges) != 2 * i or any(d != 4 for d in degs.values()):
            return None
        h = (i - 1) // 2
        for j, v in enumerate(cyc):
            want = {cyc[(j + h) % i], cyc[(j - h) % i]}
            if set(_chord_partners(g, v, walk_ids)) != want:
                return None
        return FamilySpec("B", i), {j + 1: cyc[j] for j in range(i)}

    i = nv - 1
    if i < 5 or len(g.edges) != 2 * i + 2:
        return None
    if sorted(degs.values()) != [3] + [4] * (i - 1) + [5]:
        return None
    v0 = next(v for v in verts if degs[v] == 3)
    if g.tvertex is not None and g.tvertex != v0:
        return None
    k = cyc.index(v0)
    ring = cyc[k:] + cyc[:k]  # ring[0] == v0, ring[1..i] = positions 1..i
    h = (i - 1) // 2
    m = (i + 1) // 2
    if _chord_partners(g, v0, walk_ids) != [ring[m]]:
        return None
    for j in range(1, i + 1):
        want = {ring[(j - 1 + h) % i + 1], ring[(j - 1 - h) % i + 1]}
        if j == m:
            want.add(v0)
        if set(_chord_partners(g, ring[j], walk_ids)) != want:
            return None
    return FamilySpec("A", i), {j: ring[j] for j in range(i + 1)}


# ----------------------------------------------------------------- solve


def _pick_cut_side(g: EmbeddedGraph) -> frozenset[int] | None:
    """The side to contract.  Of the first bond of size <= 5, in
    enumerate_robust_cuts' (size, side) order, whose sides both hold two or
    more vertices and one of which avoids the protected and directed
    vertices, that side; with neither vertex present, the smaller side
    (then the lexicographically smaller).  A bond is a cut whose two sides
    are both connected.  cuts.smallest_bond_side grows only connected
    pieces that avoid those vertices, at about a microsecond a step, and
    forms no unions; a search over its step budget counts as no usable
    cut."""
    try:
        return smallest_bond_side(g, 5, {g.tvertex, g.dvertex} - {None})
    except CutBudgetError:
        return None


@dataclass
class _Input:
    """The graph handed to ``solve``, whether it is connected, and its chi,
    each found on first use."""

    graph: EmbeddedGraph

    @cached_property
    def connected(self) -> bool:
        # contraction and the split keep the number of components
        return self.graph.is_connected()

    @cached_property
    def chi(self) -> int | None:
        try:
            return euler_characteristic(self.graph)
        except EmbeddingError:
            return None


def _carried_chi(h: EmbeddedGraph, top: _Input) -> int | None:
    """chi(h) for a graph h reached from ``top``, from h's balance when
    ``top`` has Euler genus at most 1 (see the module docstring), else None
    so that the split counts it."""
    if top.chi not in (1, 2):
        return None
    return 2 if _balance_potentials(h, set(h.rotation)) is not None else 1


def _reduce_by_cut(
    g: EmbeddedGraph,
    p: dict[int, int],
    side: frozenset[int],
    walks: list[FaceWalk],
    top: _Input,
) -> tuple[Orientation | None, list[ReductionStep]] | None:
    """Contract ``side``, solve the contraction, transfer back, and solve
    the remainder against the transferred cut-edge directions.  ``walks``
    are g's specified faces' walks.  Returns (orientation, steps) on a
    decisive answer, or None to fall through when the remainder pass is
    inconclusive."""
    comp = frozenset(g.vertices) - side
    merged = g.next_vertex_id()  # both contractions mint the same id
    g1 = contract_subgraph(g, side, "at-merged", walks)
    p1 = {v: p[v] for v in g.vertices if v not in side}
    p1[merged] = _norm(sum(p[v] for v in side))
    steps = [
        ReductionStep("ContractSide", tuple(sorted(side)), _deferred_digest(g1))
    ]
    try:
        o1, sub1 = _solve_inner(g1, p1, top)
    except SolverRefusal:
        return None
    steps.extend(sub1)
    if o1 is None:
        # any valid orientation of the input would contract to one of g1
        return None, steps
    part1 = transfer_orientation(g, side, o1, merged)
    g2 = contract_subgraph(g, comp, "at-merged", walks)
    arcs = {}
    for e, (u, v) in g2.edges.items():
        if merged in (u, v):
            t, _ = part1.direction[e]
            arcs[e] = "out" if t in comp else "in"
    g2.dvertex = merged
    g2.darcs = arcs
    p2 = {v: p[v] for v in side}
    p2[merged] = _norm(sum(p[v] for v in comp))
    steps.append(
        ReductionStep("TransferOrientation", (merged,), _deferred_digest(g2))
    )
    try:
        o2, sub2 = _solve_inner(g2, p2, top)
    except SolverRefusal:
        return None
    if o2 is None:
        return None  # the transferred boundary may just be an unlucky choice
    steps.extend(sub2)
    part2 = transfer_orientation(g, comp, o2, merged)
    direction = dict(part1.direction)
    for e, th in part2.direction.items():
        if e in direction and direction[e] != th:
            raise OrientationError("cut edges disagree after transfer")
        direction[e] = th
    return Orientation(direction=direction, fixed=frozenset(g.darcs)), steps


def _solve_inner(
    g: EmbeddedGraph, p: dict[int, int], top: _Input
) -> tuple[Orientation | None, list[ReductionStep]]:
    walks = None  # g's specified faces' walks, walked at the first use
    # 1. complete schedule of a recognized family; a failed one falls through
    if g.dvertex is None and not g.darcs and len(g.specified) == 1:
        walks = _specified_walks(g)
        det = detect_family(g, walks[0])
        if det is not None:
            spec, posmap = det
            lifts, order = circulant_schedule(g, spec.parameter, spec.kind == "A", posmap)
            try:
                o, steps = _greedy_sweep(g, p, lifts, order)
                return o, [ReductionStep(*st) for st in steps]
            except ScheduleError:
                pass

    # 2. robust-cut contraction and transfer; on a disconnected input the
    # bond search returns a whole component, a cut of size 0, so its side
    # is dropped (connectivity is checked only once a side is found)
    side = _pick_cut_side(g)
    if side is not None and top.connected:
        if walks is None:
            walks = _specified_walks(g)
        decided = _reduce_by_cut(g, p, side, walks, top)
        if decided is not None:
            return decided

    # 3. cut the crosscap at a doubled boundary vertex
    if len(g.specified) == 1:
        walk = walks[0] if walks is not None else specified_walk(g)
        doubled = [v for v, c in sorted(Counter(walk.tails).items()) if c >= 2]
        chi = _carried_chi(g, top) if doubled else None
        for v in doubled:
            try:
                flat = split_doubled_boundary_vertex(g, v, walk, chi)
            except EmbeddingError:
                continue
            steps = [
                ReductionStep("SplitBoundaryVertex", (v,), _deferred_digest(flat))
            ]
            try:
                o3, sub3 = _solve_inner(flat, p, top)
            except SolverRefusal:
                break
            # same abstract multigraph, so this answer is decisive either way
            return o3, steps + sub3

    # 4. oracle: the frontier DP decides and reads the witness
    n_free = sum(1 for e, (u, v) in g.edges.items() if u != v and e not in g.darcs)
    try:
        o4 = oracle_solve(g, p)
    except OracleBoundError as exc:
        raise SolverRefusal(
            f"{exc}, and no schedule, usable 2-robust cut of size <= 5, or "
            "doubled boundary vertex applies"
        ) from exc
    return o4, [ReductionStep("OracleCall", (n_free,), _deferred_digest(g))]


def solve(g: EmbeddedGraph, p: dict[int, int]) -> tuple[Orientation | None, ReductionTrace]:
    """Find a valid orientation or prove there is none, within the engine's
    regime.  The forced arcs are the graph's own (``g.dvertex``,
    ``g.darcs``).  Returns the orientation (or None) and the replayable
    trace."""
    g.validate()
    work = g.copy()
    prescription = dict(p)
    if not prescription_ok(work, prescription):
        return None, ReductionTrace([], "none", prescription)
    o, steps = _solve_inner(work, prescription, _Input(work))
    if o is not None and not is_valid_orientation(work, prescription, o):
        raise OrientationError("solver produced an invalid orientation")
    outcome = "valid" if o is not None else "none"
    return o, ReductionTrace(steps, outcome, prescription)


# ---------------------------------------------------------------- replay


@dataclass(frozen=True)
class ReplayReport:
    matches: bool
    mismatch_index: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.matches


def replay(g: EmbeddedGraph, trace: ReductionTrace) -> ReplayReport:
    """Re-run the deterministic solve from the graph and the trace's own
    prescription, comparing step lists and outcome."""
    try:
        _, fresh = solve(g, trace.prescription)
    except (SolverRefusal, EmbeddingError, OrientationError) as exc:
        return ReplayReport(False, 0, f"re-solve failed: {exc}")
    for i, (a, b) in enumerate(zip(trace.steps, fresh.steps)):
        if a != b:
            return ReplayReport(
                False,
                i,
                f"recorded {a.kind} args={a.arguments} digest={a.result_digest}, "
                f"got {b.kind} args={b.arguments} digest={b.result_digest}",
            )
    if len(trace.steps) != len(fresh.steps):
        return ReplayReport(
            False,
            min(len(trace.steps), len(fresh.steps)),
            f"recorded {len(trace.steps)} steps, re-solve took {len(fresh.steps)}",
        )
    if trace.outcome != fresh.outcome:
        return ReplayReport(
            False, None, f"outcome changed: recorded {trace.outcome}, got {fresh.outcome}"
        )
    return ReplayReport(True)
