"""Hybrid valid-orientation solver with replayable traces.

Strategy order, fixed here: a detected circulant schedule runs
first (complete for those two families; the sweep is O(|E| log Δ), but
each traced step also hashes the remaining edge list), then robust-cut
contraction with orientation transfer, on a side found by a search for
bonds of size <= 5 that never grows a side through the protected or the
directed vertex (cuts.smallest_bond_side), then the doubled-boundary-vertex
split, then the oracle.  There a frontier DP decides, within a fixed
state budget, whether any valid orientation exists, and reads the
lexicographically first witness by self-reduction; past the state budget
or the cut search budget the instance is refused, and the refusal names
the bound.  Every orientation leaving this module is validated against
the untouched input.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .cuts import CutBudgetError, smallest_bond_side
from .embedding import (
    EmbeddedGraph,
    EmbeddingError,
    OperationError,
    contract_subgraph,
    specified_walk,
    split_doubled_boundary_vertex,
)
from .families import FamilySpec, circulant_schedule
from .orient import (
    OracleBoundError,
    Orientation,
    OrientationError,
    ScheduleError,
    _abstract_digest,
    greedy_direct_and_delete,
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


@dataclass(frozen=True)
class ReductionStep:
    kind: str
    arguments: tuple[int, ...]
    result_digest: str


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


def detect_family(g: EmbeddedGraph) -> tuple[FamilySpec, dict[int, int]] | None:
    """Recognize the two circulant families from the shape of the specified
    face, whatever the vertex ids.  Returns the family and a position map
    (boundary position -> vertex id, position 0 for the subdivider) usable
    with circulant_schedule, or None.

    Both families are determined by their chord pattern relative to the
    boundary cycle; the pattern is invariant under rotation and reflection
    of the cycle, so the first labelling that matches is as good as any.
    """
    if g.dvertex is not None or g.darcs or len(g.specified) != 1:
        return None
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


def _reduce_by_cut(
    g: EmbeddedGraph, p: dict[int, int], side: frozenset[int]
) -> tuple[Orientation | None, list[ReductionStep]] | None:
    """Contract ``side``, solve the contraction, transfer back, and solve
    the remainder against the transferred cut-edge directions.  Returns
    (orientation, steps) on a decisive answer, or None to fall through
    when the remainder pass is inconclusive."""
    comp = frozenset(g.vertices) - side
    merged = g.next_vertex_id()  # both contractions mint the same id
    g1 = contract_subgraph(g, side, face_policy="at-merged")
    p1 = {v: p[v] for v in g.vertices if v not in side}
    p1[merged] = _norm(sum(p[v] for v in side))
    steps = [
        ReductionStep("ContractSide", tuple(sorted(side)), _abstract_digest(g1.edges))
    ]
    try:
        o1, sub1 = _solve_inner(g1, p1)
    except SolverRefusal:
        return None
    steps.extend(sub1)
    if o1 is None:
        # any valid orientation of the input would contract to one of g1
        return None, steps
    part1 = transfer_orientation(g, side, o1, merged)
    g2 = contract_subgraph(g, comp, face_policy="at-merged")
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
        ReductionStep("TransferOrientation", (merged,), _abstract_digest(g2.edges))
    )
    try:
        o2, sub2 = _solve_inner(g2, p2)
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
    g: EmbeddedGraph, p: dict[int, int]
) -> tuple[Orientation | None, list[ReductionStep]]:
    # 1. complete schedule of a recognized family; a failed one falls through
    det = None if g.darcs else detect_family(g)
    if det is not None:
        spec, posmap = det
        lifts, order = circulant_schedule(g, spec.parameter, spec.kind == "A", posmap)
        try:
            o, steps = greedy_direct_and_delete(g, p, lifts, order)
            return o, [ReductionStep(*st) for st in steps]
        except ScheduleError:
            pass

    # 2. robust-cut contraction and transfer
    side = _pick_cut_side(g)
    if side is not None:
        decided = _reduce_by_cut(g, p, side)
        if decided is not None:
            return decided

    # 3. cut the crosscap at a doubled boundary vertex
    if len(g.specified) == 1:
        tails = specified_walk(g).tails
        for v, c in sorted(Counter(tails).items()):
            if c < 2:
                continue
            try:
                flat = split_doubled_boundary_vertex(g, v)
            except EmbeddingError:
                continue
            steps = [
                ReductionStep("SplitBoundaryVertex", (v,), _abstract_digest(flat.edges))
            ]
            try:
                o3, sub3 = _solve_inner(flat, p)
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
    return o4, [ReductionStep("OracleCall", (n_free,), _abstract_digest(g.edges))]


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
    o, steps = _solve_inner(work, prescription)
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
