"""Hybrid valid-orientation solver with replayable traces.

Strategy order, fixed here: when families.detect_family recognises B_i
or A_i, their circulant schedule runs first, through
orient.greedy_direct_and_delete, whose steps are the trace's as they are
(complete for those two families; the sweep is O(|E| log Δ), and its
step digests are hashed only when the trace is read), then robust-cut
contraction with orientation transfer, on a side found by a search for
bonds of size <= 5 that never grows a side through the protected or the
directed vertex (cuts.smallest_bond_side), then the
doubled-boundary-vertex split, then the oracle.  There a frontier DP
decides, within a fixed state budget, whether any valid orientation
exists, and reads the lexicographically first witness back through that
run's own states; past the state budget, the cut search budget or the
recursion limit the instance is refused, and the refusal names the
bound.  Every orientation leaving this module is validated against the
untouched input.

Only the doubled-boundary-vertex split takes face data from the solver.
Family detection and contraction find their own faces from the anchors,
and contraction walks a face only when it swallows the anchor's edge.
Splits are tried only when the input to ``solve`` is projective (chi 1),
their domain.  Each level that tries one walks its specified face once,
lists the doubled vertices from that walk and hands it to each split's
check, ``embedding._split_cut``, with chi of the graph h it cuts.  Euler
genus (2 - chi) never rises along the recursion: contracting a non-loop
edge keeps chi, deleting a loop raises it by 0, 1 or 2, and a split's
output is plane.  So every h has Euler genus at most 1, and is
connected.  A split refuses F' = 2 faces, read off the walk's
orientation bits, before it reads chi; F' = 1 leaves the cut h
connected, so chi(h) + 1 <= 2, and the solver hands it chi(h) = 1 (Mohar
and Thomassen, *Graphs on Surfaces*, 2001).  The input's chi is counted
once, at the first level with a doubled vertex, since most solves never
split.  Where stage 2 found no cut side, an accepted split is recorded,
not built, and the oracle runs on h.  That is exact: the split keeps h's
edges, forced arcs and protected vertex, so at its output's level
detection (two specified faces) and the cut search (which reads only
those) find nothing, stage 3 needs one face, and the oracle, like the
step digests, reads no embedding.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .cuts import CutBudgetError, smallest_bond_side
from .embedding import (
    EmbeddedGraph,
    EmbeddingError,
    _split_cut,
    contract_subgraph,
    euler_characteristic,
    split_doubled_boundary_vertex,
    specified_walk,
)
from .families import circulant_schedule, detect_family
from .orient import (
    OracleBoundError,
    Orientation,
    OrientationError,
    ReductionStep,
    ScheduleError,
    _check_prescription,
    _deferred_digest,
    _mod3,
    greedy_direct_and_delete,
    is_valid_orientation,
    oracle_solve,
    transfer_orientation,
)
from .pgr import PgrError, _int_error, _lines, _read_residue

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


TraceError = PgrError  # malformed trace text: one error class for every text format


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


def parse_trace(text: str) -> ReductionTrace:
    """Trace text; pgr's line rules read its comments and p lines."""
    steps: list[ReductionStep] = []
    outcome = None
    prescription: dict[int, int] = {}
    saw_header = False
    for ln, parts in _lines(text):
        kind, ints = parts[0], parts[1:]
        try:
            if not saw_header:
                if parts != ["trace", "1"]:
                    raise TraceError("expected header 'trace 1'", ln)
                saw_header = True
            elif kind == "p":
                _read_residue(ints, ln, prescription)
            elif kind == "threshold" and len(parts) == 2:
                int(parts[1])
            elif kind == "step" and len(parts) == 5:
                if int(parts[1]) != len(steps):
                    raise TraceError("step index out of order", ln)
                if parts[2] not in STEP_KINDS:
                    raise TraceError(f"unknown step kind {parts[2]}", ln)
                if not parts[3].startswith("args=") or not parts[4].startswith("digest="):
                    raise TraceError("malformed step line", ln)
                argtext = parts[3][len("args=") :]
                ints = [parts[1], *(argtext.split(",") if argtext else ())]
                arguments = tuple(int(x) for x in ints[1:])
                steps.append(ReductionStep(parts[2], arguments, parts[4][len("digest=") :]))
            elif kind == "outcome" and len(parts) == 2 and parts[1] in ("valid", "none"):
                if outcome is not None:
                    raise TraceError("duplicate outcome line", ln)
                outcome = parts[1]
            else:
                raise TraceError(f"unrecognized line: {' '.join(parts)}", ln)
        except ValueError:
            raise _int_error(kind, ints, ln) from None
    if not saw_header:
        raise TraceError("empty trace")
    if outcome is None:
        raise TraceError("trace has no outcome line")
    return ReductionTrace(steps=steps, outcome=outcome, prescription=prescription)


# ----------------------------------------------------------------- solve


def _pick_cut_side(g: EmbeddedGraph) -> frozenset[int] | None:
    """The side to contract, from cuts.smallest_bond_side: of the first
    bond (a non-empty cut whose sides are both connected) of size <= 5
    whose sides both hold two or more vertices and one of which avoids
    the protected and directed vertices, that side, or the smaller one
    when neither vertex is present.  A search over its step budget counts
    as no usable cut."""
    try:
        return smallest_bond_side(g, 5, {g.tvertex, g.dvertex} - {None})
    except CutBudgetError:
        return None


@dataclass
class _Input:
    """The graph handed to ``solve`` and its chi, found on first use."""

    graph: EmbeddedGraph

    @cached_property
    def chi(self) -> int | None:
        try:
            return euler_characteristic(self.graph)
        except EmbeddingError:
            return None


def _reduce_by_cut(
    g: EmbeddedGraph,
    p: dict[int, int],
    side: frozenset[int],
    top: _Input,
) -> tuple[Orientation | None, list[ReductionStep]] | None:
    """Contract ``side``, solve the contraction, transfer back, and solve
    the remainder against the transferred cut-edge directions.  Returns
    (orientation, steps) on a decisive answer, or None to fall through
    when the remainder pass is inconclusive."""
    comp = frozenset(g.vertices) - side
    merged = g.next_vertex_id()  # both contractions mint the same id
    g1 = contract_subgraph(g, side)
    p1 = {v: p[v] for v in g.vertices if v not in side}
    p1[merged] = _mod3(sum(p[v] for v in side))
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
    g2 = contract_subgraph(g, comp)
    arcs = {}
    for e, (u, v) in g2.edges.items():
        if merged in (u, v):
            t, _ = part1.direction[e]
            arcs[e] = "out" if t in comp else "in"
    g2.dvertex = merged
    g2.darcs = arcs
    p2 = {v: p[v] for v in side}
    p2[merged] = _mod3(sum(p[v] for v in comp))
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
    # 1. complete schedule of a recognized family; a failed one falls through
    det = detect_family(g)
    if det is not None:
        spec, posmap = det
        lifts, order = circulant_schedule(g, spec.parameter, spec.kind == "A", posmap)
        try:
            return greedy_direct_and_delete(g, p, lifts, order)
        except ScheduleError:
            pass

    # 2. robust-cut contraction and transfer
    side = _pick_cut_side(g)
    if side is not None:
        decided = _reduce_by_cut(g, p, side, top)
        if decided is not None:
            return decided

    # 3. cut the crosscap at a doubled boundary vertex
    steps = []
    if len(g.specified) == 1:
        walk = specified_walk(g)
        doubled = [v for v, c in sorted(Counter(walk.tails).items()) if c >= 2]
        for v in doubled if doubled and top.chi == 1 else ():
            try:
                _split_cut(g, v, walk, 1)
            except EmbeddingError:
                continue
            split = ReductionStep("SplitBoundaryVertex", (v,), _deferred_digest(g))
            if side is None:  # recorded only: see the module docstring
                steps = [split]
                break
            try:
                o3, sub3 = _solve_inner(split_doubled_boundary_vertex(g, v, walk, 1), p, top)
            except SolverRefusal:
                break
            # same abstract multigraph, so this answer is decisive either way
            return o3, [split, *sub3]

    # 4. oracle: the frontier DP decides and reads the witness
    n_free = sum(1 for e, (u, v) in g.edges.items() if u != v and e not in g.darcs)
    try:
        o4 = oracle_solve(g, p)
    except OracleBoundError as exc:
        raise SolverRefusal(
            f"{exc}, and no schedule, usable 2-robust cut of size <= 5, or "
            "doubled boundary vertex applies"
        ) from exc
    return o4, [*steps, ReductionStep("OracleCall", (n_free,), _deferred_digest(g))]


def solve(g: EmbeddedGraph, p: dict[int, int]) -> tuple[Orientation | None, ReductionTrace]:
    """Find a valid orientation or prove there is none, within the engine's
    regime.  The forced arcs are the graph's own (``g.dvertex``,
    ``g.darcs``).  Returns the orientation (or None) and the replayable
    trace.  A malformed prescription raises OrientationError
    (``_check_prescription``); a total off 0 mod 3 answers "none"."""
    g.validate()
    prescription = dict(p)
    if not _check_prescription(g, prescription):
        return None, ReductionTrace([], "none", prescription)
    try:
        o, steps = _solve_inner(g, prescription, _Input(g))
    except RecursionError:  # one or two Python frames per reduction level
        raise SolverRefusal(
            f"the reduction chain is deeper than the recursion limit ({sys.getrecursionlimit()})"
        ) from None
    if o is not None and not is_valid_orientation(g, prescription, o):
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
