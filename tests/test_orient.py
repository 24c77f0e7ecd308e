"""Orientation validity, the exhaustive oracle, and the greedy sweep.

``enumerate_all_orientations`` below is the reference the oracle is
measured against: a direct product over every edge direction with no
pruning and no shared code with the package's search kernel.
"""

import hashlib
import re
import time
from collections import Counter
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    _count_calls,
    _replace_everywhere,
    build_graph,
    count_valid,
    cycle_graph,
    free_edge_counts,
    random_multigraph,
    reference_forced_arcs,
    reference_oracle_lists,
    reference_oracle_solve,
    triangle,
    triangle_with_loop,
)
from crossflow import _kernels, orient
from crossflow.embedding import EmbeddedGraph
from crossflow.families import (
    circulant_schedule,
    gen_a,
    gen_circulant_b,
    gen_counterexample,
    gen_random_pt,
)
from crossflow.orient import (
    DirectedVertexSpec,
    OracleBoundError,
    Orientation,
    OrientationError,
    ScheduleError,
    _abstract_digest,
    _check_prescription,
    greedy_direct_and_delete,
    is_valid_orientation,
    oracle_solve,
    orientation_from_tails,
    prescription_ok,
    random_prescription,
    residue,
)
from crossflow.pgr import serialize_graph
from crossflow.solver import solve


def enumerate_all_orientations(g, p, forced=None):
    """Every valid orientation, by brute product over free edges.

    ``forced`` maps edge -> (tail, head).  No pruning: 2^(free edges)
    candidates each checked vertex by vertex.  Keep it under ~16 edges.
    """
    forced = dict(forced or {})
    free = [e for e in sorted(g.edges) if e not in forced]
    hits = []
    for bits in product((0, 1), repeat=len(free)):
        direction = dict(forced)
        for e, b in zip(free, bits):
            u, v = g.edges[e]
            direction[e] = (u, v) if b == 0 else (v, u)
        net = {v: 0 for v in g.vertices}
        for t, h in direction.values():
            net[t] -= 1
            net[h] += 1
        if all((net[v] - p[v]) % 3 == 0 for v in g.vertices):
            hits.append(direction)
    return hits


def _forced_from_darcs(g):
    out = {}
    for e, way in g.darcs.items():
        u, v = g.edges[e]
        other = v if u == g.dvertex else u
        out[e] = (g.dvertex, other) if way == "out" else (other, g.dvertex)
    return out


# ----------------------------------------------------------------- validity


def test_residue_triangle_cycle():
    g = triangle()
    o = orientation_from_tails(g, {0: 0, 1: 1, 2: 2})
    assert all(residue(g, o, v) == 0 for v in g.vertices)
    assert is_valid_orientation(g, {v: 0 for v in g.vertices}, o)


def test_partial_orientation_rejected():
    g = triangle()
    o = Orientation(direction={0: (0, 1)})
    with pytest.raises(OrientationError):
        is_valid_orientation(g, {v: 0 for v in g.vertices}, o)


def test_orientation_from_tails_rejects_non_endpoint():
    g = triangle()
    with pytest.raises(OrientationError):
        orientation_from_tails(g, {0: 2, 1: 1, 2: 2})


def test_prescription_ok():
    g = triangle()
    assert prescription_ok(g, {0: 0, 1: 1, 2: -1})
    assert not prescription_ok(g, {0: 1, 1: 1, 2: 0})  # sum 2
    assert not prescription_ok(g, {0: 3, 1: 0, 2: 0})  # out of range
    assert not prescription_ok(g, {0: 0, 1: 0})  # missing vertex


def test_random_prescription_always_valid():
    g = gen_circulant_b(9)
    for seed in range(50):
        assert prescription_ok(g, random_prescription(g, seed))


def test_sized_residue_draw_is_the_scalar_stream():
    # _draw_prescription makes one sized integers call where it made one
    # scalar call per vertex
    for seed in range(5):
        for k in (0, 1, 2, 7, 400):
            a = np.random.default_rng(seed)
            b = np.random.default_rng(seed)
            drawn = a.integers(-1, 2, size=k).tolist()
            assert drawn == [int(b.integers(-1, 2)) for _ in range(k)]
            assert a.bit_generator.state == b.bit_generator.state


# sha256 over the .pgr text of B_i and of A_i, for i in {5, 51, 401}, each
# with random_prescription(g, s) for s in 0..19
RANDOM_PRESCRIPTION_DIGEST = "b8eb2c007e4b4bf8233bbbfd0141b1f67cb33b8f459fb4215b47bae9c07890a5"


def test_random_prescriptions_are_pinned():
    h = hashlib.sha256()
    for i in (5, 51, 401):
        for g in (gen_circulant_b(i), gen_a(i)):
            for seed in range(20):
                h.update(serialize_graph(g, random_prescription(g, seed)).encode())
    assert h.hexdigest() == RANDOM_PRESCRIPTION_DIGEST, (
        f"prescriptions changed under numpy {np.__version__}: the pin follows "
        "numpy's default_rng stream, which NEP 19 does not promise to keep "
        "across numpy versions"
    )


def test_edge_reversal_shifts_residues_oppositely():
    g = cycle_graph(4)
    o = orientation_from_tails(g, {e: g.edges[e][0] for e in g.edges})
    t, h = o.direction[0]
    flipped = Orientation(direction={**o.direction, 0: (h, t)})
    # reversal moves 2 units of net flow, i.e. -1/+1 mod 3 at the ends
    assert (residue(g, flipped, t) - residue(g, o, t)) % 3 == 2
    assert (residue(g, flipped, h) - residue(g, o, h)) % 3 == 1


def reference_is_valid(g, p, o):
    """is_valid_orientation as it was written first: residue() at every
    vertex, which walks the vertex's darts.  The least undirected edge and
    a malformed prescription are named; a total off 0 mod 3 needs no test
    of its own, since some vertex then misses its residue."""
    if not o.is_total_for(g):
        raise OrientationError(f"edge {min(set(g.edges) - set(o.direction))} is undirected")
    _check_prescription(g, p)
    for e, (t, h) in o.direction.items():
        if {t, h} != set(g.edges[e]):
            raise OrientationError(f"edge {e} directed between non-endpoints")
    for v in g.rotation:
        if (residue(g, o, v) - p[v]) % 3 != 0:
            return False
    for e, way in g.darcs.items():
        t = o.direction[e][0]
        if way == "out" and t != g.dvertex:
            return False
        if way == "in" and t == g.dvertex:
            return False
    return True


def _answer(fn, *args):
    try:
        return fn(*args)
    except OrientationError as exc:  # the class and the message are compared
        return type(exc), str(exc)


def test_is_valid_orientation_matches_residue_reference():
    # random multigraphs, a third with a loop, half with forced arcs;
    # orientations total or not, sometimes with an edge directed to a
    # non-endpoint; prescriptions met by the orientation, random, with a
    # total off 0 mod 3, or malformed: the same bool or the same error as
    # the reference
    rng = np.random.default_rng(5)
    answers = Counter()
    off_total = 0
    for seed in range(1500):
        g = random_multigraph(seed)
        verts = g.vertices
        if seed % 3 == 0:
            v, e = int(rng.choice(verts)), max(g.edges) + 1
            g.edges[e], g.sign[e] = (v, v), 1
            g.rotation[v][1:1] = [(e, 0), (e, 1)]
        if seed % 2:
            d = int(rng.choice(verts))
            g.dvertex = d
            g.darcs = {e: str(rng.choice(["in", "out"])) for e in g.incident(d) if rng.random() < 0.6}
        direction = {e: (uv if rng.random() < 0.5 else uv[::-1]) for e, uv in g.edges.items()}
        net = {v: 0 for v in verts}
        for t, h in direction.values():
            net[t] -= 1
            net[h] += 1
        fault = rng.random()
        if fault < 0.1:
            del direction[int(rng.choice(sorted(direction)))]
        elif fault < 0.2:
            e = int(rng.choice(sorted(direction)))
            direction[e] = (direction[e][0], max(verts) + 1)
        o = Orientation(direction=direction)
        pick = rng.random()
        p = random_prescription(g, seed)
        if pick < 0.5:
            p = {v: (r + 1) % 3 - 1 for v, r in net.items()}
        elif pick >= 0.95:
            del p[verts[-1]]
        elif pick >= 0.9:
            p[verts[0]] = 2
        elif pick >= 0.8:
            p[verts[0]] = (p[verts[0]] + 2) % 3 - 1  # the total is off 0 mod 3
        want = _answer(reference_is_valid, g, p, o)
        assert _answer(is_valid_orientation, g, p, o) == want, f"seed {seed}"
        if 0.8 <= pick < 0.9 and isinstance(want, bool):
            assert want is False, f"seed {seed}"  # no orientation meets that total
            off_total += 1
        answers[want if isinstance(want, bool) else re.sub(r"-?\d+", "N", want[1])] += 1
    assert {
        True,
        False,
        "edge N is undirected",
        "edge N directed between non-endpoints",
        "residue must be N, N or N, got N at vertex N",
        "prescription misses vertex N",
    } <= set(answers), answers
    assert off_total >= 100, off_total


# ------------------------------------------------------------------- oracle


def test_triangle_count_frozen():
    g = triangle()
    p = {v: 0 for v in g.vertices}
    assert count_valid(g, p) == 2  # the two rotational orientations
    assert len(enumerate_all_orientations(g, p)) == 2


def test_square_count_frozen():
    g = cycle_graph(4)
    p = {v: 0 for v in g.vertices}
    assert count_valid(g, p) == 2
    assert len(enumerate_all_orientations(g, p)) == 2


def test_oracle_directs_loops_at_their_vertex():
    g = triangle_with_loop()
    p = {v: 0 for v in g.vertices}
    o = oracle_solve(g, p)  # the loop is not a free edge
    assert o.direction == {0: (0, 1), 1: (1, 2), 2: (2, 0), 3: (0, 0)}
    assert is_valid_orientation(g, p, o)
    assert count_valid(g, p) == 1
    assert oracle_solve(g, {0: -1, 1: 1, 2: 0}) is None  # 0 sends edge 0 out


@pytest.mark.parametrize("way", ["in", "out"])
def test_oracle_on_a_forced_loop_matches_bruteforce(way):
    # a loop's tail is its vertex either way round, so a loop forced "in"
    # at the directed vertex admits no valid orientation, and one forced
    # "out" costs nothing
    g = triangle_with_loop()
    g.darcs = {0: "out", 3: way}
    found = 0
    for values in product((-1, 0, 1), repeat=3):
        p = dict(zip(g.vertices, values))
        if not prescription_ok(g, p):
            continue
        brute = any(
            is_valid_orientation(g, p, Orientation(direction=dict(zip(g.edges, pick))))
            for pick in product(*({uv, uv[::-1]} for uv in g.edges.values()))
        )
        o = oracle_solve(g, p)
        assert (o is not None) == brute, p
        assert o is None or is_valid_orientation(g, p, o)
        found += brute
    assert (found > 0) == (way == "out")


def test_oracle_agrees_with_bruteforce():
    for seed in range(40):
        g = random_multigraph(seed, max_vertices=6, max_extra=4)
        if len(g.edges) > 14:
            continue
        p = random_prescription(g, seed)
        all_o = enumerate_all_orientations(g, p)
        assert count_valid(g, p) == len(all_o), f"seed {seed}"
        got = oracle_solve(g, p)
        assert (got is not None) == bool(all_o), f"seed {seed}"
        if got is not None:
            assert is_valid_orientation(g, p, got)


def test_oracle_first_hit_is_deterministic():
    g, p = gen_random_pt(2, 8)
    a = oracle_solve(g, p)
    b = oracle_solve(g, p)
    assert a.direction == b.direction


def test_oracle_respects_forced_arcs():
    g, p, dspec = gen_counterexample(0)
    forced = _forced_from_darcs(g)
    brute = enumerate_all_orientations(g, p, forced=forced)
    assert brute == []
    assert oracle_solve(g, p) is None


def test_counterexample_solvable_without_directed_vertex():
    g, p, dspec = gen_counterexample(0)
    g2 = g.copy()
    g2.dvertex = None
    g2.darcs = {}
    got = oracle_solve(g2, p)
    assert got is not None and is_valid_orientation(g2, p, got)


def test_oracle_reads_witness_past_old_threshold(monkeypatch):
    # B51 has 102 free edges, far past the free-edge threshold that used to
    # bound the witness search; the DP reads the witness from its one run
    g = gen_circulant_b(51)
    runs = _count_calls(monkeypatch, orient._frontier_first)
    for s in (0, 1):
        p = random_prescription(g, s)
        o = oracle_solve(g, p)
        assert o is not None and is_valid_orientation(g, p, o), s
        assert len(runs) == s + 1, s


def test_oracle_decides_none_past_the_bound():
    # CE1: 32 free edges, no valid orientation; the DP decides it whatever
    # the free-edge count
    g, p, dspec = gen_counterexample(1)
    assert oracle_solve(g, p) is None


def test_frontier_state_budget_refuses():
    # K11: no vertex closes before the last one is visited, so the frontier
    # grows to 11 vertices with free residues, up to 3^10 states a step
    edges = {}
    for u in range(11):
        for v in range(u + 1, 11):
            edges[len(edges)] = (u, v)
    g = build_graph(edges)
    with pytest.raises(OracleBoundError, match="budget of 262144 states at frontier width"):
        oracle_solve(g, {v: 0 for v in g.vertices})


def test_oracle_reads_witness_near_the_state_budget():
    # K11 minus a 5-edge matching: the one DP run creates about 154000 of
    # the 262144 states, and reads the witness back through them
    missing = {(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)}
    edges = {}
    for u in range(11):
        for v in range(u + 1, 11):
            if (u, v) not in missing:
                edges[len(edges)] = (u, v)
    g = build_graph(edges)
    p = random_prescription(g, 0)
    start = time.perf_counter()
    o = oracle_solve(g, p)
    assert time.perf_counter() - start < 20
    assert o is not None and is_valid_orientation(g, p, o)


def _without_partial(g, p, partial):
    """The instance with the edges ``partial`` directs (edge -> (tail,
    head)) deleted and their contribution moved into the prescription: the
    same completions."""
    h = g.copy()
    q = dict(p)
    for e, (t, hd) in partial.items():
        q[t] += 1  # the rest must make up the -1 the tail already has
        q[hd] -= 1
        del h.edges[e]
        del h.sign[e]
    for v in h.rotation:
        h.rotation[v] = [d for d in h.rotation[v] if d[0] in h.edges]
    return h, {v: (r + 1) % 3 - 1 for v, r in q.items()}


def _first_witness(g, p):
    """The free edges' directions in the backtracker's first witness, read
    from the instance lists of the reference builder."""
    free, lo, hi, cur, tgt = reference_oracle_lists(g, p, reference_forced_arcs(g))
    und = free_edge_counts(len(cur), lo, hi)
    out = np.zeros(len(free), dtype=np.int8)
    assert _kernels.orient_search(lo, hi, cur, und, tgt, 0, out)
    verts = g.vertices
    return {
        e: (verts[lo[j]], verts[hi[j]]) if out[j] == 1 else (verts[hi[j]], verts[lo[j]])
        for j, e in enumerate(free)
    }


def test_frontier_dp_agrees_with_count_valid():
    # any genus, random prescriptions, forced arcs at a random directed
    # vertex and a random partial orientation, whose edges are deleted and
    # moved into the prescription: on that instance the oracle answers None
    # exactly when the backtracker counts no completion, and otherwise a
    # valid orientation extending the forced arcs, equal to the first one
    # the backtracker reads, that with the partial one is valid on the
    # whole graph
    rng = np.random.default_rng(7)
    decided = {True: 0, False: 0}
    for seed in range(1000):
        g = random_multigraph(seed, max_vertices=8, max_extra=10)  # <= 18 edges
        p = random_prescription(g, seed)
        d = int(rng.choice(g.vertices))
        arcs = {
            e: ("in" if rng.random() < 0.5 else "out")
            for e in g.incident(d)
            if rng.random() < 0.7
        }
        if arcs:
            g.dvertex, g.darcs = d, arcs
        partial = {}
        for e in sorted(g.edges):
            if e not in g.darcs and rng.random() < 0.25:
                u, v = g.edges[e]
                partial[e] = (u, v) if rng.random() < 0.5 else (v, u)
        h, q = _without_partial(g, p, partial)
        want = count_valid(h, q)
        got = oracle_solve(h, q)
        assert (got is not None) == (want > 0), f"seed {seed}"
        if got is not None:
            assert is_valid_orientation(h, q, got), f"seed {seed}"
            whole = Orientation(direction={**got.direction, **partial})
            assert is_valid_orientation(g, p, whole), f"seed {seed}"
            first = _first_witness(h, q)
            assert {e: got.direction[e] for e in first} == first, f"seed {seed}"
        decided[got is not None] += 1
    assert min(decided.values()) > 200


def _oracle_outcome(oracle, g, p):
    """What ``oracle`` answers: its directions and forced arcs, None, or
    the refusal's message."""
    try:
        o = oracle(g, p)
    except OracleBoundError as err:
        return str(err)
    return None if o is None else (o.direction, o.fixed)


def test_oracle_matches_the_self_reduction_reference(monkeypatch):
    # the one-run read gives the witness, the None and the refusal that one
    # decision run and one run per free edge gave: on the oracle calls made
    # while solving corpus seeds 0..399, random multigraphs, B_i and A_i
    # under three prescriptions each, CE0-CE5, and K11 past the budget
    calls = []
    real = orient.oracle_solve

    def recorded(g, p):
        calls.append((g.copy(), dict(p)))
        return real(g, p)

    with monkeypatch.context() as m:
        _replace_everywhere(m, real, recorded)
        for seed in range(400):
            solve(*gen_random_pt(seed, 12))
    assert len(calls) == 1357
    cases = list(calls)
    for seed in range(3000):
        g = random_multigraph(seed)
        cases.append((g, random_prescription(g, seed)))
    for i in range(5, 52, 2):
        for g in (gen_circulant_b(i), gen_a(i)):
            zero = {v: 0 for v in g.vertices}
            cases += [(g, q) for q in (zero, random_prescription(g, 0), random_prescription(g, 1))]
    cases += [gen_counterexample(k)[:2] for k in range(6)]
    k11 = build_graph(dict(enumerate((u, v) for u in range(11) for v in range(u + 1, 11))))
    cases.append((k11, {v: 0 for v in k11.vertices}))
    outcomes = Counter()
    for g, p in cases:
        got = _oracle_outcome(oracle_solve, g, p)
        assert got == _oracle_outcome(reference_oracle_solve, g, p)
        outcomes[type(got).__name__] += 1
    assert outcomes["str"] == 1 and min(outcomes["NoneType"], outcomes["tuple"]) > 1000


class _DecisionDone(Exception):
    pass


def _decision_states(monkeypatch, g, p):
    """The least budget under which the oracle's one DP run finishes,
    found by bisection, each try stopped once the run returns."""
    decide = orient._frontier_first

    def decision_only(*args):
        decide(*args)
        raise _DecisionDone

    with monkeypatch.context() as m:
        m.setattr(orient, "_frontier_first", decision_only)
        lo, hi = 0, orient._FRONTIER_STATE_BUDGET
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            m.setattr(orient, "_FRONTIER_STATE_BUDGET", mid)
            try:
                oracle_solve(g, p)
            except _DecisionDone:
                hi = mid
            except OracleBoundError:
                lo = mid
    return hi


def test_witness_read_fits_the_decision_budget(monkeypatch):
    # with the budget cut to what the DP run needs to decide, the witness
    # is still read, and it is the witness read under the full budget: the
    # read walks back through the states the run kept and creates none
    orientable = 0
    for seed in range(200):
        g = random_multigraph(seed, max_vertices=9, max_extra=8)
        p = random_prescription(g, seed)
        full = oracle_solve(g, p)
        if full is None:
            continue
        orientable += 1
        budget = _decision_states(monkeypatch, g, p)
        monkeypatch.setattr(orient, "_FRONTIER_STATE_BUDGET", budget)
        assert oracle_solve(g, p) == full, f"seed {seed}"
        monkeypatch.setattr(orient, "_FRONTIER_STATE_BUDGET", budget - 1)
        with pytest.raises(OracleBoundError):
            oracle_solve(g, p)
        monkeypatch.undo()
    assert orientable > 100


def test_decision_run_state_counts_pinned(monkeypatch):
    # the DP's vertex and edge order sets how many states a decision makes,
    # and so which instances the budget refuses: these counts must not move
    cases = [(*gen_counterexample(k)[:2], want) for k, want in enumerate((226, 460, 694, 928))]
    for seed, want in ((64, 71), (90, 13), (146, 89)):
        g = random_multigraph(seed, max_vertices=9, max_extra=8)
        cases.append((g, random_prescription(g, seed), want))
    b21 = gen_circulant_b(21)
    cases.append((b21, {v: 0 for v in b21.vertices}, 914))
    for g, p, want in cases:
        assert _decision_states(monkeypatch, g, p) == want


def test_oracle_rejects_a_wrong_kernel_hit(monkeypatch):
    # the check must be an explicit raise, so that it also holds under -O:
    # a DP that always answers mask 0 makes every edge tail-at-lower, which
    # gives residues 1, 0, -1; with every residue 1 the triangle has no
    # valid orientation
    monkeypatch.setattr(orient, "_frontier_first", lambda *_: 0)
    with pytest.raises(OrientationError):
        oracle_solve(triangle(), {0: 1, 1: 1, 2: 1})


def test_invalid_prescription_short_circuits():
    g = triangle()
    assert oracle_solve(g, {0: 1, 1: 0, 2: 0}) is None


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5_000))
def test_count_matches_bruteforce_property(seed):
    g = random_multigraph(seed, max_vertices=5, max_extra=3)
    if len(g.edges) > 12:
        return
    p = random_prescription(g, seed + 1)
    assert count_valid(g, p) == len(enumerate_all_orientations(g, p))


def test_only_the_tests_reach_the_backtracking_kernels():
    # the backtracking search and the bipartition scan are test
    # references: no other module of the package imports or names them
    package = Path(orient.__file__).parent
    naming = [
        path.name
        for path in sorted(package.glob("*.py"))
        if path.name != "_kernels.py" and "_kernels" in path.read_text()
    ]
    assert naming == []


# ------------------------------------------------------------------- greedy


def test_greedy_b5_sample_prescriptions():
    g = gen_circulant_b(5)
    lifts, order = circulant_schedule(g, 5, with_subdivision=False)
    for seed in range(12):
        p = random_prescription(g, seed)
        o, _ = greedy_direct_and_delete(g, p, lifts, order)
        assert is_valid_orientation(g, p, o)


def test_greedy_a7_sample_prescriptions():
    g = gen_a(7)
    lifts, order = circulant_schedule(g, 7, with_subdivision=True)
    for seed in range(12):
        p = random_prescription(g, seed)
        o, _ = greedy_direct_and_delete(g, p, lifts, order)
        assert is_valid_orientation(g, p, o)


def _logged_steps_model(g, lifts, order):
    """The steps a lift-then-sweep schedule should return, from a working
    edge dict rebuilt whole at every step."""
    work = dict(g.edges)
    next_id = g.next_edge_id()
    steps = []
    for e1, e2, v in lifts:
        (a, b), (c, d) = work.pop(e1), work.pop(e2)
        work[next_id] = (b if a == v else a, d if c == v else c)
        next_id += 1
        steps.append(("LiftPair", (e1, e2, v), _abstract_digest(work)))
    for v in order:
        work = {e: uv for e, uv in work.items() if v not in uv}
        steps.append(("OrientDeleteVertex", (v,), _abstract_digest(work)))
    return steps


def test_greedy_step_log_kinds():
    cases = []
    for i in (5, 7, 9, 21, 51):
        for gen, subdivided in ((gen_circulant_b, False), (gen_a, True)):
            g = gen(i)
            cases.append((g, *circulant_schedule(g, i, with_subdivision=subdivided)))
    # parsed graphs need not insert edges in id order
    g, lifts, order = cases[2]
    shuffled = g.copy()
    shuffled.edges = {e: g.edges[e] for e in sorted(g.edges, reverse=True)}
    cases.append((shuffled, lifts, order))
    for g, lifts, order in cases:
        model = _logged_steps_model(g, lifts, order)
        prescriptions = [{v: 0 for v in g.vertices}]
        prescriptions += [random_prescription(g, seed) for seed in range(3)]
        for p in prescriptions:
            o, steps = greedy_direct_and_delete(g, p, lifts, order)
            assert is_valid_orientation(g, p, o)
            got = [(st.kind, st.arguments, st.result_digest) for st in steps]
            assert {k for k, _, _ in got} == {"LiftPair", "OrientDeleteVertex"}
            assert got == model


def test_greedy_rejects_missing_vertex():
    g = gen_circulant_b(5)
    lifts, order = circulant_schedule(g, 5, with_subdivision=False)
    with pytest.raises(ScheduleError):
        greedy_direct_and_delete(g, {v: 0 for v in g.vertices}, lifts, order + [99])


def test_greedy_rejects_incomplete_sweep():
    g = gen_circulant_b(5)
    with pytest.raises(ScheduleError):
        greedy_direct_and_delete(g, {v: 0 for v in g.vertices}, [], [1, 2])


def test_greedy_refuses_forced_arcs():
    g, p, dspec = gen_counterexample(0)
    with pytest.raises(ScheduleError):
        greedy_direct_and_delete(g, p, [], list(g.vertices))


def test_greedy_unreachable_residue_names_vertex():
    # a pendant vertex with one edge cannot keep residue 0: either
    # direction moves it to +1 or -1
    g = EmbeddedGraph(
        edges={0: (0, 1), 1: (1, 2), 2: (2, 0), 3: (0, 3)},
        sign={0: 1, 1: 1, 2: 1, 3: 1},
        rotation={
            0: [(0, 0), (2, 1), (3, 0)],
            1: [(0, 1), (1, 0)],
            2: [(1, 1), (2, 0)],
            3: [(3, 1)],
        },
    )
    p = {0: 0, 1: 1, 2: -1, 3: 0}
    with pytest.raises(ScheduleError) as exc:
        greedy_direct_and_delete(g, p, [], [3, 0, 1, 2])
    assert exc.value.vertex == 3
