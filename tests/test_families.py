"""Instance generators: circulant families, the counterexample family,
and the random projective corpus.

The degree sequences, edge totals, and characteristic values asserted
here were worked out by hand from the constructions before checking
them against the code.
"""

import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest

from conftest import _count_calls, _record_candidates
from crossflow import cuts, embedding
from crossflow.cuts import check_class, edge_connectivity
from crossflow.embedding import (
    boundary_cycle,
    euler_characteristic,
    specified_walk,
    trace_faces,
)
from crossflow.families import (
    FamilyError,
    _choice,
    _float64_sum,
    circulant_schedule,
    disk_crosscap_graph,
    gen_a,
    gen_circulant_b,
    gen_counterexample,
    gen_random_pt,
)
from crossflow.orient import (
    _draw_prescription,
    greedy_direct_and_delete,
    is_valid_orientation,
    oracle_solve,
    prescription_ok,
    random_prescription,
)
from crossflow.pgr import serialize_graph


# -------------------------------------------------------------- B family


def test_b5_is_k5():
    g = gen_circulant_b(5)
    assert len(g.vertices) == 5
    assert len(g.edges) == 10
    for u in g.vertices:
        for v in g.vertices:
            if u < v:
                assert len(g.edges_between(u, v)) == 1
    assert euler_characteristic(g) == 1


def test_b_family_shape():
    for i in (5, 7, 9, 11, 13):
        g = gen_circulant_b(i)
        assert len(g.vertices) == i
        assert len(g.edges) == 2 * i
        assert all(g.degree(v) == 4 for v in g.vertices)
        assert euler_characteristic(g) == 1
        walk = specified_walk(g)
        assert walk.length == i
        assert sorted(walk.tails) == list(range(1, i + 1))


def test_b_boundary_edges_positive_chords_negative():
    g = gen_circulant_b(7)
    walk_edges = specified_walk(g).edge_ids()
    for e in g.edges:
        assert g.sign[e] == (1 if e in walk_edges else -1)


def test_b_rejects_bad_index():
    for i in (3, 4, 6):
        with pytest.raises(FamilyError):
            gen_circulant_b(i)


# -------------------------------------------------------------- A family


def test_a_family_shape():
    for i in (5, 7, 9):
        g = gen_a(i)
        assert len(g.vertices) == i + 1
        assert len(g.edges) == 2 * i + 2
        degs = Counter(g.degree(v) for v in g.vertices)
        assert degs == {3: 1, 4: i - 1, 5: 1}
        assert g.tvertex == 0 and g.degree(0) == 3
        assert euler_characteristic(g) == 1
        assert specified_walk(g).length == i + 1


def test_a_subdivider_on_boundary():
    g = gen_a(7)
    cyc = boundary_cycle(g)
    assert 0 in cyc
    k = cyc.index(0)
    assert {cyc[k - 1], cyc[(k + 1) % len(cyc)]} == {1, 7}


# -------------------------------------------------------- counterexample


def test_counterexample_zero_published_facts():
    g, p, dspec = gen_counterexample(0)
    n = 5
    assert len(g.vertices) == 2 * n + 2 == 12
    assert len(g.edges) == 4 * n + 4 == 24
    degs = Counter(g.degree(v) for v in g.vertices)
    assert degs == {3: 1, 4: 2 * n, 5: 1}
    assert g.degree(g.tvertex) == 3
    assert g.degree(g.dvertex) == 4
    assert euler_characteristic(g) == 1
    assert specified_walk(g).length == 2 * n + 2
    # prescription: 0 at t and w, -1 at u1 and d, +1 elsewhere; total 6
    t, u1, w = 0, 1, n + 1  # the ids the docstring fixes
    assert g.tvertex == t
    assert p[t] == 0 and p[w] == 0
    assert p[u1] == -1 and p[g.dvertex] == -1
    assert sum(p.values()) == 6
    assert prescription_ok(g, p)
    # all four forced arcs leave d
    assert set(g.darcs) == set(g.incident(g.dvertex))
    assert all(way == "out" for way in g.darcs.values())
    assert dspec.vertex == g.dvertex
    assert dspec.residue() == -1  # indeg - outdeg = -4


def test_counterexample_family_scales():
    for k in (0, 1, 2):
        g, p, dspec = gen_counterexample(k)
        n = 3 * k + 5
        assert len(g.vertices) == 2 * n + 2
        assert len(g.edges) == 4 * n + 4
        assert euler_characteristic(g) == 1
        assert sum(p.values()) == 6 * k + 6
        assert prescription_ok(g, p)


def test_counterexample_is_pt_without_d():
    g, p, dspec = gen_counterexample(0)
    h = g.copy()
    h.dvertex = None
    h.darcs = {}
    assert check_class(h, p, "pt").holds


def test_counterexample_connectivity():
    g, p, dspec = gen_counterexample(0)
    assert edge_connectivity(g) == 3


# ------------------------------------------------------------- schedules


def test_schedule_solves_b_samples():
    for i in (5, 9):
        g = gen_circulant_b(i)
        lifts, order = circulant_schedule(g, i, with_subdivision=False)
        for seed in range(10):
            p = random_prescription(g, seed)
            o, _ = greedy_direct_and_delete(g, p, lifts, order)
            assert is_valid_orientation(g, p, o)


def test_schedule_solves_a_samples():
    for i in (5, 9):
        g = gen_a(i)
        lifts, order = circulant_schedule(g, i, with_subdivision=True)
        for seed in range(10):
            p = random_prescription(g, seed)
            o, _ = greedy_direct_and_delete(g, p, lifts, order)
            assert is_valid_orientation(g, p, o)


def test_schedule_posmap_relabelling():
    g = gen_circulant_b(7)
    shift = {v: (v % 7) + 10 for v in g.vertices}  # rename 1..7 -> 11..17,10
    h = g.copy()
    h.edges = {e: (shift[u], shift[v]) for e, (u, v) in g.edges.items()}
    h.rotation = {shift[v]: list(r) for v, r in g.rotation.items()}
    h.validate()
    posmap = {j: shift[j] for j in range(1, 8)}
    lifts, order = circulant_schedule(h, 7, with_subdivision=False, posmap=posmap)
    p = random_prescription(h, 1)
    o, _ = greedy_direct_and_delete(h, p, lifts, order)
    assert is_valid_orientation(h, p, o)


class _ScanCountingDict(dict):
    """A dict that counts the scans over its keys, values or items."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()

    def keys(self):
        self.scans += 1
        return super().keys()

    def values(self):
        self.scans += 1
        return super().values()

    def items(self):
        self.scans += 1
        return super().items()


def test_circulant_schedule_does_not_scan_the_edges():
    g = gen_a(401)
    want = circulant_schedule(g, 401, with_subdivision=True)
    g.edges = _ScanCountingDict(g.edges)
    assert circulant_schedule(g, 401, with_subdivision=True) == want
    assert g.edges.scans == 0


# ---------------------------------------------------------- random corpus


def test_random_pt_instances_pass_class_check():
    for seed in range(40):
        g, p = gen_random_pt(seed, 9)
        assert check_class(g, p, "pt").holds
        assert euler_characteristic(g) == 1
        assert len(g.vertices) <= 9
        assert prescription_ok(g, p)


def test_random_pt_reaches_check_class(monkeypatch):
    # The generator vets its instances through the public class check, so a
    # wrapper around that name (a solvebench span) sees the set-up's checks.
    calls = _count_calls(monkeypatch, check_class)
    for seed in range(20):
        gen_random_pt(seed, 12)
    assert len(calls) >= 20


def test_random_pt_deterministic():
    a_g, a_p = gen_random_pt(17, 9)
    b_g, b_p = gen_random_pt(17, 9)
    assert a_g == b_g and a_p == b_p


def test_random_pt_varies_with_seed():
    g0, _ = gen_random_pt(0, 9)
    g1, _ = gen_random_pt(1, 9)
    assert g0 != g1


def test_random_pt_bounds_enforced():
    with pytest.raises(FamilyError):
        gen_random_pt(0, 3)
    with pytest.raises(FamilyError):
        gen_random_pt(0, 13)


def test_random_pt_instances_solvable():
    for seed in range(25):
        g, p = gen_random_pt(seed, 8)
        o = oracle_solve(g, p)
        assert o is not None and is_valid_orientation(g, p, o)


def test_random_pt_keeps_exactly_the_projective_candidates(monkeypatch):
    # The generator keeps a candidate when its chords are the antipodal
    # pairing of its stubs.  The reference is the rule that comparison
    # replaced: the pairing used every stub, and the layout has Euler
    # characteristic 1, counted (a layout that fails to build is not 1).
    # A stranded pairing's partial layout can be projective, so the
    # reference needs the completeness half.
    candidates = _record_candidates(monkeypatch)
    for cap in (5, 9, 12):
        for seed in range(60):
            gen_random_pt(seed, cap)
    kinds = Counter()
    for cycle, want, chords, antipodal in candidates:
        try:
            chi = euler_characteristic(disk_crosscap_graph(cycle, chords))
        except FamilyError:
            chi = None
        complete = 2 * len(chords) == sum(w - 2 for w in want)
        assert antipodal == (complete and chi == 1), (cycle, want, chords)
        kinds[antipodal, complete, chi == 1] += 1
    assert kinds[True, True, True] >= 180
    assert kinds[False, True, False] and kinds[False, False, True], kinds


def test_random_pt_lays_out_and_counts_only_the_instances(monkeypatch):
    # only a kept candidate is laid out, and the class check alone counts
    # its surface; on these seeds the first kept candidate always passes
    builds = _count_calls(monkeypatch, disk_crosscap_graph)
    counts = _count_calls(monkeypatch, euler_characteristic)
    for seed in range(100):
        gen_random_pt(seed, 12)
    assert (len(builds), len(counts)) == (100, 100)


def test_random_pt_vets_with_one_cut_scan_and_one_connectivity_search(monkeypatch):
    # check_class reads edge connectivity from its own 3-cut scan, learns
    # connectivity from the chi count and walks the one face once, so
    # vetting an instance runs no max-flow, one connectivity search and
    # one face walk (536, 300 and 200 over these seeds before)
    flows = _count_calls(monkeypatch, cuts._max_flow)
    scans = _count_calls(monkeypatch, cuts._scan_masks)
    searches = _count_calls(monkeypatch, embedding._induced_connected)
    walks = _count_calls(monkeypatch, embedding.specified_walk)
    for seed in range(100):
        gen_random_pt(seed, 12)
    counts = len(flows), len(scans), len(searches), len(walks)
    assert counts == (0, 100, 100, 100)


# _face_step calls while generating corpus seeds 0..99 at cap 12, 2640 of
# them in the class check's chi count (6,897 while a face count walked
# both orbits of each face)
GENERATED_FACE_STEPS = 4_257


def test_random_pt_face_work_is_bounded(monkeypatch):
    steps = _count_calls(monkeypatch, embedding._face_step)
    for seed in range(100):
        gen_random_pt(seed, 12)
    assert len(steps) <= GENERATED_FACE_STEPS


class _CountingRng:
    """A numpy Generator that counts its ``choice`` calls, and its
    ``integers(-1, 2, ...)`` calls by whether they pass ``size``."""

    def __init__(self, rng, calls):
        self._rng = rng
        self._calls = calls

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def choice(self, *args, **kwargs):
        self._calls["choice"] += 1
        return self._rng.choice(*args, **kwargs)

    def integers(self, *args, **kwargs):
        if args[:2] == (-1, 2):
            self._calls["sized" if "size" in kwargs else "scalar"] += 1
        return self._rng.integers(*args, **kwargs)


def test_random_pt_draws_without_choice_and_one_call_per_prescription(monkeypatch):
    # the chord draw reads one random() double per chord, and a prescription
    # is one sized integers call (6761 choice calls and 536 scalar
    # integers(-1, 2) calls over these seeds before)
    calls = Counter()
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _CountingRng(real(seed), calls))
    prescriptions = _count_calls(monkeypatch, _draw_prescription)
    for seed in range(100):
        gen_random_pt(seed, 12)
    assert len(prescriptions) >= 100
    assert calls == Counter(sized=len(prescriptions))


def _far_weights(n):
    return [(min(d, n - d) / n) ** 6 for d in range(1, n)]


def test_choice_matches_numpy_draw_for_draw():
    # lengths cross the pairwise sum's 8-, 16-, 128- and 129-term boundaries;
    # both generators must pick alike and leave the same state
    src = np.random.default_rng(2024)
    for length in range(1, 301):
        for weights in (_far_weights(length + 1), src.random(length).tolist()):
            a = np.random.default_rng(length)
            b = np.random.default_rng(length)
            w = np.array(weights)
            for _ in range(3):
                assert _choice(a, weights) == b.choice(length, p=w / w.sum())
            assert a.bit_generator.state == b.bit_generator.state


def test_float64_sum_is_numpys_sum():
    # terms of mixed magnitude, so the order of the additions shows
    src = np.random.default_rng(7)
    misses = 0
    for n in range(2001):
        w = src.random(n) * 10.0 ** src.integers(-8, 9, n)
        assert _float64_sum(w.tolist()) == float(np.add.reduce(w)), n
        running = 0.0
        for x in w.tolist():
            running += x
        misses += running != float(np.add.reduce(w))
    assert misses > 100  # a running sum is not numpy's order


# ----------------------------------------------------- geometric builder


def _stub_sequences(n):
    """Every stub count sequence the random generator can lay along n cycle
    vertices: 1..3 stubs each, at most one 1, an even total."""
    for stubs in itertools.product((1, 2, 3), repeat=n):
        if stubs.count(1) <= 1 and sum(stubs) % 2 == 0:
            yield stubs


def test_antipodal_layouts_build_and_are_projective():
    # gen_random_pt builds its kept candidates unguarded.  Heading sorts a
    # vertex's darts, and only parallel chords share a heading, so a chord
    # list can matter only through the order and orientation within each
    # group of parallel chords.  Layout i turns round the j-th chord of a
    # group of size k when bit j of i mod 2^k is set: every group meets every
    # such sequence.
    layouts = 0
    for n in range(5, 10):
        for stubs in _stub_sequences(n):
            ends = [v for v in range(n) for _ in range(stubs[v])]
            pairs = list(zip(ends, ends[len(ends) // 2 :]))
            size = Counter(pairs)
            for i in range(2 ** max(size.values())):
                chords, seen = [], Counter()
                for a, b in pairs:
                    turn = (i % 2 ** size[a, b]) >> seen[a, b] & 1
                    seen[a, b] += 1
                    chords.append((b, a) if turn else (a, b))
                g = disk_crosscap_graph(list(range(n)), chords)
                assert euler_characteristic(g) == 1, (stubs, chords)
                layouts += 1
    assert layouts == 13002


def test_disk_crosscap_postconditions():
    cycle = [3, 1, 4, 0, 2]
    chords = [(3, 0), (1, 2), (4, 2), (0, 1), (3, 4)]
    g = disk_crosscap_graph(cycle, chords)
    m = len(cycle)
    walk = specified_walk(g)
    assert walk.length == m
    assert walk.edge_ids() == set(range(m))
    for e in g.edges:
        assert g.sign[e] == (1 if e < m else -1)
    assert sum(f.length for f in trace_faces(g)) == 2 * len(g.edges)


# sha256 over the .pgr text, prescription included, of gen_random_pt(s, 12)
# for s in 0..199, B_i and A_i for i in {5, 7, 51} with the zero
# prescription, and CE_0..CE_3
GENERATED_TEXT_DIGEST = "f2a3357f7b8a20ee5d77786e64b39882a9598b1e74a00b331d74ca11b92ccb74"


def test_generated_texts_are_pinned():
    h = hashlib.sha256()
    for seed in range(200):
        g, p = gen_random_pt(seed, 12)
        h.update(serialize_graph(g, p).encode())
    for i in (5, 7, 51):
        for g in (gen_circulant_b(i), gen_a(i)):
            h.update(serialize_graph(g, {v: 0 for v in g.rotation}).encode())
    for k in range(4):
        g, p, _ = gen_counterexample(k)
        h.update(serialize_graph(g, p).encode())
    assert h.hexdigest() == GENERATED_TEXT_DIGEST, (
        f"generated texts changed under numpy {np.__version__}: the pin follows "
        "numpy's default_rng stream, which NEP 19 does not promise to keep "
        "across numpy versions"
    )
