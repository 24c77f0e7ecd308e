"""Instance generators: circulant families, the counterexample family,
and the random projective corpus.

The degree sequences, edge totals, and characteristic values asserted
here were worked out by hand from the constructions before checking
them against the code.
"""

from collections import Counter

import pytest

from crossflow.cuts import check_class, edge_connectivity
from crossflow.embedding import (
    boundary_cycle,
    euler_characteristic,
    specified_walk,
    trace_faces,
)
from crossflow.families import (
    FamilyError,
    circulant_schedule,
    disk_crosscap_graph,
    gen_a,
    gen_circulant_b,
    gen_counterexample,
    gen_random_pt,
)
from crossflow.orient import (
    greedy_direct_and_delete,
    is_valid_orientation,
    oracle_solve,
    prescription_ok,
    random_prescription,
)


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
    by_label = {lbl: v for v, lbl in g.labels.items()}
    assert p[by_label["t"]] == 0 and p[by_label["w"]] == 0
    assert p[by_label["u1"]] == -1 and p[g.dvertex] == -1
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
    h.labels = {}
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


# ----------------------------------------------------- geometric builder


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
