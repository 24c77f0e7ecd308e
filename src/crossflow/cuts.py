"""Edge cuts: max-flow connectivity (``edge_connectivity``, the tests'
reference), small-cut enumeration, the Type 1/2/3 taxonomy against the
specified face, crossing tests, and one table-driven class check, which
reads edge connectivity below 3 from its own scan for 3-edge-cuts.

Small cuts are enumerated in polynomial time for a fixed cut size, on
any number of vertices, within a budget of search steps.  Both searches
grow connected pieces over neighbour bitmasks, most constrained vertex
first and pruned by one bit count: the full enumeration unites pieces
into every side; the bond search keeps pieces whose complement is
connected, never growing one through a vertex it must avoid.

Cut types count boundary edges of the specified face inside the cut:
Type 1 has none, Type 2 exactly two, Type 3 at least four (the count is
even because the boundary is a cycle).  A cut is robust when both sides
hold at least two vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .embedding import (
    DisconnectedError,
    EmbeddedGraph,
    OperationError,
    _balance_potentials,
    _cycle_of,
    _induced_connected,
    boundary_vertices,
    euler_characteristic,
    specified_walk,
)
from .orient import prescription_ok

# search steps (growth nodes plus union candidates) one small-cut search
# may take: about 0.4 s on one Xeon core (CPython 3.11), 0.5-0.75 us a step
_CUT_STEP_BUDGET = 1 << 19


class CutBudgetError(OperationError):
    """A small-cut enumeration would take more than _CUT_STEP_BUDGET steps."""


@dataclass(frozen=True)
class EdgeCut:
    """One edge cut, named by a side.  ``vertices`` is the graph's vertex
    set, so the complement is recoverable without the graph in hand.
    ``cut_type`` (1, 2 or 3) is None until ``classify_cut`` fills it."""

    side: frozenset[int]
    vertices: frozenset[int]
    edges: tuple[int, ...]
    size: int
    robust: bool
    cut_type: int | None = None

    @property
    def complement(self) -> frozenset[int]:
        return self.vertices - self.side


def cut_edges(g: EmbeddedGraph, side) -> tuple[int, ...]:
    side = set(side)
    return tuple(
        sorted(e for e, (u, v) in g.edges.items() if (u in side) != (v in side))
    )


def make_cut(g: EmbeddedGraph, side) -> EdgeCut:
    side = frozenset(side)
    verts = frozenset(g.rotation)
    if not side or not side < verts:
        raise OperationError("cut side must be a proper non-empty vertex subset")
    edges = cut_edges(g, side)
    return EdgeCut(
        side=side,
        vertices=verts,
        edges=edges,
        size=len(edges),
        robust=len(side) >= 2 and len(verts - side) >= 2,
    )


def _normal_side(g: EmbeddedGraph, side: frozenset[int]) -> bool:
    """Minimal-cut normal form: the side induces a connected subgraph, or
    is exactly two mutually non-adjacent vertices."""
    if _induced_connected(g, side):
        return True
    if len(side) != 2:
        return False
    a, b = side
    return not g.edges_between(a, b)


def _neighbour_masks(g: EmbeddedGraph) -> list[list[int]]:
    """Each vertex's neighbours as bitmasks, bit i standing for the i-th
    vertex in id order: mask k holds the vertices joined to it by more
    than k edges (loops left out), so the edges from vertex i to a vertex
    set S number ``sum((m & S).bit_count() for m in masks[i])``."""
    index = {v: i for i, v in enumerate(g.vertices)}
    masks = [[0] for _ in index]
    for u, v in g.edges.values():
        if u == v:
            continue
        a, b = index[u], index[v]
        row_a, row_b = masks[a], masks[b]
        k = 0  # the edges between a and b seen so far
        while k < len(row_a) and row_a[k] >> b & 1:
            k += 1
        if k == len(row_a):
            row_a.append(0)
        if k == len(row_b):
            row_b.append(0)
        row_a[k] |= 1 << b
        row_b[k] |= 1 << a
    return masks


def _over_budget(max_size: int, n: int) -> CutBudgetError:
    return CutBudgetError(
        f"small-cut search for cuts of size <= {max_size} on {n} vertices "
        f"exceeded {_CUT_STEP_BUDGET} steps"
    )


def _grow_pieces(
    nbr: list[list[int]], max_size: int, banned: int
) -> tuple[list[tuple[int, int, int]], int]:
    """Every connected vertex set that avoids the ``banned`` bitmask and
    cuts at most max_size edges, as (cut, mask, mask | neighbours), and
    the number of search steps (popped nodes) taken.

    A piece grows from its smallest vertex s, all smaller ones and the
    banned ones outside, by branching on an undecided neighbour w: inside,
    w's edges to the outside are cut; outside, its edges to the inside
    are.  w is the lowest undecided vertex in ``touch`` (the vertices next
    to the outside: most constrained first), else the lowest undecided
    one; any fixed rule grows each piece by exactly one decision path.  A
    node dies once its cut plus its undecided vertices in touch passes
    max_size: each will cut an edge of its own not yet counted, to the
    outside if it joins, to the inside if not.  Raises CutBudgetError
    past _CUT_STEP_BUDGET steps."""
    n = len(nbr)
    steps = 0
    pieces = []
    near = 0  # neighbours of the banned vertices and of those below s
    for i in _bits(banned):
        near |= nbr[i][0]
    for s in range(n):
        if banned >> s & 1:
            continue
        outside = (1 << s) - 1 | banned
        cut = sum((m & outside).bit_count() for m in nbr[s])
        stack = [(1 << s, outside, nbr[s][0], cut, near)] if cut <= max_size else []
        while stack:
            steps += 1
            if steps > _CUT_STEP_BUDGET:
                raise _over_budget(max_size, n)
            inside, outside, reach, cut, touch = stack.pop()
            undecided = reach & ~(inside | outside)
            if not undecided:
                pieces.append((cut, inside, inside | reach))
                continue
            forced = undecided & touch
            if cut + forced.bit_count() > max_size:
                continue
            pick = forced or undecided
            w = (pick & -pick).bit_length() - 1
            row = nbr[w]
            out_cut = in_cut = cut
            for m in row:
                out_cut += (m & inside).bit_count()
                in_cut += (m & outside).bit_count()
            if out_cut <= max_size:
                stack.append((inside, outside | 1 << w, reach, out_cut, touch | row[0]))
            if in_cut <= max_size:
                stack.append((inside | 1 << w, outside, reach | row[0], in_cut, touch))
        near |= nbr[s][0]
    return pieces, steps


def _scan_masks(g: EmbeddedGraph, max_size: int, min_side: int) -> list[frozenset[int]]:
    """All bipartition sides (as vertex frozensets, smallest vertex
    excluded) cutting at most max_size edges with both sides >= min_side,
    in ascending bitmask order over the other vertices.

    A side is a union of pairwise non-adjacent connected pieces and cuts
    the sum of their cuts (parallel edges with multiplicity, loops never).
    The pieces come from _grow_pieces with the smallest vertex banned.
    They are united in (cut, mask) order, so a union stops at the first
    piece whose cut does not fit.  Growth nodes and union candidates
    share one budget: raises CutBudgetError past _CUT_STEP_BUDGET steps."""
    verts = g.vertices
    n = len(verts)
    pieces, steps = _grow_pieces(_neighbour_masks(g), max_size, 1)
    pieces.sort()
    masks = []
    stack = [(0, 0, 0, 0)]  # (next piece, union, union | neighbours, cut)
    while stack:
        start, union, closed, cut = stack.pop()
        for i in range(start, len(pieces)):
            steps += 1
            if steps > _CUT_STEP_BUDGET:
                raise _over_budget(max_size, n)
            size, mask, near = pieces[i]
            if cut + size > max_size:
                break
            if not mask & closed:
                masks.append(union | mask)
                stack.append((i + 1, union | mask, closed | near, cut + size))
    orders = range(min_side, n - min_side + 1)
    return [
        frozenset(verts[i] for i in range(1, n) if mask >> i & 1)
        for mask in sorted(masks)
        if mask.bit_count() in orders
    ]


def _mask_connected(nbr: list[list[int]], mask: int) -> bool:
    """Whether the non-empty vertex bitmask induces a connected subgraph."""
    seen = todo = mask & -mask
    while todo:
        i = (todo & -todo).bit_length() - 1
        grown = nbr[i][0] & mask & ~seen
        seen |= grown
        todo = (todo | grown) & ~(1 << i)
    return seen == mask


def _bits(mask: int) -> list[int]:
    """The set bits in ascending order: a side's sorted vertices, as bit
    i stands for the i-th vertex in id order."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def smallest_bond_side(
    g: EmbeddedGraph, max_size: int, avoid: set[int]
) -> frozenset[int] | None:
    """A side of the first bond, in enumerate_robust_cuts order, whose
    cut has at most max_size edges, whose sides both hold at least two
    vertices and of which one side holds no vertex of ``avoid``; None
    when there is no such bond.  A bond is a non-empty cut whose two
    sides both induce connected subgraphs, so a disconnected graph has
    none: a piece that cuts no edge is skipped.

    The side returned is the one avoiding ``avoid``; with nothing to
    avoid, the smaller side by (order, sorted vertices).  The search grows
    connected pieces with _grow_pieces, the avoided vertices banned (the
    least vertex when there are none), so no side ever grows through
    them, and keeps a piece when its complement is connected too and its
    key (cut size, sorted side holding the least vertex) is the least so
    far.  It has no union phase: a union of non-adjacent pieces is never
    connected.  Each growth step costs a few ``int.bit_count`` calls;
    raises CutBudgetError past _CUT_STEP_BUDGET steps."""
    verts = g.vertices
    n = len(verts)
    if n < 4:
        return None
    nbr = _neighbour_masks(g)
    banned = sum(1 << verts.index(v) for v in set(avoid)) or 1
    full = (1 << n) - 1
    best = None  # (cut, sorted bits of the least vertex's side, piece)
    for cut, side, _ in _grow_pieces(nbr, max_size, banned)[0]:
        if not cut or not 2 <= side.bit_count() <= n - 2:
            continue
        if best is not None and cut > best[0]:
            continue
        comp = full & ~side
        if not _mask_connected(nbr, comp):
            continue
        key = (cut, _bits(side if side & 1 else comp))
        if best is None or key < best[:2]:
            best = (*key, side)
    if best is None:
        return None
    side = best[2]
    if not avoid:
        side = min(side, full & ~side, key=lambda m: (m.bit_count(), _bits(m)))
    return frozenset(verts[i] for i in _bits(side))


def enumerate_robust_cuts(
    g: EmbeddedGraph, max_size: int, min_side: int = 2
) -> list[EdgeCut]:
    """Every cut of size <= max_size whose sides both have >= min_side
    vertices and whose named side is in normal form; one entry per
    bipartition, the normal side named (lexicographically smaller when both
    qualify); sorted by (size, side).  Raises CutBudgetError when the
    enumeration outgrows its step budget."""
    vset = frozenset(g.rotation)
    if len(vset) < 2:
        return []
    out = []
    for side in _scan_masks(g, max_size, min_side):
        normal = [s for s in (side, vset - side) if _normal_side(g, s)]
        if normal:
            out.append(make_cut(g, min(normal, key=sorted)))
    out.sort(key=lambda c: (c.size, sorted(c.side)))
    return out


def classify_cut(g: EmbeddedGraph, cut: EdgeCut) -> EdgeCut:
    """Fill cut_type from the count of the specified face's boundary
    edges in the cut.  The face must be bounded by a cycle, which the cut
    meets in an even count."""
    walk = specified_walk(g)
    if _cycle_of(walk) is None:
        raise OperationError("specified face boundary is not a cycle")
    brd = walk.edge_ids()
    k = len(set(cut.edges) & brd)
    if k % 2 != 0:
        raise OperationError("cut meets the boundary cycle in an odd edge count")
    cut_type = 1 if k == 0 else (2 if k == 2 else 3)
    return replace(cut, cut_type=cut_type)


def cuts_cross(c1: EdgeCut, c2: EdgeCut) -> bool:
    """Whether the four corner regions of the two bipartitions are all
    non-empty."""
    if c1.vertices != c2.vertices:
        raise OperationError("cuts come from different graphs")
    a, b = c1.side, c2.side
    u = c1.vertices
    return bool(a & b) and bool(a - b) and bool(b - a) and bool(u - (a | b))


# ------------------------------------------------------------- max flow


def _max_flow(caps: dict[int, dict[int, int]], s: int, t: int) -> int:
    """Edmonds-Karp on an integer-capacity digraph given as nested dicts.
    Mutates caps (residual form)."""
    flow = 0
    while True:
        prev = {s: s}
        queue = [s]
        while queue and t not in prev:
            nxt = []
            for x in queue:
                for y, c in caps.get(x, {}).items():
                    if c > 0 and y not in prev:
                        prev[y] = x
                        nxt.append(y)
            queue = nxt
        if t not in prev:
            return flow
        path = [t]
        while path[-1] != s:
            path.append(prev[path[-1]])
        path.reverse()
        push = min(caps[path[i]][path[i + 1]] for i in range(len(path) - 1))
        for i in range(len(path) - 1):
            x, y = path[i], path[i + 1]
            caps[x][y] -= push
            caps.setdefault(y, {})[x] = caps[y].get(x, 0) + push
        flow += push


def _unit_caps(g: EmbeddedGraph) -> dict[int, dict[int, int]]:
    caps: dict[int, dict[int, int]] = {v: {} for v in g.rotation}
    for u, v in g.edges.values():
        if u == v:
            continue
        caps[u][v] = caps[u].get(v, 0) + 1
        caps[v][u] = caps[v].get(u, 0) + 1
    return caps


def edge_connectivity(g: EmbeddedGraph) -> int:
    """Global minimum cut size by max-flow from a fixed vertex to every
    other vertex: public, and the reference for check_class's cut scan."""
    verts = g.vertices
    if len(verts) < 2:
        raise OperationError("edge connectivity needs at least two vertices")
    if not g.is_connected():
        return 0
    return min(_max_flow(_unit_caps(g), verts[0], t) for t in verts[1:])


def boundary_connectivity(g: EmbeddedGraph, v: int) -> int:
    """Max number of edge-disjoint paths from v to the specified-face
    boundary vertex set (all specified faces pooled)."""
    if v not in g.rotation:
        raise OperationError(f"unknown vertex {v}")
    bnd = boundary_vertices(g)
    if v in bnd:
        raise OperationError(f"vertex {v} lies on the boundary")
    if not bnd:
        raise OperationError("graph has no specified face")
    return _paths_to(g, v, bnd)


def _paths_to(g: EmbeddedGraph, v: int, bnd: set[int]) -> int:
    """Max number of edge-disjoint paths from v to the vertex set ``bnd``,
    which must not hold v: one max-flow into a sink joined to all of it,
    a vertex id the graph does not use."""
    sink = g.next_vertex_id()
    caps = _unit_caps(g)
    big = 2 * len(g.edges) + 1
    for b in bnd:
        caps[b][sink] = big
    caps[sink] = {}
    return _max_flow(caps, v, sink)


# ------------------------------------------------------- class validators


@dataclass(frozen=True)
class ClassReport:
    class_name: str
    holds: bool
    violations: tuple[tuple[int, str], ...]


def _small_cut_sets(g: EmbeddedGraph) -> dict[frozenset[int], frozenset[int]]:
    """Distinct cuts of <= 3 edges as (edge set -> the first side cutting it)."""
    found = {}
    for side in _scan_masks(g, 3, 1):
        found.setdefault(frozenset(cut_edges(g, side)), side)
    return found


def _fmt_cut(edges) -> str:
    return "edges " + ",".join(map(str, sorted(edges)))


def _d_violations(g, cond: int, bnd: set[int], where: str) -> list[tuple[int, str]]:
    """d has degree 3..5, every edge directed, and lies in ``bnd``."""
    d = g.dvertex
    if d is None:
        return []
    checks = [
        (g.degree(d) not in (3, 4, 5), f"d={d} has degree {g.degree(d)}"),
        (set(g.darcs) != set(g.incident(d)), f"d={d} is not fully directed"),
        (d not in bnd, f"d={d} is not on {where}"),
    ]
    return [(cond, text) for failed, text in checks if failed]


def _t_violations(g, cond: int, bnd: set[int], where: str) -> list[tuple[int, str]]:
    """t has degree 3 and lies in ``bnd``."""
    t = g.tvertex
    if t is None:
        return []
    checks = [
        (g.degree(t) != 3, f"t={t} has degree {g.degree(t)}"),
        (t not in bnd, f"t={t} is not on {where}"),
    ]
    return [(cond, text) for failed, text in checks if failed]


def _only_cuts_around(g, cond: int, three, centres, most: int | None = None):
    """Every 3-edge-cut in ``three`` is the cut around one of ``centres``
    (None entries skipped), and there are at most ``most`` of them."""
    allowed = {frozenset(cut_edges(g, {x})) for x in centres if x is not None}
    out = []
    if most is not None and len(three) > most:
        out.append((cond, f"{len(three)} distinct 3-edge-cuts"))
    return out + [(cond, _fmt_cut(edges)) for edges in three if edges not in allowed]


def _pt(g, strong: bool, v: list, faces: list[set[int]], three) -> int | None:
    if len(g.vertices) <= 2:
        return None
    t = g.tvertex
    if g.dvertex is not None:
        v.append((2, f"directed vertex {g.dvertex} is not allowed"))
    v += _t_violations(g, 3, set().union(*faces), "the boundary")
    if not strong:
        v += _only_cuts_around(g, 4, three, [t])
        return 5
    for x in g.vertices:
        if x != t and g.degree(x) < 4:
            v.append((4, f"vertex {x} has degree {g.degree(x)}"))
    if t is not None:
        for edges, side in three.items():
            tside = side if t in side else frozenset(g.rotation) - side
            if _balance_potentials(g, set(tside)) is None:
                v.append((4, f"t-side of {_fmt_cut(edges)} is not in a disk"))
    return 5


def _ft(g, strong: bool, v: list, faces: list[set[int]], three) -> int:
    d, t = g.dvertex, g.tvertex
    if d is not None and t is not None:
        v.append((2, "both d and t are present"))
    b0, b1 = (faces + [set(), set()])[:2]
    if len(faces) > 1 and not b0 & b1:
        v.append((3, "the two boundaries share no vertex"))
    v += _d_violations(g, 4, b0 & b1, "both boundaries")
    v += _t_violations(g, 5, b0 | b1, "a boundary")
    v += _only_cuts_around(g, 6, three, [d, t], most=1)
    return 7


def _dts(g, strong: bool, v: list, faces: list[set[int]], three) -> int:
    d = g.dvertex
    roles = sorted(x for x in g.vertices if x != d and g.degree(x) == 3)
    if len(roles) > 2:
        v.append((2, f"degree-3 vertices {roles} exceed the two t/s slots"))
        roles = roles[:2]
    bnd = set().union(*faces)
    v += _d_violations(g, 3, bnd, "the boundary")
    for x in roles:
        if x not in bnd:
            v.append((4, f"degree-3 vertex {x} is not on the boundary"))
    if d is not None and g.degree(d) > 5 - len(roles):
        v.append((5, f"deg(d)={g.degree(d)} with {len(roles)} role vertices"))
    if not strong:
        v += _only_cuts_around(g, 6, three, [d, *roles], most=3)
    elif d is not None and len(roles) == 2:
        for edges, side in three.items():
            inside = sum(1 for x in (d, *roles) if x in side)
            if inside not in (1, 2):
                v.append((6, f"{_fmt_cut(edges)} does not split d/t/s 1-vs-2"))
    return 7


# class name -> (report name, chi, specified faces, conditions, strong).  The
# conditions function, given the face vertex sets and 3-edge-cuts, appends the
# class's own violations and returns the path condition's index, or None to skip it.
_CLASSES = {
    "pt": ("PT", 1, 1, _pt, False),
    "3pt": ("3PT", 1, 1, _pt, True),
    "ft": ("FT", 2, 2, _ft, False),
    "dts": ("DTS", 2, 1, _dts, False),
    "3dts": ("3DTS", 2, 1, _dts, True),
}


def check_class(g: EmbeddedGraph, p: dict[int, int], class_name: str) -> ClassReport:
    """Evaluate every condition of the named class definition.

    Violations carry the condition index; index 0 is reserved for instance
    plumbing (surface, face-anchor count, prescription validity).  Class
    conditions, by index:

    pt / 3pt (projective, one face, optional protected vertex t):
      1 3-edge-connected           2 at most one special vertex, no d
      3 t has degree 3, on the boundary
      4 (pt) the only 3-edge-cut is the one around t
        (3pt) all non-t degrees >= 4; every 3-cut side holding t is in a disk
      5 off-boundary vertices have >= 5 edge-disjoint paths to the boundary
      Graphs on <= 2 vertices: only conditions 0-1 apply.

    ft (plane, two faces sharing a vertex, at most one of d / t):
      1 3-edge-connected           2 two faces, not both d and t
      3 boundaries share a vertex  4 d: degree 3..5, fully directed, on both
      5 t: degree 3, on a boundary
      6 the only 3-edge-cut is around d or around t
      7 off-boundary vertices have >= 5 paths to the pooled boundary

    dts / 3dts (plane, one face, d plus inferred degree-3 role vertices):
      the undirected degree-3 vertices play the t/s roles
      1 3-edge-connected           2 at most two role vertices
      3 d: degree 3..5, fully directed, on the boundary
      4 role vertices on the boundary
      5 deg(d) <= 5 - (number of role vertices)
      6 (dts) every 3-edge-cut is around d or a role vertex
        (3dts) if d and both roles exist, every 3-cut splits one from two
      7 off-boundary vertices have >= 5 paths to the boundary
    """
    try:
        name, chi_want, n_faces, conditions, strong = _CLASSES[class_name.lower()]
    except KeyError:
        raise OperationError(f"unknown class {class_name!r}") from None
    if not g.rotation:
        return ClassReport(name, False, ((0, "empty graph"),))
    try:
        chi = euler_characteristic(g)
    except DisconnectedError:
        return ClassReport(name, False, ((0, "graph is disconnected"),))
    v = []
    if chi != chi_want:
        v.append((0, f"euler characteristic {chi}, expected {chi_want}"))
    if len(g.specified) != n_faces:
        v.append((0, f"{len(g.specified)} specified faces, expected {n_faces}"))
    if not prescription_ok(g, p):
        v.append((0, "prescription invalid"))
    faces = [set(specified_walk(g, i).tails) for i in range(len(g.specified))]
    cuts = _small_cut_sets(g)
    lam = min(map(len, cuts), default=3)
    if lam < 3:
        v.append((1, f"edge connectivity {lam}"))
    three = {edges: side for edges, side in cuts.items() if len(edges) == 3}
    paths = conditions(g, strong, v, faces, three)
    if paths is not None and faces:
        bnd = set().union(*faces)
        for x in sorted(set(g.rotation) - bnd):
            k = _paths_to(g, x, bnd)
            if k < 5:
                v.append((paths, f"vertex {x} has only {k} edge-disjoint paths"))
    return ClassReport(name, not v, tuple(v))
