"""Multigraphs embedded in the plane or the projective plane.

An embedding is stored as a signed rotation system: every vertex carries a
cyclic order of incident edge ends (darts), and every edge carries a sign.
Sign -1 means the edge passes through the crosscap, so a facial traversal
flips its local orientation when it crosses that edge.  A connected system
whose traced Euler characteristic is 2 is a plane embedding; characteristic
1 is the projective plane.

A dart is a pair ``(edge_id, end)`` with ``end`` 0 or 1.  Dart ``(e, 0)``
leaves endpoint 0 of edge ``e`` and arrives at endpoint 1; ``(e, 1)`` is the
reverse.  Faces are traced as orbits of (dart, local orientation) states.
Every orbit has a mirror orbit (the same boundary walked the other way
round); a face is such a pair, reported once through a canonical
representative.  A face anchor is a dart ``a`` naming the face whose orbit
pair contains the state ``(a, +1)``.

Graphs are value objects: every operation returns a new graph and leaves
its input untouched.  Vertex and edge ids are non-negative integers; an
operation that introduces a vertex or an edge uses the smallest id strictly
above every id in its input, and never renumbers anything else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

Dart = tuple[int, int]
State = tuple[Dart, int]


class EmbeddingError(Exception):
    """Base class for errors raised by the embedding layer."""


class StructureError(EmbeddingError):
    """The stored rotation/sign data does not describe an embedding."""


class OperationError(EmbeddingError):
    """An operation was applied to input that violates its contract."""


class DisconnectedError(OperationError):
    """The operation needs a connected graph or would disconnect it."""


def reversed_dart(d: Dart) -> Dart:
    return (d[0], 1 - d[1])


@dataclass
class EmbeddedGraph:
    """A signed rotation system with optional marked structure.

    Fields:
      edges     edge id -> (endpoint0, endpoint1); loops only transiently
      sign      edge id -> +1 or -1
      rotation  vertex id -> cyclic list of darts leaving that vertex
      specified face anchors (one, or two for plane instances split out of a
                projective one); each anchor ``a`` names the face whose orbit
                pair contains state ``(a, +1)``
      tvertex   protected degree-3 vertex, if any
      dvertex   vertex whose incident edges carry forced directions
      darcs     edge id -> "in" | "out", directions at ``dvertex``

    ``.pgr`` text carries every field, and equality compares every field:
    rotations up to cyclic shift, specified anchors in any order.
    """

    edges: dict[int, tuple[int, int]] = field(default_factory=dict)
    sign: dict[int, int] = field(default_factory=dict)
    rotation: dict[int, list[Dart]] = field(default_factory=dict)
    specified: list[Dart] = field(default_factory=list)
    tvertex: int | None = None
    dvertex: int | None = None
    darcs: dict[int, str] = field(default_factory=dict)

    # ------------------------------------------------------------ queries

    @property
    def vertices(self) -> list[int]:
        return sorted(self.rotation)

    def is_loop(self, e: int) -> bool:
        u, v = self.edges[e]
        return u == v

    def dart_head(self, d: Dart) -> int:
        return self.edges[d[0]][1 - d[1]]

    def degree(self, v: int) -> int:
        return len(self.rotation[v])

    def incident(self, v: int) -> list[int]:
        """Edge ids at v, loops listed twice, in rotation order."""
        return [d[0] for d in self.rotation[v]]

    def edges_between(self, u: int, v: int) -> list[int]:
        return sorted({e for e, end in self.rotation.get(u, ()) if self.edges[e][1 - end] == v})

    def next_edge_id(self) -> int:
        return max(self.edges, default=-1) + 1

    def next_vertex_id(self) -> int:
        return max(self.rotation, default=-1) + 1

    def copy(self) -> "EmbeddedGraph":
        return EmbeddedGraph(
            edges=dict(self.edges),
            sign=dict(self.sign),
            rotation={v: list(r) for v, r in self.rotation.items()},
            specified=list(self.specified),
            tvertex=self.tvertex,
            dvertex=self.dvertex,
            darcs=dict(self.darcs),
        )

    def _canonical_rotation(self, v: int) -> tuple[Dart, ...]:
        rot = self.rotation[v]
        if not rot:
            return ()
        k = rot.index(min(rot))
        return tuple(rot[k:] + rot[:k])

    def _key(self):
        return (
            tuple(sorted(self.edges.items())),
            tuple(sorted(self.sign.items())),
            tuple((v, self._canonical_rotation(v)) for v in self.vertices),
            tuple(sorted(self.specified)),
            self.tvertex,
            self.dvertex,
            tuple(sorted(self.darcs.items())),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddedGraph):
            return NotImplemented
        return self._key() == other._key()

    def is_connected(self) -> bool:
        return len(self.rotation) <= 1 or _induced_connected(self, self.rotation)

    def validate(self) -> None:
        """Raise StructureError if the stored data is malformed."""
        for kind, ids in (("vertex", self.rotation), ("edge", self.edges)):
            if min(ids, default=0) < 0:
                raise StructureError(f"{kind} id {min(ids)} is negative")
        _check_rotation_system(self)
        if len(self.specified) > 2:
            raise StructureError("at most two specified faces are allowed")
        for i, a in enumerate(self.specified):
            if a[0] not in self.edges or a[1] not in (0, 1):
                raise StructureError(f"face anchor {a} is not a dart")
            if a in self.specified[:i]:
                raise StructureError(f"face anchor {a} is given twice")
        if len(self.specified) == 2:
            a, b = self.specified
            if _anchor_through(self, (a, 1)) == _anchor_through(self, (b, 1)):
                raise StructureError(f"face anchors {a} and {b} name one face")
        if self.tvertex is not None and self.tvertex not in self.rotation:
            raise StructureError("tvertex is not a vertex")
        if self.dvertex is not None:
            if self.dvertex not in self.rotation:
                raise StructureError("dvertex is not a vertex")
            for e, way in self.darcs.items():
                if way not in ("in", "out"):
                    raise StructureError(f"darc for edge {e} must be in or out")
                if e not in self.edges or self.dvertex not in self.edges[e]:
                    raise StructureError(f"darc edge {e} is not incident to dvertex")
        elif self.darcs:
            raise StructureError("darcs given without a dvertex")


def _check_rotation_system(g: EmbeddedGraph) -> None:
    """Raise StructureError unless each edge has a sign of +-1 and two ends
    among the vertices, and each rotation lists the darts leaving its vertex."""
    edges, sign = g.edges, g.sign
    degree = dict.fromkeys(g.rotation, 0)
    for e, (u, v) in edges.items():
        if u not in degree or v not in degree:
            raise StructureError(f"edge {e} has a missing endpoint")
        if sign.get(e) not in (1, -1):
            raise StructureError(f"edge {e} has no sign")
        degree[u] += 1
        degree[v] += 1
    if sign.keys() != edges.keys():
        raise StructureError("sign table does not match the edge set")
    # the vertex's darts: as many, none repeated, each leaving the vertex
    for v, rot in g.rotation.items():
        if len(rot) != degree[v] or len(set(rot)) != len(rot):
            raise StructureError(f"rotation at vertex {v} is malformed")
        for e, end in rot:
            uv = edges.get(e)
            if uv is None or (end != 0 and end != 1) or uv[end] != v:
                raise StructureError(f"rotation at vertex {v} is malformed")


# ---------------------------------------------------------------- tracing


@dataclass(frozen=True)
class FaceWalk:
    """A facial walk: one canonical traversal of a face boundary.

    ``states[i]`` is the (dart, orientation) state traversed at step i,
    ``darts[i]`` its dart and ``tails[i]`` the vertex it leaves.  The empty
    walk stands for the single face of an isolated vertex.
    """

    states: tuple[State, ...]
    tails: tuple[int, ...]

    @property
    def darts(self) -> tuple[Dart, ...]:
        return tuple(d for d, _ in self.states)

    @property
    def length(self) -> int:
        return len(self.states)

    def edge_ids(self) -> set[int]:
        return {d[0] for d, _ in self.states}


def _state_key(st: State) -> tuple[int, int, int]:
    (e, end), s = st
    return (e, end, 0 if s == 1 else 1)


def _face_step(g: EmbeddedGraph, st: State) -> State:
    (e, end), s = st
    head = g.edges[e][1 - end]
    s2 = s * g.sign[e]
    arrive = (e, 1 - end)
    rot = g.rotation[head]
    i = rot.index(arrive)
    j = (i + 1) % len(rot) if s2 == 1 else (i - 1) % len(rot)
    return (rot[j], s2)


def _mirror(g: EmbeddedGraph, st: State) -> State:
    (e, end), s = st
    return ((e, 1 - end), -s * g.sign[e])


def _walk_from(g: EmbeddedGraph, start: State) -> list[State]:
    orbit = [start]
    limit = 4 * len(g.edges) + 1
    cur = _face_step(g, start)
    while cur != start:
        orbit.append(cur)
        if len(orbit) > limit:
            raise StructureError("facial walk does not close")
        cur = _face_step(g, cur)
    return orbit


def _as_facewalk(g: EmbeddedGraph, orbit: list[State]) -> FaceWalk:
    return FaceWalk(
        states=tuple(orbit),
        tails=tuple(g.edges[d[0]][d[1]] for d, _ in orbit),
    )


def _canonical_walk(g: EmbeddedGraph, orbit: list[State]) -> FaceWalk:
    """A face's canonical walk from one of its orbits: of that orbit and its
    mirror orbit (the orbit reversed, each state mirrored), the one holding
    the smallest state, started at that state."""
    mirror = [_mirror(g, st) for st in reversed(orbit)]
    rep = min((orbit, mirror), key=lambda o: min(map(_state_key, o)))
    k = rep.index(min(rep, key=_state_key))
    return _as_facewalk(g, rep[k:] + rep[:k])


def _face_orbits(g: EmbeddedGraph) -> list[list[State]]:
    """One orbit of each face, in discovery order, in 2|E| face steps: each
    walked from the first unseen state in (edge id, end, +1 before -1)
    order, then seen with its mirror orbit.  Checked by ``validate``'s rule,
    the rotation system needs no pairing check.  Its face step is a
    permutation: each dart sits once in the rotation of the vertex it leaves.
    No orbit is its own mirror: that would make some state's mirror (of
    orientation -s*sign) its successor (of orientation s*sign)."""
    _check_rotation_system(g)
    seen: set[State] = set()
    orbits: list[list[State]] = []
    for e in sorted(g.edges):
        for st in (((e, 0), 1), ((e, 0), -1), ((e, 1), 1), ((e, 1), -1)):
            if st not in seen:
                orbits.append(_walk_from(g, st))
                seen.update(y for x in orbits[-1] for y in (x, _mirror(g, x)))
    return orbits


def trace_faces(g: EmbeddedGraph) -> list[FaceWalk]:
    """All faces of the embedding, one canonical walk per face.

    Deterministic: each walk starts at its smallest state and faces are
    listed by that key.  Every dart side belongs to exactly one walk, so the
    walk lengths and the face steps taken (``_face_orbits``) sum to 2|E|.
    Each isolated vertex, a sphere of its own, adds one empty walk after
    these.  Raises ``validate``'s StructureError on a malformed system.
    """
    faces = [_canonical_walk(g, orbit) for orbit in _face_orbits(g)]
    faces.sort(key=lambda f: _state_key(f.states[0]))
    isolated = sum(1 for rot in g.rotation.values() if not rot)
    return faces + [FaceWalk(states=(), tails=())] * isolated


def _is_dart(g: EmbeddedGraph, d: Dart) -> bool:
    return d[0] in g.edges and d[1] in (0, 1)


def _face_orbit(g: EmbeddedGraph, state: State) -> list[State]:
    """The face orbit through ``state``, refused if it is its own mirror."""
    orbit = _walk_from(g, state)
    if _mirror(g, state) in set(orbit):
        raise StructureError("facial walk is its own mirror")
    return orbit


def _face_through(g: EmbeddedGraph, state: State) -> FaceWalk:
    """The walk ``trace_faces`` lists for the face whose orbit pair
    contains ``state``, found by walking that one orbit."""
    return _canonical_walk(g, _face_orbit(g, state))


def face_of_anchor(g: EmbeddedGraph, faces: list[FaceWalk], anchor: Dart) -> int:
    """Index in ``faces`` (as ``trace_faces`` returns them) of the face
    that ``anchor`` names."""
    if not _is_dart(g, anchor):
        raise StructureError(f"anchor {anchor} is not a dart of the graph")
    return faces.index(_face_through(g, (anchor, 1)))


def _orbit_anchor(g: EmbeddedGraph, orbit) -> Dart:
    """Smallest dart ``a`` with state ``(a, +1)`` on the orbit or its
    mirror orbit, which is exactly the set of mirrors of its states."""
    darts = [d for d, s in orbit if s == 1]
    for st in orbit:
        m = _mirror(g, st)
        if m[1] == 1:
            darts.append(m[0])
    if not darts:
        raise StructureError("face has no positively traversed dart")
    return min(darts)


def canonical_anchor(g: EmbeddedGraph, face: FaceWalk) -> Dart:
    """Smallest dart ``a`` with state ``(a, +1)`` on the face's orbit pair."""
    return _orbit_anchor(g, face.states)


def _anchor_through(g: EmbeddedGraph, state: State) -> Dart:
    """``canonical_anchor`` of the face whose orbit pair contains
    ``state``, from a walk of one orbit."""
    return _orbit_anchor(g, _face_orbit(g, state))


def specified_walk(g: EmbeddedGraph, which: int = 0) -> FaceWalk:
    """The walk of a specified face, starting at its anchor."""
    if which >= len(g.specified):
        raise OperationError("graph has no specified face with that index")
    anchor = g.specified[which]
    if anchor[0] not in g.edges:
        raise StructureError("specified face anchor is stale")
    return _as_facewalk(g, _walk_from(g, (anchor, 1)))


def boundary_vertices(g: EmbeddedGraph) -> set[int]:
    return {t for i in range(len(g.specified)) for t in specified_walk(g, i).tails}


def _cycle_of(walk: FaceWalk) -> list[int] | None:
    """The walk's vertices in order, or None if it repeats a vertex (so
    its face is not bounded by a cycle)."""
    tails = list(walk.tails)
    if len(set(tails)) != len(tails) or len(tails) < 2:
        return None
    return tails


def boundary_cycle(g: EmbeddedGraph, which: int = 0) -> list[int] | None:
    """Vertices of the specified face in walk order, or None if the walk
    repeats a vertex (so the boundary is not a cycle)."""
    return _cycle_of(specified_walk(g, which))


def euler_characteristic(g: EmbeddedGraph) -> int:
    """V - E + F for the traced embedding.  Errors on disconnected input.

    Tests connectivity by one search, then counts faces by one orbit walk
    each (``_face_orbits``), no walks built: 2|E| face steps, each O(degree)
    to find the arriving dart.  Raises ``trace_faces``'s StructureError."""
    if not g.rotation:
        raise OperationError("empty graph has no embedding")
    if not g.is_connected():
        raise DisconnectedError("euler characteristic needs a connected graph")
    faces = len(_face_orbits(g)) if g.edges else 1
    return len(g.rotation) - len(g.edges) + faces


# ------------------------------------------------------------ cycle signs


def cycle_sign(g: EmbeddedGraph, cycle_edges) -> int:
    """Product of signs along a cycle; +1 means contractible.

    The edges must induce a single closed cycle (every touched vertex of
    degree exactly 2, connected); their order does not matter.  Edges that
    meet every touched vertex twice form disjoint cycles, so one search
    from any vertex tells whether they form only one.
    """
    edges = list(cycle_edges)
    if not edges or len(set(edges)) != len(edges):
        raise OperationError("cycle must be a non-empty set of distinct edges")
    adj: dict[int, list[int]] = {}
    for e in edges:
        if e not in g.edges:
            raise OperationError(f"unknown edge {e}")
        u, v = g.edges[e]
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if any(len(nbrs) != 2 for nbrs in adj.values()):
        raise OperationError("edges do not form a cycle")
    stack = [next(iter(adj))]
    seen = set(stack)
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != len(adj):
        raise OperationError("edges form more than one cycle")
    return math.prod(g.sign[e] for e in edges)


def _balance_potentials(g: EmbeddedGraph, verts: set[int]) -> dict[int, int] | None:
    """Switching potentials making the induced subgraph all-positive, or
    None if some induced cycle has sign -1.  Requires induced connectivity
    per component; works component-wise."""
    pot: dict[int, int] = {}
    for root in sorted(verts):
        if root in pot:
            continue
        pot[root] = 1
        stack = [root]
        while stack:
            x = stack.pop()
            for d in g.rotation[x]:
                e = d[0]
                y = g.dart_head(d)
                if y not in verts:
                    continue
                if x == y:  # induced loop: a -1 loop is a negative cycle
                    if g.sign[e] == -1:
                        return None
                    continue
                want = pot[x] * g.sign[e]
                if y in pot:
                    if pot[y] != want:
                        return None
                else:
                    pot[y] = want
                    stack.append(y)
    return pot


def _induced_connected(g: EmbeddedGraph, verts) -> bool:
    """Whether the non-empty vertex set ``verts`` induces a connected
    subgraph."""
    start = min(verts)
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for d in g.rotation[x]:
            y = g.dart_head(d)
            if y in verts and y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(verts)


def side_in_open_disk(g: EmbeddedGraph, side) -> bool:
    """True iff the subgraph induced by ``side`` fits in an open disk,
    i.e. every induced cycle is contractible."""
    verts = set(side)
    if not verts:
        raise OperationError("side must be non-empty")
    for v in verts:
        if v not in g.rotation:
            raise OperationError(f"unknown vertex {v}")
    if not _induced_connected(g, verts):
        raise DisconnectedError("side does not induce a connected subgraph")
    return _balance_potentials(g, verts) is not None


def is_contractible_chord(g: EmbeddedGraph, e: int) -> bool:
    """Whether chord ``e`` of the specified face closes a contractible cycle
    with the face boundary.  The boundary must be a cycle and ``e`` must
    join two of its vertices without lying on it."""
    if e not in g.edges:
        raise OperationError(f"unknown edge {e}")
    walk = specified_walk(g)
    pos = {t: k for k, t in enumerate(_cycle_of(walk) or ())}  # places on the cycle
    if not pos:
        raise OperationError("specified face boundary is not a cycle")
    if e in walk.edge_ids():
        raise OperationError(f"edge {e} lies on the specified face boundary")
    u, v = g.edges[e]
    if u == v or u not in pos or v not in pos:
        raise OperationError(f"edge {e} is not a chord of the boundary")
    i, j = pos[u], pos[v]
    if i > j:
        i, j = j, i
    arc = 1
    for (f, _), _ in walk.states[i:j]:
        arc *= g.sign[f]
    return arc * g.sign[e] == 1


# ------------------------------------------------------------- switching


def _switch(g: EmbeddedGraph, verts: set[int], track: list[State | None]) -> None:
    """Reverse the local orientation at each of ``verts`` in place: flip
    the sign of every edge end there and reverse the rotation.  The
    embedding is unchanged; only its description moves, so each ``track``
    state whose tail is switched flips its orientation bit (None entries
    stay)."""
    for i, st in enumerate(track):
        if st is not None and g.edges[st[0][0]][st[0][1]] in verts:
            track[i] = (st[0], -st[1])
    for v in verts:
        for e, _ in g.rotation[v]:
            g.sign[e] = -g.sign[e]  # an edge with both ends switched flips back
        g.rotation[v] = g.rotation[v][::-1]


def _resign_all_positive(g: EmbeddedGraph, track: list[State]) -> None:
    """Switch vertices in place until every sign is +1, relabelling
    ``track`` alongside.  Raises OperationError if it is not balanced.  On
    a system passing the rotation check (each caller's chi count runs it),
    the search reads every edge at both darts, so no sign needs a re-check."""
    pot = _balance_potentials(g, set(g.rotation))
    if pot is None:
        raise OperationError("graph is not balanced; cannot re-sign to +1")
    _switch(g, {v for v, s in pot.items() if s == -1}, track)


# ----------------------------------------------------- face-updating ops


def _move_darts(g: EmbeddedGraph, darts, x: int) -> None:
    """Make ``x`` the end of each dart ``(e, end)``: endpoint ``end`` of
    edge ``e``."""
    for e, end in darts:
        a, b = g.edges[e]
        g.edges[e] = (x, b) if end == 0 else (a, x)


def _reanchor(g: EmbeddedGraph, witnesses: list[State | None]) -> None:
    """Set g.specified from witness states, canonically, deduplicated."""
    anchors: list[Dart] = []
    for w in witnesses:
        if w is None:
            continue
        if not _is_dart(g, w[0]):
            raise StructureError("face witness was lost by the operation")
        a = _anchor_through(g, w)
        if a not in anchors:
            anchors.append(a)
    g.specified = anchors


def _first_survivor(states, dead: set[int]) -> State | None:
    """The first of ``states`` whose edge is not in ``dead``, or None."""
    return next((st for st in states if st[0][0] not in dead), None)


def _witnesses(g: EmbeddedGraph, dead: set[int]) -> list[State | None]:
    """Each specified face's witness for an operation that deletes the
    edges ``dead``: its first state in ``specified_walk`` order whose edge
    survives, or None when none does.  That walk starts at ``(anchor, +1)``,
    so a face is walked only when its anchor's edge dies."""
    return [
        (a, 1)
        if a[0] in g.edges and a[0] not in dead
        else _first_survivor(specified_walk(g, i).states, dead)
        for i, a in enumerate(g.specified)
    ]


def _drop_edge(g: EmbeddedGraph, e: int) -> None:
    """Remove edge ``e`` in place: its ends, sign, forced direction and
    both darts."""
    u, v = g.edges.pop(e)
    del g.sign[e]
    g.darcs.pop(e, None)
    g.rotation[u].remove((e, 0))
    g.rotation[v].remove((e, 1))


def delete_edge(g: EmbeddedGraph, e: int) -> EmbeddedGraph:
    """Delete one edge.  If it lies on a specified face boundary the face
    absorbs its neighbour across ``e``; other faces are untouched.  Deleting
    a bridge raises DisconnectedError."""
    if e not in g.edges:
        raise OperationError(f"unknown edge {e}")
    witnesses = _witnesses(g, {e})
    if None in witnesses:
        raise OperationError("specified face is bounded by that edge alone")
    out = g.copy()
    _drop_edge(out, e)
    if not out.is_connected():
        raise DisconnectedError(f"deleting edge {e} disconnects the graph")
    _reanchor(out, witnesses)
    return out


def delete_vertex(g: EmbeddedGraph, v: int) -> EmbeddedGraph:
    """Delete a vertex with all incident edges.

    A specified face keeps an edge side of its boundary that survives; one
    whose whole boundary is at the vertex takes the first surviving side of
    a face at the vertex, in ``trace_faces`` order.  On the plane and the
    projective plane the faces at the vertex all merge into that one face;
    on other surfaces they can stay apart, and the choice then follows
    trace order rather than the geometry."""
    if v not in g.rotation:
        raise OperationError(f"unknown vertex {v}")
    dead = {d[0] for d in g.rotation[v]}
    witnesses = _witnesses(g, dead)
    if None in witnesses:
        # boundary entirely at v: fall back to the first surviving side of a
        # face at v (each corner's +1 state leaves it), in trace order
        faces = {_face_through(g, (d, 1)) for d in g.rotation[v]}
        faces = sorted(faces, key=lambda f: _state_key(f.states[0]))
        repl = _first_survivor((st for f in faces for st in f.states), dead)
        witnesses = [repl if w is None else w for w in witnesses]
    out = g.copy()
    for e in dead:
        _drop_edge(out, e)
    del out.rotation[v]
    if out.tvertex == v:
        out.tvertex = None
    if out.dvertex == v:
        out.dvertex = None
        out.darcs = {}
    if out.rotation and not out.is_connected():
        raise DisconnectedError(f"deleting vertex {v} disconnects the graph")
    _reanchor(out, witnesses)
    return out


def _contract_edge_inplace(g: EmbeddedGraph, e: int, track: list[State | None]) -> int:
    """Contract non-loop edge ``e``, merging the larger endpoint id into the
    smaller, and relabel ``track`` alongside.  Returns the surviving vertex."""
    u, v = g.edges[e]
    keep, gone = (u, v) if u < v else (v, u)
    if g.sign[e] == -1:
        _switch(g, {gone}, track)
    dk = (e, 0) if g.edges[e][0] == keep else (e, 1)
    dg = reversed_dart(dk)
    rk = g.rotation[keep]
    rg = g.rotation[gone]
    ik = rk.index(dk)
    ig = rg.index(dg)
    spliced = rg[ig + 1 :] + rg[:ig]
    g.rotation[keep] = rk[:ik] + spliced + rk[ik + 1 :]
    del g.rotation[gone]
    _move_darts(g, spliced, keep)
    del g.edges[e]
    del g.sign[e]
    return keep


def contract_subgraph(g: EmbeddedGraph, side) -> EmbeddedGraph:
    """Contract the connected subgraph induced by ``side`` to one vertex.

    Edges inside the side disappear (parallel ones become loops and are
    removed); the new vertex takes the next free id and inherits the cyclic
    order in which the remaining edges leave the contracted patch.  A
    specified face that loses only part of its boundary keeps its identity;
    one whose entire boundary is swallowed is replaced by the face at the
    new vertex with the least canonical anchor.  A specified face is walked
    only when the side swallows the edge of its anchor.
    """
    verts = set(side)
    if not verts:
        raise OperationError("side must be a non-empty set of vertices")
    if not verts <= g.rotation.keys():
        raise OperationError(f"unknown vertex {min(verts - g.rotation.keys())}")
    if not _induced_connected(g, verts):
        raise DisconnectedError("side does not induce a connected subgraph")
    if len(verts) == len(g.rotation):
        raise OperationError("cannot contract the whole graph")
    out = g.copy()
    if len(verts) == 1:
        return out
    internal = sorted(
        e for e, (a, b) in g.edges.items() if a in verts and b in verts
    )
    witnesses = _witnesses(g, set(internal))
    swallowed = [i for i, w in enumerate(witnesses) if w is None]
    for e in internal:  # connected, >= 2 vertices: some edge is a non-loop
        a, b = out.edges[e]
        if a == b:
            _drop_edge(out, e)
        else:
            merged = _contract_edge_inplace(out, e, witnesses)
    fresh = g.next_vertex_id()
    out.rotation[fresh] = out.rotation.pop(merged)
    _move_darts(out, out.rotation[fresh], fresh)
    if out.tvertex in verts:
        out.tvertex = None
    if out.dvertex in verts:
        out.dvertex = None
        out.darcs = {}
    _reanchor(out, witnesses)
    if swallowed:  # least canonical anchor at the new vertex: a +1 state per corner
        if not out.rotation[fresh]:
            raise StructureError("no face is incident to the merged vertex")
        anchor = min(_anchor_through(out, (d, 1)) for d in out.rotation[fresh])
        for i in swallowed:
            if anchor not in out.specified:
                out.specified.insert(i, anchor)
    return out


def lift_pair(g: EmbeddedGraph, e1: int, e2: int, v: int) -> EmbeddedGraph:
    """Replace the path ``u - v - w`` (edges e1, e2 meeting at v) by a single
    new edge ``u w`` carrying the product of the two signs.  The new edge is
    embedded along the old path: it takes e1's slot at u and e2's slot at w.
    """
    for e in (e1, e2):
        if e not in g.edges:
            raise OperationError(f"unknown edge {e}")
        if g.is_loop(e):
            raise OperationError("cannot lift a loop")
    if e1 == e2:
        raise OperationError("lift needs two distinct edges")
    if v not in g.edges[e1] or v not in g.edges[e2]:
        raise OperationError(f"edges {e1} and {e2} do not meet at vertex {v}")
    u, w = (a if b == v else b for a, b in (g.edges[e1], g.edges[e2]))  # the ends away from v
    if u == w:
        raise OperationError("lift would create a loop")
    witnesses = _witnesses(g, {e1, e2})
    if None in witnesses:
        raise OperationError("specified face is bounded by the lifted pair")
    out = g.copy()
    new = out.next_edge_id()
    out.edges[new] = (u, w)
    out.sign[new] = out.sign[e1] * out.sign[e2]
    d1u = (e1, 0) if g.edges[e1][0] == u else (e1, 1)
    d2w = (e2, 0) if g.edges[e2][0] == w else (e2, 1)
    out.rotation[u].insert(out.rotation[u].index(d1u), (new, 0))
    out.rotation[w].insert(out.rotation[w].index(d2w), (new, 1))
    _drop_edge(out, e1)
    _drop_edge(out, e2)
    _reanchor(out, witnesses)
    return out


def planarize_along_chord(g: EmbeddedGraph, e: int) -> EmbeddedGraph:
    """Given a non-contractible chord ``uv`` of the specified face, return
    the graph minus ``u`` and ``v``, re-signed all-positive: a plane
    embedding whose specified face absorbed the old one.  OperationError
    when that remainder is not balanced or not plane, as on some inputs of
    chi <= 0."""
    if is_contractible_chord(g, e):
        raise OperationError(f"chord {e} is contractible")
    u, v = g.edges[e]
    out = delete_vertex(g, u)
    out = delete_vertex(out, v)
    track: list[State] = [(a, 1) for a in out.specified]
    _resign_all_positive(out, track)
    _reanchor(out, list(track))
    if euler_characteristic(out) != 2:
        raise OperationError("planarization did not produce a plane embedding")
    return out


def _corner_gap(rot: list[Dart], walk: FaceWalk, p: int) -> int:
    """Index of the corner that ``walk`` passes at its position ``p``,
    arriving by the previous step's dart and leaving by state p's dart with
    its local orientation s: the cut position k such that the corner lies
    between rot[k-1] and rot[k] in the rotation ``rot`` at p's tail.  The
    orientation says which side of the arriving dart the walk turns to,
    which the darts alone leave open at a vertex of degree two."""
    depart, s = walk.states[p]
    n = len(rot)
    i, j = rot.index(reversed_dart(walk.states[p - 1][0])), rot.index(depart)
    if s == 1 and (i + 1) % n == j:
        return j
    if s == -1 and (j + 1) % n == i:
        return i
    raise StructureError("face corner darts are not adjacent in the rotation")


def _split_cut(
    g: EmbeddedGraph, v: int, walk: FaceWalk | None, chi: int | None
) -> tuple[int, int, int, int]:
    """The split's domain check, copying nothing: (p1, p2, c1, c2) of
    ``split_doubled_boundary_vertex(g, v, walk, chi)``, or its refusal.
    ``walk`` may be None only when g has not exactly one specified face."""
    if len(g.specified) != 1:
        raise OperationError("split needs exactly one specified face")
    occ = [i for i, t in enumerate(walk.tails) if t == v]
    if len(occ) < 2:
        raise OperationError(f"vertex {v} does not repeat on the boundary")
    p1, p2 = occ[0], occ[1]
    rot = g.rotation[v]
    c1, c2 = sorted((_corner_gap(rot, walk, p1), _corner_gap(rot, walk, p2)))
    if c1 == c2:
        raise OperationError("boundary visits share a corner; cannot split")
    one_sided = walk.states[p1][1] != walk.states[p2][1]
    if not one_sided or (euler_characteristic(g) if chi is None else chi) != 1:
        raise OperationError("boundary visits do not cut the crosscap")
    return p1, p2, c1, c2


def split_doubled_boundary_vertex(
    g: EmbeddedGraph, v: int, walk: FaceWalk | None = None, chi: int | None = None
) -> EmbeddedGraph:
    """A projective-plane instance whose specified face visits ``v`` twice
    is cut along the crosscap curve through the face and ``v``, then the two
    copies of ``v`` are re-identified in the plane.  The result is a plane
    embedding of the same graph with two specified faces meeting at ``v``.

    It reads only F's walk W (the specified face's): v's first two visits
    p1 < p2, and the corners c1 < c2 that W passes there in v's rotation
    rot (``_corner_gap``).
    * The cut moves rot[c2:] + rot[:c1] to a new vertex, so V grows by one,
      E stays and F becomes F' faces, F' one or two: Euler characteristic
      chi(g) + F'.  Its domain is F' = 1 and chi(g) = 1, else
      OperationError (DisconnectedError for a disconnected g, which has no
      chi), raised before anything is copied.  A walk's orientation bit
      flips each time it crosses the crosscap, so F' = 1 (a one-sided cut)
      exactly when W's bits at p1 and p2 differ.  F' = 1 leaves F's orbit
      pair on one orbit, the shared face, whose states leave both copies
      of ``v``: the result is connected.
    * After re-signing, every sign is +1 and the +1 face permutation is
      phi(d) = sigma(rev d), with sigma(d) the dart after d in its rotation.
      The cut corners are the wrap points of the copies' rotations rv and
      rw, and re-signing reverses a rotation but keeps its wrap point, so
      re-identifying the copies there gives rv + rw.  That sets
      sigma(rv[-1]) = rw[0] and sigma(rw[-1]) = rv[0], so phi becomes
      phi o (rev rv[-1], rev rw[-1]), two elements of the shared face's +1
      cycle, which always splits in two at those corners: into F's halves
      W[p1:p2] and W[p2:] + W[:p1], as states up to mirroring.
    * v's half comes first: W[p1:p2] when its first state, re-signed, is
      +1 and leaves ``v`` or -1 and leaves the copy (its mirror is then a +1
      arc from ``v``), else the other.  ``_orbit_anchor`` anchors each,
      reading a state and its mirror alike.

    ``walk`` (F's ``specified_walk``) and ``chi`` (chi(g)) come from a
    caller that holds them already, as the solver does (see ``solver``);
    then the split walks no face.  With None it takes one
    ``specified_walk`` and, for a one-sided cut, counts chi(g) by one
    ``euler_characteristic(g)`` (a face count, no walks built).  The
    domain checks are ``_split_cut``'s, which the solver also calls alone.
    """
    if walk is None and len(g.specified) == 1:
        walk = specified_walk(g)
    p1, p2, c1, c2 = _split_cut(g, v, walk, chi)
    rot = g.rotation[v]
    out = g.copy()
    fresh = out.next_vertex_id()
    out.rotation[v] = rot[c1:c2]
    out.rotation[fresh] = rot[c2:] + rot[:c1]
    _move_darts(out, out.rotation[fresh], fresh)
    track = list(walk.states[p1:] + walk.states[:p1])  # W[p1:p2] + W[p2:] + W[:p1]
    _resign_all_positive(out, track)
    halves = [track[: p2 - p1], track[p2 - p1 :]]
    (e, end), s = track[0]
    if (s == 1) != (out.edges[e][end] == v):
        halves.reverse()
    rw = out.rotation.pop(fresh)
    out.rotation[v] += rw
    _move_darts(out, rw, v)
    out.specified = [_orbit_anchor(out, h) for h in halves]
    return out
