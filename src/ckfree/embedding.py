"""Simple planar graphs with combinatorial embeddings (rotation systems).

A graph is stored as one neighbor tuple per vertex, in the cyclic order of
edges around the vertex; the unbounded face is designated by a directed edge
lying on it.  Faces are computed on darts (directed edges): dart off[v] + i
is (v, rotations[v][i]), and the face successor fnext[d] follows the rule
"after arriving at v from u, leave along the neighbor following u in v's
rotation".  That neighbor's index is found by scanning u's rotation turned
by one place, at a vertex of degree up to SCAN_DEGREE, and read from a
neighbor-to-successor-index map at a hub of larger degree.  Faces are the
orbits of fnext.  Each check builds off and fnext afresh, once per call, and
the graph keeps neither; fnext stays the `array("i")` it is built as, four
bytes a dart with no int object per dart.  The build counts the faces: the
triangles (the darts with fnext^3(d) = d) at once, the other faces by one
walk each, and a walk that does not close shows a repeated neighbor.
Validation reads the face count, the triangle test checks fnext^3 = id, and
one walker (`_face`) lists a face's vertices in walk order.

Rotation tuples are cyclic, but operations keep the concrete linearization
deterministic: `delete_edge` cuts each affected rotation at the gap left by
the removed edge, which is exactly what the gluing step of the block
construction needs.
"""

from __future__ import annotations

import gc
from array import array
from itertools import accumulate, chain, compress, repeat
from operator import add, contains, eq, getitem, itemgetter, lt
from typing import Iterator, NamedTuple, Sequence


class GraphStructureError(ValueError):
    """A malformed embedding, or an operation that would produce one."""


def _first_defect(rots: Sequence[Sequence[int]]) -> str:
    """The first defect, if any: a loop or a parallel edge, vertex by vertex,
    else the first dart whose head is out of range or does not list its tail."""
    n = len(rots)
    nbrs = list(map(set, rots))
    for v, rot in enumerate(rots):
        if v in nbrs[v]:
            return f"loop at vertex {v}"
        if len(nbrs[v]) != len(rot):
            return f"parallel edge at vertex {v}"
    v, u = next((v, u) for v, rot in enumerate(rots) for u in rot
                if not (0 <= u < n and v in nbrs[u]))
    return f"asymmetric adjacency {v}->{u}" if 0 <= u < n else f"neighbor {u} of {v} out of range"


def _tails(rots: Sequence[Sequence[int]]) -> Iterator[int]:
    """The tail vertex of each dart, in dart order, one at a time."""
    return chain.from_iterable(map(repeat, range(len(rots)), map(len, rots)))


# Up to this degree a successor is found by scanning the rotation, which is
# as fast as a map lookup there; a hub above it gets a map.
SCAN_DEGREE = 12
_LAST = slice(-1, None)
_TRIANGLE_BLOCK = 1024


class _Scan(tuple):
    """A rotation with its last neighbor put in front, indexed by neighbor:
    scan[v] is the first place of v, which is the index of the neighbor
    after v in the rotation.  It holds no map, only the scanned tuple."""

    __slots__ = ()
    __getitem__ = tuple.index


class _Darts(NamedTuple):
    off: list[int]  # CSR offsets, n + 1 entries: dart off[v] + i is (v, rotations[v][i])
    fnext: array  # array("i"): the next dart along the same face
    triangles: int  # faces of length 3, the darts with fnext^3(d) = d over 3
    faces: int  # all faces, the orbits of fnext; 1 when there are no darts


class EmbeddedGraph(NamedTuple):
    """Immutable simple connected graph with a rotation-system embedding.

    outer_edge is a directed edge (u, v) whose face walk is the unbounded
    face.  All mutating-style operations return new graphs.
    """

    rotations: tuple[tuple[int, ...], ...]
    outer_edge: tuple[int, int]

    @property
    def n(self) -> int:
        return len(self.rotations)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.rotations)) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self.rotations[u]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.rotations[u] if u < v]

    # -- darts --------------------------------------------------------------

    def _darts(self) -> _Darts:
        """Dart arrays and face counts, built afresh on each call.  Raises
        GraphStructureError for a loop, a parallel edge, a neighbor out of
        range or asymmetry."""
        rots = self.rotations
        n = len(rots)
        degs = list(map(len, rots))
        off = list(accumulate(degs, initial=0))
        # a negative id would alias a vertex in `after`, so ids are checked first
        if any(map(contains, rots, range(n))) or min(chain.from_iterable(rots), default=0) < 0:
            raise GraphStructureError(_first_defect(rots))
        # The scans are tracked by the collector but hold only ints and die
        # with this call, so no collection could free one: the collector is
        # paused while they live rather than walk them again and again.
        collecting = gc.isenabled()
        gc.disable()
        try:
            # after[u][v]: index in u's rotation of the neighbor after v, a map at a hub
            after = list(map(_Scan, map(add, map(getitem, rots, repeat(_LAST)), rots)))
            for u in compress(range(n), map(lt, repeat(SCAN_DEGREE), degs)):
                after[u] = dict(zip(rots[u], (*range(1, degs[u]), 0)))
            # the dart after (v, u) leaves u along the neighbor after v: off[u] + after[u][v]
            succ = map(getitem, map(after.__getitem__, chain.from_iterable(rots)), _tails(rots))
            fnext = array("i", map(add, map(off.__getitem__, chain.from_iterable(rots)), succ))
        except (IndexError, KeyError, ValueError):  # some u is n or more, or lacks v: asymmetric
            raise GraphStructureError(_first_defect(rots)) from None
        finally:
            if collecting:
                gc.enable()
        # fnext stays an array: a list would hold an int object per dart,
        # 21 MiB on H(10^5, 13), which set the peak of a reload
        del after, succ
        seen = _on_triangles(fnext)
        triangles = seen.count(1) // 3
        faces = triangles if fnext else 1
        d = -1
        while (d := seen.find(0, d + 1)) >= 0:  # the other faces, one walk each
            faces += 1
            start = d
            while not seen[d]:
                seen[d] = 1
                d = fnext[d]
            # a walk ends off its start only if fnext is no permutation: when v
            # repeats in u's rotation, every dart (v, u) finds one place of v,
            # and the dart after another place of v has no predecessor
            if d != start:
                raise GraphStructureError(_first_defect(rots))
        return _Darts(off, fnext, triangles, faces)

    # -- validity -----------------------------------------------------------

    def validate(self) -> None:
        """Check simplicity, symmetry, connectivity and Euler's formula."""
        n = self.n
        f = self._darts().faces  # raises on loops, parallel edges, bad ids and asymmetry
        if n > 1 and not self._connected():
            raise GraphStructureError("graph is not connected")
        u, v = self.outer_edge
        if n >= 2 and not self.has_edge(u, v):
            raise GraphStructureError("outer-face edge is not an edge of the graph")
        e = self.edge_count
        if n >= 1 and n - e + f != 2:
            raise GraphStructureError(f"Euler check failed: V={n} E={e} F={f} gives {n - e + f}")

    def _connected(self) -> bool:
        seen = bytearray(self.n)
        seen[0] = 1
        reached = [0]
        for v in reached:  # grows while it is read
            for u in self.rotations[v]:
                if not seen[u]:
                    seen[u] = 1
                    reached.append(u)
        return len(reached) == self.n

    # -- faces --------------------------------------------------------------

    def face_walks(self) -> list[tuple[int, ...]]:
        """All face walks, by first dart; every directed edge lies on exactly one."""
        fnext = self._darts().fnext
        tail = list(_tails(self.rotations))
        seen = bytearray(len(fnext))
        return [_face(tail, fnext, d, seen) for d in range(len(fnext)) if not seen[d]]


def _face(tail: list[int], fnext: array, d: int, seen: bytearray) -> tuple[int, ...]:
    """Vertices of the face walk from the unseen dart d, in walk order;
    marks the walk's darts in `seen`."""
    walk = []
    while not seen[d]:
        seen[d] = 1
        walk.append(tail[d])
        d = fnext[d]
    return tuple(walk)


def _on_triangles(fnext: array) -> bytearray:
    """1 at each dart d with fnext^3(d) = d, else 0.  A face of length 1
    would need a loop, so on a loopless graph these are the triangles' darts.

    The array is read _TRIANGLE_BLOCK darts at a time by `itemgetter`, whose
    C loop makes each int once: as fast as a list of all the darts, with no
    int object per dart held, and twice as fast as the array's __getitem__."""
    seen = bytearray()
    for d in range(0, len(fnext), _TRIANGLE_BLOCK):
        block = fnext[d:d + _TRIANGLE_BLOCK]
        # dart 0 pads the block: itemgetter of a single index returns no tuple
        twice = itemgetter(*block, 0)(fnext)
        seen += bytes(map(eq, itemgetter(*twice)(fnext), range(d, d + len(block))))
    return seen


def is_triangulation(g: EmbeddedGraph) -> bool:
    """True iff the graph is connected on n >= 3 vertices and every face is a
    triangle: f^3 = id on the darts."""
    if g.n < 3:
        return False
    darts = g._darts()
    if not (g._connected() and 3 * darts.triangles == len(darts.fnext)):
        return False
    if g.edge_count != 3 * g.n - 6:
        raise GraphStructureError("all faces triangular but E != 3V-6")
    return True


def _after(rot: Sequence[int], u: int) -> int:
    """The neighbor following u in the rotation `rot`."""
    return rot[(rot.index(u) + 1) % len(rot)]


def _insert_chord(
    rots: list[tuple[int, ...]], walk: tuple[int, ...], u: int, v: int
) -> None:
    """Add the chord u-v inside the face `walk`, editing `rots` in place.

    At each end the chord splits the angle from the walk's predecessor to
    its successor, so the successor must follow the predecessor in that
    end's rotation; each end receives the other right after the predecessor.
    """
    m = len(walk)
    for a, b in ((u, v), (v, u)):
        rot = rots[a]
        i = walk.index(a)
        pred, succ = walk[i - 1], walk[(i + 1) % m]
        if pred not in rot or _after(rot, pred) != succ:
            raise GraphStructureError(f"chord {u}-{v} does not lie in face {walk}")
        j = rot.index(pred) + 1
        rots[a] = rot[:j] + (b,) + rot[j:]


def delete_edge(g: EmbeddedGraph, u: int, v: int) -> EmbeddedGraph:
    """Delete edge u-v, merging its two incident faces.

    The rotations at u and v are re-linearized to start just after the
    removed neighbor, so the cut sits at the merged-face gap.  An outer edge
    (a, b) on u-v moves to the next edge of the outer walk a, b, c, ...
    """
    if not g.has_edge(u, v):
        raise GraphStructureError(f"edge {u}-{v} not present")
    rots = list(g.rotations)
    for a, b in ((u, v), (v, u)):
        i = rots[a].index(b)
        rots[a] = rots[a][i + 1 :] + rots[a][:i]
    outer_edge = g.outer_edge
    if set(outer_edge) == {u, v}:
        a, b = outer_edge
        c = _after(g.rotations[b], a)
        outer_edge = (b, c) if c != a else (a, _after(g.rotations[a], b))
        if set(outer_edge) == {u, v}:
            raise GraphStructureError("outer face has no surviving edge")
    return EmbeddedGraph(tuple(rots), outer_edge)


def identify_vertices(
    graphs: Sequence[EmbeddedGraph],
    groups: Sequence[Sequence[tuple[int, int]]],
) -> tuple[EmbeddedGraph, list[dict[int, int]]]:
    """Disjoint union of graphs, merging each group of (graph, vertex) pairs
    into one vertex.

    The merged vertex's rotation concatenates the member rotations in group
    order (each member contributing its stored cyclic interval).  Group g
    becomes vertex g; the remaining vertices follow in graph-major order.
    Returns the glued graph and one old->new id map per input graph.

    Raises GraphStructureError if the identification would create a loop or
    a parallel edge.
    """
    where: dict[tuple[int, int], int] = {}
    for gi, members in enumerate(groups):
        for gr, v in members:
            if not 0 <= v < graphs[gr].n:
                raise GraphStructureError(f"group member ({gr},{v}) out of range")
            if (gr, v) in where:
                raise GraphStructureError(f"vertex ({gr},{v}) in two groups")
            where[(gr, v)] = gi

    maps: list[dict[int, int]] = [dict() for _ in graphs]
    next_id = len(groups)
    for gr, g in enumerate(graphs):
        for v in range(g.n):
            if (gr, v) in where:
                maps[gr][v] = where[(gr, v)]
            else:
                maps[gr][v] = next_id
                next_id += 1

    rots: list[list[int]] = [[] for _ in range(next_id)]
    for gi, members in enumerate(groups):
        for gr, v in members:
            rots[gi].extend(maps[gr][u] for u in graphs[gr].rotations[v])
    for gr, g in enumerate(graphs):
        for v in range(g.n):
            if (gr, v) not in where:
                rots[maps[gr][v]] = [maps[gr][u] for u in g.rotations[v]]

    for v, rot in enumerate(rots):
        if v in rot:
            raise GraphStructureError(f"identification creates a loop at {v}")
        if len(set(rot)) != len(rot):
            raise GraphStructureError(f"identification creates a parallel edge at {v}")

    u0, v0 = graphs[0].outer_edge
    outer_edge = (maps[0][u0], maps[0][v0])
    return EmbeddedGraph(tuple(tuple(r) for r in rots), outer_edge), maps


def triangle() -> EmbeddedGraph:
    """The 3-cycle with outer face (0, 1, 2)."""
    return EmbeddedGraph(((1, 2), (2, 0), (0, 1)), (0, 1))
