"""Simple planar graphs with combinatorial embeddings (rotation systems).

A graph is stored as one neighbor tuple per vertex, in the cyclic order of
edges around the vertex; the unbounded face is designated by a directed edge
lying on it.  Faces are computed on darts (directed edges): dart off[v] + i
is (v, rotations[v][i]), and the face successor fnext[d] follows the rule
"after arriving at v from u, leave along the neighbor following u in v's
rotation".  The place of u is found by `tuple.index` on v's rotation itself,
and the place after it read from a table shared by all rotations of v's
degree.  At a hub, a vertex of degree above SCAN_DEGREE, the scan starts at
a hint, the place of u, which a pass over the hub's own darts writes first,
so it ends at once.  Faces are the orbits of fnext.  Each check builds off
and fnext afresh, once per call, as `array("i")`s, and the graph keeps
neither; the build makes no object per vertex or per dart.  The build counts
the faces in one pass over the unseen darts: a dart with fnext^3(d) = d
starts a triangle, whose three darts are marked at once; any other starts a
walk of its face, and a walk that does not close shows a repeated neighbor.
Validation reads the face count, the triangle test checks fnext^3 = id, and
one walker (`_face`) lists a face's vertices in walk order.

Rotation tuples are cyclic, but operations keep the concrete linearization
deterministic: `delete_edge` cuts each affected rotation at the gap left by
the removed edge, which is exactly what the gluing step of the block
construction needs.
"""

from __future__ import annotations

from array import array
from functools import partial
from itertools import accumulate, chain, compress, repeat
from operator import add, contains, getitem, lt, setitem
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


# Up to this degree a place is found by scanning the rotation from its
# start; a hub above it is scanned from a hint.
SCAN_DEGREE = 12


class _Darts(NamedTuple):
    off: array  # array("i") of CSR offsets, n + 1 entries: dart off[v] + i is (v, rotations[v][i])
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
        # off as a list while darts are read: an array would make an int per read
        first = list(accumulate(map(len, rots), initial=0))
        # a negative id would alias a vertex, so ids are checked first
        if any(map(contains, rots, range(n))) or min(chain.from_iterable(rots), default=0) < 0:
            raise GraphStructureError(_first_defect(rots))
        rows = list(rots)  # read faster than the tuple
        # after[v][p]: the place after place p in v's rotation, one table per
        # degree: a tuple of small ints, or at a hub an array, which holds no int
        tables = {d: (tuple if d <= SCAN_DEGREE else partial(array, "i"))(chain(range(1, d), (0,)))
                  for d in set(map(len, rots)) if d}
        after = list(map(tables.get, map(len, rots)))
        # hint[d]: where the scan for dart d's tail in its head's rotation starts
        hint = array("i", bytes(4 * first[-1]))
        hubs = sorted(compress(range(n), map(lt, repeat(SCAN_DEGREE), map(len, rots))),
                      key=lambda v: -len(rots[v]))
        try:
            # Hub v's place p of u is the hint of the dart (u, v), off[u] plus the
            # place of v in u's rotation.  Each hub's rotation is read in reverse,
            # so that the first place of a repeated neighbor is written last; hubs
            # go by falling degree, so that the place of v in a larger hub's
            # rotation was hinted before v is scanned for in it.
            hub_rots = list(map(rots.__getitem__, hubs))
            us = chain.from_iterable(map(reversed, hub_rots))
            starts = chain.from_iterable(map(reversed, map(getitem, repeat(hint), map(
                slice, map(first.__getitem__, hubs), map(first.__getitem__, map(add, hubs, repeat(1)))))))
            at = map(tuple.index, map(rows.__getitem__, chain.from_iterable(map(reversed, hub_rots))),
                     chain.from_iterable(map(repeat, hubs, map(len, hub_rots))), starts)
            places = chain.from_iterable(map(range, map((-1).__add__, map(len, hub_rots)), repeat(-1), repeat(-1)))
            any(map(setitem, repeat(hint), map(add, map(first.__getitem__, us), at), places))
            # the dart after (u, v) leaves v from the place after u in v's rotation
            place = map(tuple.index, map(rows.__getitem__, chain.from_iterable(rots)), _tails(rots), hint)
            fnext = array("i", map(add, map(first.__getitem__, chain.from_iterable(rots)),
                                   map(getitem, map(after.__getitem__, chain.from_iterable(rots)), place)))
        except (IndexError, ValueError):  # some v is n or more, or lacks u: asymmetric
            raise GraphStructureError(_first_defect(rots)) from None
        off = array("i", first)
        del first, rows, after, hint
        seen = bytearray(len(fnext))
        triangles = faces = 0
        d = -1
        while (d := seen.find(0, d + 1)) >= 0:  # one face per unseen dart
            faces += 1
            a = fnext[d]
            b = fnext[a]
            if fnext[b] == d:  # a triangle: there is no loop, so d, a and b differ
                seen[d] = seen[a] = seen[b] = 1
                triangles += 1
                continue
            start = d
            while not seen[d]:
                seen[d] = 1
                d = fnext[d]
            # a walk ends off its start only if fnext is no permutation: when v
            # repeats in u's rotation, every dart (v, u) finds one place of v,
            # and the dart after another place of v has no predecessor
            if d != start:
                raise GraphStructureError(_first_defect(rots))
        return _Darts(off, fnext, triangles, faces or 1)

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
