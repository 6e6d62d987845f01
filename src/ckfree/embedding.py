"""Simple planar graphs with combinatorial embeddings (rotation systems).

A graph is stored as one neighbor tuple per vertex, in the cyclic order of
edges around the vertex; the unbounded face is designated by a directed edge
lying on it.  Faces are computed on darts (directed edges): dart off[v] + i
is (v, rotations[v][i]), and the face successor fnext[d] =
rotation-successor(twin[d]) follows the rule "after arriving at v from u,
leave along the neighbor following u in v's rotation".  Faces are the orbits
of fnext.  These flat arrays are built once per graph, and one tracer walks
them for validation, the triangulation checks and face walks.  A face is
returned as the tuple of its vertices in walk order.

Rotation tuples are cyclic, but operations keep the concrete linearization
deterministic: `delete_edge` cuts each affected rotation at the gap left by
the removed edge, which is exactly what the gluing step of the block
construction needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat
from typing import Iterator, NamedTuple, Sequence


class GraphStructureError(ValueError):
    """A malformed embedding, or an operation that would produce one."""


class _Darts(NamedTuple):
    off: list[int]  # CSR offsets, n + 1 entries
    tail: list[int]  # tail vertex of each dart
    fnext: list[int]  # next dart along the same face


@dataclass(frozen=True)
class EmbeddedGraph:
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

    def degree(self, v: int) -> int:
        return len(self.rotations[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.rotations[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.rotations[u]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.rotations[u] if u < v]

    # -- darts --------------------------------------------------------------

    @cached_property
    def _darts(self) -> _Darts:
        """Dart arrays, built once per graph.  Raises GraphStructureError
        for a loop, a parallel edge, a neighbor out of range or asymmetry."""
        rots = self.rotations
        n = len(rots)
        degs = list(map(len, rots))
        nbrs = list(map(set, rots))
        for v in range(n):
            if v in nbrs[v]:
                raise GraphStructureError(f"loop at vertex {v}")
            if len(nbrs[v]) != degs[v]:
                raise GraphStructureError(f"parallel edge at vertex {v}")
        off = list(accumulate(degs, initial=0))
        m = off[-1]
        head = list(chain.from_iterable(rots))
        tail = list(chain.from_iterable(map(repeat, range(n), degs)))
        # stable sorts list the darts by (head, tail) and by (tail, head); if every
        # dart has a reverse, the p-th darts of the two lists are twins.
        by_head = sorted(range(m), key=head.__getitem__)
        twin = [0] * m
        for d, e in zip(by_head, sorted(by_head, key=tail.__getitem__)):
            twin[d] = e
        if list(map(head.__getitem__, twin)) != tail or list(map(tail.__getitem__, twin)) != head:
            v, u = next((v, u) for v, u in zip(tail, head) if not (0 <= u < n and v in nbrs[u]))
            if not 0 <= u < n:
                raise GraphStructureError(f"neighbor {u} of {v} out of range")
            raise GraphStructureError(f"asymmetric adjacency {v}->{u}")
        succ = list(range(1, m + 1))  # next dart in the rotation at tail[d]
        for a, b in zip(off, off[1:]):
            if a != b:
                succ[b - 1] = a
        return _Darts(off, tail, list(map(succ.__getitem__, twin)))

    def _dart(self, a: int, b: int) -> int:
        if not (0 <= a < self.n and b in self.rotations[a]):
            raise GraphStructureError(f"({a},{b}) is not a directed edge")
        return self._darts.off[a] + self.rotations[a].index(b)

    def _orbit(self, d: int) -> list[int]:
        """The darts of the face through dart d, in walk order."""
        fnext = self._darts.fnext
        orbit = [d]
        e = fnext[d]
        while e != d:
            orbit.append(e)
            e = fnext[e]
        return orbit

    def _orbits(self) -> Iterator[list[int]]:
        """Every face once, as a dart orbit, in order of its first dart."""
        seen = bytearray(len(self._darts.tail))
        for d in range(len(seen)):
            if not seen[d]:
                orbit = self._orbit(d)
                for e in orbit:
                    seen[e] = 1
                yield orbit

    def _walk(self, orbit: list[int]) -> tuple[int, ...]:
        return tuple(map(self._darts.tail.__getitem__, orbit))

    # -- validity -----------------------------------------------------------

    def validate(self) -> None:
        """Check simplicity, symmetry, connectivity and Euler's formula."""
        n = self.n
        self._darts  # raises on loops, parallel edges, bad ids and asymmetry
        if n > 1 and not self._connected():
            raise GraphStructureError("graph is not connected")
        u, v = self.outer_edge
        if n >= 2 and not self.has_edge(u, v):
            raise GraphStructureError("outer-face edge is not an edge of the graph")
        e = self.edge_count
        f = sum(1 for _ in self._orbits()) or 1  # no darts: one face
        if n >= 1 and n - e + f != 2:
            raise GraphStructureError(
                f"Euler check failed: V={n} E={e} F={f} gives {n - e + f}"
            )

    def _connected(self) -> bool:
        seen = [False] * self.n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            v = stack.pop()
            for u in self.rotations[v]:
                if not seen[u]:
                    seen[u] = True
                    count += 1
                    stack.append(u)
        return count == self.n

    # -- faces --------------------------------------------------------------

    def trace_face(self, start: tuple[int, int]) -> tuple[int, ...]:
        """Vertices of the face walk that starts with the directed edge
        `start`, in walk order."""
        return self._walk(self._orbit(self._dart(*start)))

    def face_walks(self) -> list[tuple[int, ...]]:
        """All face walks; every directed edge lies on exactly one."""
        return [self._walk(o) for o in self._orbits()]

    def outer_face(self) -> tuple[int, ...]:
        return self.trace_face(self.outer_edge)


def is_triangulation(g: EmbeddedGraph) -> bool:
    """True iff every face, the outer one included, is a triangle."""
    if g.n < 3 or not all(len(o) == 3 for o in g._orbits()):
        return False
    if g.edge_count != 3 * g.n - 6:
        raise GraphStructureError("all faces triangular but E != 3V-6")
    return True


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
        j = rot.index(pred) + 1 if pred in rot else None
        if j is None or rot[j % len(rot)] != succ:
            raise GraphStructureError(f"chord {u}-{v} does not lie in face {walk}")
        rots[a] = rot[:j] + (b,) + rot[j:]


def delete_edge(g: EmbeddedGraph, u: int, v: int) -> EmbeddedGraph:
    """Delete edge u-v, merging its two incident faces.

    The rotations at u and v are re-linearized to start just after the
    removed neighbor, so the cut sits at the merged-face gap.
    """
    if not g.has_edge(u, v):
        raise GraphStructureError(f"edge {u}-{v} not present")
    rots = list(g.rotations)
    for a, b in ((u, v), (v, u)):
        i = rots[a].index(b)
        rots[a] = rots[a][i + 1 :] + rots[a][:i]
    outer_edge = g.outer_edge
    if set(outer_edge) == {u, v}:
        walk = g.outer_face()
        for e in zip(walk, walk[1:] + walk[:1]):
            if set(e) != {u, v}:
                outer_edge = e
                break
        else:
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
