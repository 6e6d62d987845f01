"""Recursive Moon-Moser triangulations and the glued block construction.

T_1 is K_4 with outer triangle x, y, z.  Each further level inserts a new
degree-3 vertex into every inner face of the previous level.  The extremal
graph H(n, k) glues s blocks (copies of T_i with the edge x_j y_j removed,
the last one possibly truncated) at two hub vertices x, y and adds the
single edge xy back.  The hubs are vertices 0 and 1 of H; the other vertices
are numbered block by block, so every block vertex has a closed-form id.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain

from .embedding import (
    EmbeddedGraph,
    GraphStructureError,
    _after,
    _insert_chord,
    delete_edge,
    is_triangulation,
    triangle,
)

MAX_VERTICES = 4_000_000


class DomainError(ValueError):
    """Arguments outside an operation's contract."""


class ResourceError(RuntimeError):
    """A configured size limit would be exceeded."""


def moon_moser_order(i: int) -> int:
    """Vertex count (3^i + 5) / 2 of the level-i triangulation."""
    return (3**i + 5) // 2


def choose_level(k: int) -> int:
    """Largest level i whose longest-cycle bound stays below k/2.

    Integer form: the maximum i with 3 * 2**i < k.  Defined for k >= 7.
    """
    if k < 7:
        raise DomainError(f"k must be >= 7, got {k}")
    return ((k - 1) // 3).bit_length() - 1  # largest i with 2**i <= (k-1)/3


@dataclass(frozen=True)
class MoonMoserGraph:
    """Level-i triangulation (or a truncation of it) with labeled outer
    triangle x, y, z."""

    level: int
    graph: EmbeddedGraph
    x: int
    y: int
    z: int


def _grow(i: int, v: int) -> MoonMoserGraph:
    """The first v vertices of the level-i build: level by level, each
    inner face of the previous level in turn receives a new vertex.

    The embedding is two flat dart arrays: head[d] is the vertex dart d
    points to, nxt[d] the next dart around the same tail.  A face
    (p0, p1, p2) is kept as its corners, the darts (p1, p0), (p2, p1) and
    (p0, p2).  A vertex c inserted in it gets darts d..d+5: (p1, c), (p2, c)
    and (p0, c), each right after its corner, then c's own (c, p2), (c, p1),
    (c, p0).  Each rotation is read by walking nxt from the vertex's first
    dart, (c, p2) for an inserted vertex.
    """
    if v > MAX_VERTICES:
        raise ResourceError(f"level {i} needs {v} vertices, limit is {MAX_VERTICES}")
    # T_1 = K_4: dart 3u + j is (u, rotation[u][j]) for the rotations
    # 0:(1,3,2) 1:(2,3,0) 2:(0,3,1) 3:(2,0,1), with outer walk (0,1,2)
    head = [1, 3, 2, 2, 3, 0, 0, 3, 1, 2, 0, 1] + [0] * (6 * v - 24)
    nxt = array("i", (1, 2, 0, 4, 5, 3, 7, 8, 6, 10, 11, 9)) + array("i", [0]) * (6 * v - 24)
    queue = array("i", (0, 10, 4, 6, 9, 1, 3, 11, 7))  # faces (1,0,3), (0,2,3), (2,1,3)
    c = 4
    while c < v:
        last = v - c <= len(queue) // 3  # no face list for the last level
        next_queue = array("i")
        corners = iter(queue[: 3 * (v - c)])
        for a, b, e in zip(corners, corners, corners):
            d = 6 * c - 12
            head[d : d + 6] = c, c, c, head[e], head[b], head[a]
            nxt[d], nxt[d + 1], nxt[d + 2] = nxt[a], nxt[b], nxt[e]
            nxt[a], nxt[b], nxt[e] = d, d + 1, d + 2
            nxt[d + 3], nxt[d + 4], nxt[d + 5] = d + 4, d + 5, d + 3
            if not last:
                next_queue.extend((a, d + 4, d + 2, b, d + 3, d, e, d + 5, d + 1))
            c += 1
        queue = next_queue
    rotations = []
    for first in chain(range(0, 12, 3), range(15, 6 * v - 12, 6)):
        rot, d = [head[first]], nxt[first]
        while d != first:
            rot.append(head[d])
            d = nxt[d]
        rotations.append(tuple(rot))
    return MoonMoserGraph(i, EmbeddedGraph(tuple(rotations), (0, 1)), 0, 1, 2)


def moon_moser(i: int) -> MoonMoserGraph:
    """The level-i triangulation on (3^i + 5) / 2 vertices."""
    if i < 1:
        raise DomainError(f"level must be >= 1, got {i}")
    return _grow(i, moon_moser_order(i))


def truncated_moon_moser(i: int, v: int) -> MoonMoserGraph:
    """Triangulation on v vertices replaying the first v-4 insertions of the
    level-i build; equals moon_moser(i) when v is the full order."""
    if i < 1:
        raise DomainError(f"level must be >= 1, got {i}")
    if not 4 <= v <= moon_moser_order(i):
        raise DomainError(
            f"v={v} outside [4, {moon_moser_order(i)}] for level {i}"
        )
    return _grow(i, v)


@dataclass(frozen=True)
class BlockPlan:
    """Integer plan for H(n, k): level i, block count s, last-block size."""

    k: int
    n: int
    i: int
    s: int
    v_s: int

    @property
    def block_size(self) -> int:
        return moon_moser_order(self.i)


def _plan_counts(n: int, k: int, i: int, b: int) -> tuple[int, int]:
    """(s, v_s) for n vertices in level-i blocks of order b.

    The one copy of the plan arithmetic: callers that tabulate many n for
    one k compute i and b = moon_moser_order(i) once and call this per n.
    """
    if n < b:
        raise DomainError(f"n={n} below minimum {b} for k={k} (level {i})")
    half = b - 2  # vertices each block adds beyond the two hubs
    s = -((n - 2) // -half)
    v_s = n - (s - 1) * half
    if not 3 <= v_s <= b:
        raise GraphStructureError(f"internal plan error: v_s={v_s}")
    return s, v_s


def block_plan(n: int, k: int) -> BlockPlan:
    i = choose_level(k)
    s, v_s = _plan_counts(n, k, i, moon_moser_order(i))
    return BlockPlan(k=k, n=n, i=i, s=s, v_s=v_s)


@dataclass(frozen=True)
class ExtremalConstruction:
    """The glued graph H(n, k) with hubs and per-block labels.

    The hubs x, y are vertices 0 and 1; vertex v >= 2 of block j is
    `vertex(j, v)`.  w[j] is the apex of the inner face that sat on the
    deleted edge x_j y_j (None for a degenerate 3-vertex last block); z[j]
    is the third outer vertex of block j.  `shapes` lists each distinct
    block as (block order, range of block indices): the full blocks, then
    the last block if it is truncated.
    """

    plan: BlockPlan
    graph: EmbeddedGraph
    x: int
    y: int
    w: tuple[int | None, ...]
    z: tuple[int, ...]
    shapes: tuple[tuple[int, range], ...]

    def vertex(self, j: int, v: int) -> int:
        """Id in H of vertex v of block j."""
        return v if v < 2 else v + j * (self.plan.block_size - 2)


@dataclass(frozen=True)
class CompletionEdgeSet:
    """The s-1 chords whose addition turns H into a triangulation."""

    edges: tuple[tuple[int, int], ...]


def block_pieces(i: int, v: int) -> tuple[EmbeddedGraph, EmbeddedGraph, int | None]:
    """(block, block minus its outer edge x-y, inner apex on x-y) for the
    v-vertex block of level i, v = 3 or 4 <= v <= moon_moser_order(i).

    The 3-vertex block is a triangle, whose apex is None: minus x-y it is
    the path x - z - y.
    """
    if v == 3:
        t = triangle()
        return t, delete_edge(t, 0, 1), None
    t = moon_moser(i) if v == moon_moser_order(i) else truncated_moon_moser(i, v)
    rot, x, y = t.graph.rotations, t.x, t.y
    w = _after(rot[x], y)  # the face y -> x -> w must close as y -> x -> w -> y
    if _after(rot[w], x) != y or _after(rot[y], w) != x:
        raise GraphStructureError("expected a triangular inner face on x-y")
    return t.graph, delete_edge(t.graph, x, y), w


def build_construction(n: int, k: int, validate: bool = True) -> ExtremalConstruction:
    """Glue s blocks at the hubs x, y and add the edge xy.

    The result has n vertices and 3n - 6 - (s-1) edges; every face is a
    triangle except the s-1 quadrilaterals (x, w_j, y, z_{j+1}).
    """
    plan = block_plan(n, k)
    if n > MAX_VERTICES:
        raise ResourceError(f"H({n}, {k}) needs {n} vertices, limit is {MAX_VERTICES}")
    s, b = plan.s, plan.block_size
    half = b - 2  # vertices each block adds beyond the two hubs
    full = s if plan.v_s == b else s - 1
    shapes = tuple(
        shape for shape in ((b, range(full)), (plan.v_s, range(full, s))) if shape[1]
    )

    hub_x: list[tuple[int, ...]] = []
    hub_y: list[tuple[int, ...]] = []
    rots: list[tuple[int, ...]] = [(), ()]
    w: list[int | None] = []
    z: list[int] = []
    for order, blocks in shapes:
        _, minus, apex = block_pieces(plan.i, order)
        for j in blocks:
            # ids[v] = vertex(j, v), one int object per vertex of H, shared
            # by every rotation that holds it
            ids = (0, 1, *range(2 + j * half, order + j * half))
            shifted = [tuple(map(ids.__getitem__, rot)) for rot in minus.rotations]
            hub_x.append(shifted[0])
            hub_y.append(shifted[1])
            rots += shifted[2:]
            w.append(None if apex is None else ids[apex])
            z.append(ids[2])

    # rotation at x concatenates blocks s..1, at y blocks 1..s; this places
    # the quadrilateral face (x, w_j, y, z_{j+1}) between consecutive blocks.
    # The edge xy goes in the wrap-around face (x, w_s, y, z_1), where both
    # rotations end.
    rots[0] = tuple(chain.from_iterable(reversed(hub_x))) + (1,)
    rots[1] = tuple(chain.from_iterable(hub_y)) + (0,)
    graph = EmbeddedGraph(tuple(rots), (0, 1))

    h = ExtremalConstruction(
        plan=plan, graph=graph, x=0, y=1, w=tuple(w), z=tuple(z), shapes=shapes
    )
    if validate:
        graph.validate()
        expected_edges = 3 * n - 6 - (s - 1)
        if graph.n != n or graph.edge_count != expected_edges:
            raise GraphStructureError(
                f"built H has V={graph.n} E={graph.edge_count}, "
                f"expected V={n} E={expected_edges}"
            )
    return h


def completion_edges(h: ExtremalConstruction) -> CompletionEdgeSet:
    """The chords w_j - z_{j+1}, one per quadrilateral face of H."""
    s = h.plan.s
    pairs = []
    for j in range(s - 1):
        wj = h.w[j]
        assert wj is not None  # only the last block can be degenerate
        pairs.append((wj, h.z[j + 1]))
    return CompletionEdgeSet(tuple(pairs))


def complete_to_triangulation(h: ExtremalConstruction) -> EmbeddedGraph:
    """H plus all completion chords.

    Each chord w_j - z_{j+1} goes in the face (x, w_j, y, z_{j+1}) that
    build_construction laid out; H is not traced.  `verify_completion`
    certifies the result.
    """
    rots = list(h.graph.rotations)
    for w, z in completion_edges(h).edges:
        _insert_chord(rots, (h.x, w, h.y, z), w, z)
    return EmbeddedGraph(tuple(rots), h.graph.outer_edge)


def verify_completion(h: ExtremalConstruction) -> bool:
    """True iff adding the completion chords yields a triangulation on
    3n - 6 edges.

    A connected embedding whose faces are all triangles with E = 3n - 6 is
    planar, and deleting the chords from its rotations gives H's, so each
    chord lies in a face of H.
    """
    g = complete_to_triangulation(h)
    return is_triangulation(g) and g.edge_count == 3 * h.plan.n - 6
