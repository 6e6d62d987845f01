"""Recursive Moon-Moser triangulations and the glued block construction.

T_1 is K_4 with outer triangle x, y, z.  Each further level inserts a new
degree-3 vertex into every inner face of the previous level.  The extremal
graph H(n, k) glues s blocks (copies of T_i with the edge x_j y_j removed,
the last one possibly truncated) at two hub vertices x, y and adds the
single edge xy back.  The hubs are vertices 0 and 1 of H; the other vertices
are numbered block by block, so every block vertex has a closed-form id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

from .embedding import (
    EmbeddedGraph,
    GraphStructureError,
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


def choose_level_float(k: int) -> int:
    """Floating-point cross-check form ceil(log2(k/3)) - 1."""
    if k < 7:
        raise DomainError(f"k must be >= 7, got {k}")
    return math.ceil(math.log2(k / 3)) - 1


@dataclass(frozen=True)
class MoonMoserGraph:
    """Level-i triangulation (or a truncation of it) with labeled outer
    triangle x, y, z."""

    level: int
    graph: EmbeddedGraph
    x: int
    y: int
    z: int


def _k4_state() -> tuple[list[dict[int, int]], list[int], list[tuple[int, int, int]]]:
    """Successor maps of T_1, rotation anchors, and the inner-face queue."""
    # rotations: 0:[1,3,2] 1:[2,3,0] 2:[0,3,1] 3:[2,0,1]; outer walk (0,1,2)
    succ: list[dict[int, int]] = [
        {1: 3, 3: 2, 2: 1},
        {2: 3, 3: 0, 0: 2},
        {0: 3, 3: 1, 1: 0},
        {2: 0, 0: 1, 1: 2},
    ]
    anchors = [1, 2, 0, 2]
    faces = [(1, 0, 3), (0, 2, 3), (2, 1, 3)]
    return succ, anchors, faces


def _insert_in_face(
    succ: list[dict[int, int]],
    anchors: list[int],
    walk: tuple[int, int, int],
) -> list[tuple[int, int, int]]:
    """Insert a vertex into the face `walk`; return the three new faces."""
    p0, p1, p2 = walk
    c = len(succ)
    for p, q in ((p0, p1), (p1, p2), (p2, p0)):
        succ[q][c] = succ[q][p]
        succ[q][p] = c
    succ.append({p1: p0, p2: p1, p0: p2})
    anchors.append(p2)
    return [(p0, p1, c), (p1, p2, c), (p2, p0, c)]


def _to_graph(succ: list[dict[int, int]], anchors: list[int]) -> EmbeddedGraph:
    rotations = []
    for v, nxt in enumerate(succ):
        rot = [anchors[v]]
        u = nxt[anchors[v]]
        while u != anchors[v]:
            rot.append(u)
            u = nxt[u]
        rotations.append(tuple(rot))
    return EmbeddedGraph(tuple(rotations), (0, 1))


def _grow(i: int, v: int) -> MoonMoserGraph:
    """The first v vertices of the level-i build: level by level, each
    inner face of the previous level in turn receives a new vertex."""
    if v > MAX_VERTICES:
        raise ResourceError(f"level {i} needs {v} vertices, limit is {MAX_VERTICES}")
    succ, anchors, queue = _k4_state()
    while len(succ) < v:
        next_queue: list[tuple[int, int, int]] = []
        for walk in queue[: v - len(succ)]:
            next_queue += _insert_in_face(succ, anchors, walk)
        queue = next_queue
    return MoonMoserGraph(i, _to_graph(succ, anchors), 0, 1, 2)


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
    walk = t.graph.trace_face((t.y, t.x))
    if len(walk) != 3:
        raise GraphStructureError("expected a triangular inner face on x-y")
    w = next(u for u in walk if u not in (t.x, t.y))
    return t.graph, delete_edge(t.graph, t.x, t.y), w


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

    All faces triangles with E = 3n - 6 make the completed embedding planar,
    and deleting the chords from its rotations gives H's, so each chord lies
    in a face of H.
    """
    g = complete_to_triangulation(h)
    return is_triangulation(g) and g.edge_count == 3 * h.plan.n - 6
