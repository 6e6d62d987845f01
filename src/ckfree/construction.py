"""Recursive Moon-Moser triangulations and the glued block construction.

T_1 is K_4 with outer triangle x, y, z.  Each further level inserts a new
degree-3 vertex into every inner face of the previous level.  The extremal
graph H(n, k) glues s blocks (copies of T_i with the edge x_j y_j removed,
the last one possibly truncated) at two hub vertices x, y and adds the
single edge xy back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .embedding import (
    EmbeddedGraph,
    GraphStructureError,
    _insert_chord,
    delete_edge,
    identify_vertices,
    is_triangulation,
    triangle,
)

MAX_VERTICES = 4_000_000

InsertionLog = tuple[tuple[tuple[int, int, int], int], ...]


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
    triangle and the deterministic face-insertion history."""

    level: int
    graph: EmbeddedGraph
    x: int
    y: int
    z: int
    insertion_log: InsertionLog


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
) -> tuple[int, list[tuple[int, int, int]]]:
    p0, p1, p2 = walk
    c = len(succ)
    for p, q in ((p0, p1), (p1, p2), (p2, p0)):
        succ[q][c] = succ[q][p]
        succ[q][p] = c
    succ.append({p1: p0, p2: p1, p0: p2})
    anchors.append(p2)
    return c, [(p0, p1, c), (p1, p2, c), (p2, p0, c)]


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


def _grow(i: int, stop_after: int | None, max_vertices: int) -> MoonMoserGraph:
    succ, anchors, queue = _k4_state()
    log: list[tuple[tuple[int, int, int], int]] = []
    done = False
    for _ in range(2, i + 1):
        next_queue: list[tuple[int, int, int]] = []
        for walk in queue:
            if stop_after is not None and len(log) >= stop_after:
                done = True
                break
            if len(succ) >= max_vertices:
                raise ResourceError(
                    f"vertex limit {max_vertices} reached while building level {i}"
                )
            c, children = _insert_in_face(succ, anchors, walk)
            log.append((walk, c))
            next_queue.extend(children)
        if done:
            break
        queue = next_queue
    return MoonMoserGraph(i, _to_graph(succ, anchors), 0, 1, 2, tuple(log))


def moon_moser(i: int, max_vertices: int = MAX_VERTICES) -> MoonMoserGraph:
    """The level-i triangulation on (3^i + 5) / 2 vertices."""
    if i < 1:
        raise DomainError(f"level must be >= 1, got {i}")
    if moon_moser_order(i) > max_vertices:
        raise ResourceError(
            f"level {i} needs {moon_moser_order(i)} vertices, limit is {max_vertices}"
        )
    return _grow(i, None, max_vertices)


def truncated_moon_moser(i: int, v: int) -> MoonMoserGraph:
    """Triangulation on v vertices replaying the first v-4 insertions of the
    level-i build; equals moon_moser(i) when v is the full order."""
    if i < 1:
        raise DomainError(f"level must be >= 1, got {i}")
    if not 4 <= v <= moon_moser_order(i):
        raise DomainError(
            f"v={v} outside [4, {moon_moser_order(i)}] for level {i}"
        )
    return _grow(i, v - 4, MAX_VERTICES)


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

    w[j] is the apex of the inner face that sat on the deleted edge x_j y_j
    (None for a degenerate 3-vertex last block); z[j] is the third outer
    vertex of block j.  block_maps[j] maps block-local ids to ids in H.
    """

    plan: BlockPlan
    graph: EmbeddedGraph
    x: int
    y: int
    w: tuple[int | None, ...]
    z: tuple[int, ...]
    block_maps: tuple[dict[int, int], ...]


@dataclass(frozen=True)
class CompletionEdgeSet:
    """The s-1 chords whose addition turns H into a triangulation."""

    edges: tuple[tuple[int, int], ...]


def _block_pieces(t: MoonMoserGraph) -> tuple[EmbeddedGraph, int]:
    """(H^-, w): the block minus its outer edge x-y, and the inner apex on x-y."""
    walk = t.graph.trace_face((t.y, t.x)).boundary
    if len(walk) != 3:
        raise GraphStructureError("expected a triangular inner face on x-y")
    w = next(v for v in walk if v not in (t.x, t.y))
    return delete_edge(t.graph, t.x, t.y), w


def build_construction(n: int, k: int, validate: bool = True) -> ExtremalConstruction:
    """Glue s blocks at the hubs x, y and add the edge xy.

    The result has n vertices and 3n - 6 - (s-1) edges; every face is a
    triangle except the s-1 quadrilaterals (x, w_j, y, z_{j+1}).
    """
    plan = block_plan(n, k)
    s, v_s = plan.s, plan.v_s

    full_minus: EmbeddedGraph | None = None
    full_w: int | None = None
    if s > 1:
        full_minus, full_w = _block_pieces(moon_moser(plan.i))

    if v_s == plan.block_size and full_minus is not None:
        last_minus, last_w = full_minus, full_w
    elif v_s >= 4:
        last_minus, last_w = _block_pieces(truncated_moon_moser(plan.i, v_s))
    else:  # degenerate 3-vertex block: the path x - z - y
        last_minus, last_w = delete_edge(triangle(), 0, 1), None

    block_graphs: list[EmbeddedGraph] = [full_minus] * (s - 1) + [last_minus]
    block_ws: list[int | None] = [full_w] * (s - 1) + [last_w]

    # rotation at x concatenates blocks s..1, at y blocks 1..s; this places
    # the quadrilateral face (x, w_j, y, z_{j+1}) between consecutive blocks
    group_x = [(j, 0) for j in reversed(range(s))]
    group_y = [(j, 1) for j in range(s)]
    glued, maps = identify_vertices(block_graphs, [group_x, group_y])

    # the edge xy goes in the wrap-around face (x, w_s, y, z_1); both stored
    # rotations end at exactly that gap after the concatenation above
    rots = list(glued.rotations)
    rots[0] += (1,)
    rots[1] += (0,)
    graph = EmbeddedGraph(tuple(rots), (0, 1))

    w = tuple(maps[j][block_ws[j]] if block_ws[j] is not None else None for j in range(s))
    z = tuple(maps[j][2] for j in range(s))
    h = ExtremalConstruction(
        plan=plan, graph=graph, x=0, y=1, w=w, z=z, block_maps=tuple(maps)
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
    """H plus all completion chords."""
    rots = list(h.graph.rotations)
    for w, z in completion_edges(h).edges:
        # the chord w_j - z_{j+1} goes in the face (x, w_j, y, z_{j+1})
        walk = h.graph.trace_face((w, h.y)).boundary
        if sorted(walk) != sorted((h.x, w, h.y, z)):
            raise GraphStructureError(f"no quadrilateral face for chord {w}-{z}")
        _insert_chord(rots, walk, w, z)
    return EmbeddedGraph(tuple(rots), h.graph.outer_edge)


def verify_completion(h: ExtremalConstruction) -> bool:
    """True iff adding the completion chords yields a triangulation on
    3n - 6 edges."""
    g = complete_to_triangulation(h)
    return is_triangulation(g) and g.edge_count == 3 * h.plan.n - 6
