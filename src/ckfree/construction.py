"""Recursive Moon-Moser triangulations and the glued block construction.

T_1 is K_4 with outer triangle x, y, z.  Each further level inserts a new
degree-3 vertex into every inner face of the previous level.  The extremal
graph H(n, k) glues s blocks (copies of T_i with the edge x_j y_j removed,
the last one possibly truncated) at two hub vertices x, y and adds the
single edge xy back.  The hubs are vertices 0 and 1 of H; the other vertices
are numbered block by block, so every block vertex has a closed-form id.
`layout` keeps H as its distinct block shapes, from which `_layout_faces`
certifies it, `verify_completion` checks its chords and the CLI writes and
verifies it; `build_construction` alone assembles H's rotations.
"""

from __future__ import annotations

from array import array
from itertools import chain, islice
from typing import Iterator, NamedTuple

from .embedding import EmbeddedGraph, GraphStructureError, _insert_chord, delete_edge, triangle

MAX_VERTICES = 4_000_000
# a layout holds nothing of size n, but its block ranges need len() below 2**63
MAX_LAYOUT_VERTICES = 10**18
MAX_LEVEL = MAX_VERTICES.bit_length()  # 3**i > 2**i, so no higher level fits


class DomainError(ValueError):
    """Arguments outside an operation's contract."""


class ResourceError(RuntimeError):
    """A configured size limit would be exceeded."""


def moon_moser_order(i: int) -> int:
    """Vertex count (3^i + 5) / 2 of the level-i triangulation."""
    return (3**i + 5) // 2


def level_order(i: int) -> int:
    """moon_moser_order(i), refusing a level outside 1..MAX_LEVEL before 3**i
    is computed: a huge level takes seconds and has too many digits to print."""
    if i < 1:
        raise DomainError(f"level must be >= 1, got {i}")
    if i > MAX_LEVEL:
        raise ResourceError(f"level {i} needs more than {MAX_VERTICES} vertices")
    return moon_moser_order(i)


def choose_level(k: int) -> int:
    """Largest level i whose longest-cycle bound stays below k/2.

    Integer form: the maximum i with 3 * 2**i < k.  Defined for k >= 7.
    """
    if k < 7:
        raise DomainError(f"k must be >= 7, got {k}")
    return ((k - 1) // 3).bit_length() - 1  # largest i with 2**i <= (k-1)/3


class MoonMoserGraph(NamedTuple):
    """Level-i triangulation (or a truncation of it) with labeled outer
    triangle x, y, z."""

    level: int
    graph: EmbeddedGraph
    x: int
    y: int
    z: int


def _grow(i: int, v: int) -> Iterator[tuple[int, ...]]:
    """The rotations, in id order, of the first v vertices of the level-i
    build: level by level, each inner face of the previous level in turn
    receives a new vertex.  The graph is grown at the call, after the size
    check; each rotation tuple is made as it is read, so none is held here.

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

    def rotations() -> Iterator[tuple[int, ...]]:
        for first in chain(range(0, 12, 3), range(15, 6 * v - 12, 6)):
            rot, d = [head[first]], nxt[first]
            while d != first:
                rot.append(head[d])
                d = nxt[d]
            yield tuple(rot)

    return rotations()


def tower_rotations(i: int) -> Iterator[tuple[int, ...]]:
    """The rotations of the level-i triangulation, in id order, one at a
    time; its outer walk is (0, 1, 2).  A writer that reads them in turn
    never holds the graph."""
    return _grow(i, level_order(i))


def moon_moser(i: int) -> MoonMoserGraph:
    """The level-i triangulation on (3^i + 5) / 2 vertices."""
    return MoonMoserGraph(i, EmbeddedGraph(tuple(tower_rotations(i)), (0, 1)), 0, 1, 2)


def truncated_moon_moser(i: int, v: int) -> MoonMoserGraph:
    """Triangulation on v vertices replaying the first v-4 insertions of the
    level-i build; equals moon_moser(i) when v is the full order."""
    order = level_order(i)
    if not 4 <= v <= order:
        raise DomainError(f"v={v} outside [4, {order}] for level {i}")
    return MoonMoserGraph(i, EmbeddedGraph(tuple(_grow(i, v)), (0, 1)), 0, 1, 2)


class BlockPlan(NamedTuple):
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
    if n < b:  # the order of a level above MAX_LEVEL may be too long to print
        order = b if i <= MAX_LEVEL else f"(3^{i} + 5)/2"
        raise DomainError(f"n={n} below minimum {order} for k={k} (level {i})")
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


class Layout(NamedTuple):
    """H(n, k) as its distinct block shapes: every fact about H is read from
    them, and nothing of size n is built.

    The hubs x, y are vertices 0 and 1; vertex v >= 2 of block j is
    `vertex(j, v)`.  `shapes` lists each distinct block as (block order,
    range of block indices, shape M): the full blocks, then the last block
    if it is truncated.  M is that block minus its edge xy, hubs 0 and 1.
    """

    plan: BlockPlan
    x: int
    y: int
    shapes: tuple[tuple[int, range, EmbeddedGraph], ...]

    def vertex(self, j: int, v: int) -> int:
        """Id in H of vertex v of block j."""
        return v if v < 2 else v + j * (self.plan.block_size - 2)

    def first_neighbors(self, hub: int) -> Iterator[int]:
        """Id in H of each block's first neighbor at `hub`, block by block.

        A hub's rotation in M starts just after the other hub
        (`delete_edge`), so at x this is block j's apex w_j, on the inner
        face over the deleted edge xy, and at y its outer vertex z_j.  A
        3-vertex block, the path x - z - y, gives z at both hubs.
        """
        half = self.plan.block_size - 2
        for _, js, m in self.shapes:
            u = m.rotations[hub][0]
            yield from range(u + js.start * half, u + js.stop * half, half)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether uv is an edge of H, read in the shape of the block that
        holds its non-hub end; the edge xy is the only one between hubs."""
        if u < 2:
            u, v = v, u
        if u < 2:
            return {u, v} == {0, 1}
        half = self.plan.block_size - 2
        j, r = divmod(u - 2, half)  # u is vertex r + 2 of block j
        w = v - j * half if v >= 2 else v  # v's id in block j, a hub's only if v is one
        for order, js, m in self.shapes:
            if j in js and r + 2 < order:
                return (w >= 2) == (v >= 2) and w in m.rotations[r + 2]
        return False

    @property
    def edge_count(self) -> int:
        return 1 + sum(m.edge_count * len(js) for _, js, m in self.shapes)


class ExtremalConstruction(NamedTuple):
    """The glued graph H(n, k), assembled from its `Layout`, whose fields
    and methods it shares: it goes wherever a Layout does."""

    plan: BlockPlan
    graph: EmbeddedGraph
    x: int
    y: int
    shapes: tuple[tuple[int, range, EmbeddedGraph], ...]

    vertex = Layout.vertex
    first_neighbors = Layout.first_neighbors
    has_edge = Layout.has_edge
    edge_count = Layout.edge_count


class CompletionEdgeSet(NamedTuple):
    """The s-1 chords whose addition turns H into a triangulation."""

    edges: tuple[tuple[int, int], ...]


def block_shape(i: int, v: int) -> EmbeddedGraph:
    """The v-vertex block of level i minus its outer edge x-y (hubs 0, 1),
    v = 3 or 4 <= v <= moon_moser_order(i); the 3-vertex block is a
    triangle, so its shape is the path x - z - y."""
    block = triangle() if v == 3 else truncated_moon_moser(i, v).graph
    return delete_edge(block, 0, 1)


def layout(n: int, k: int, validate: bool = True, limit: int = MAX_LAYOUT_VERTICES) -> Layout:
    """The layout of H(n, k), each distinct shape grown once.  `validate`
    certifies it (`_layout_faces`); more than `limit` vertices is refused
    before any shape is grown."""
    plan = block_plan(n, k)
    if n > limit:
        raise ResourceError(f"H({n}, {k}) needs {n} vertices, limit is {limit}")
    s, b = plan.s, plan.block_size
    full = s if plan.v_s == b else s - 1
    shapes = tuple((order, blocks, block_shape(plan.i, order))
                   for order, blocks in ((b, range(full)), (plan.v_s, range(full, s))) if blocks)
    h = Layout(plan, 0, 1, shapes)
    if validate:
        _layout_faces(h)
    return h


def build_construction(n: int, k: int, validate: bool = True) -> ExtremalConstruction:
    """Glue s blocks at the hubs x, y and add the edge xy.

    The result has n vertices and 3n - 6 - (s-1) edges; every face is a
    triangle except the s-1 quadrilaterals (x, w_j, y, z_{j+1}).
    `validate` certifies this from the distinct shapes (`_layout_faces`).
    """
    h = layout(n, k, validate, MAX_VERTICES)
    half = h.plan.block_size - 2  # vertices each block adds beyond the two hubs
    hub_x: list[tuple[int, ...]] = []
    hub_y: list[tuple[int, ...]] = []
    rots: list[tuple[int, ...]] = [(), ()]
    for order, blocks, m in h.shapes:
        for j in blocks:
            # ids[v] = vertex(j, v), one int object per vertex of H, shared
            # by every rotation that holds it
            ids = (0, 1, *range(2 + j * half, order + j * half))
            shifted = [tuple(map(ids.__getitem__, rot)) for rot in m.rotations]
            hub_x.append(shifted[0])
            hub_y.append(shifted[1])
            rots += shifted[2:]

    # rotation at x concatenates blocks s..1, at y blocks 1..s; this places
    # the quadrilateral face (x, w_j, y, z_{j+1}) between consecutive blocks.
    # The edge xy goes in the wrap-around face (x, w_s, y, z_1), where both
    # rotations end.
    rots[0] = tuple(chain.from_iterable(reversed(hub_x))) + (1,)
    rots[1] = tuple(chain.from_iterable(hub_y)) + (0,)
    return ExtremalConstruction(h.plan, EmbeddedGraph(tuple(rots), (0, 1)), h.x, h.y, h.shapes)


def _layout_faces(h: Layout) -> tuple[int, int]:
    """(F, triangles inside the blocks) of H, from its distinct shapes with
    no dart of H built.  Raises GraphStructureError unless V = n, E = 3n - 6
    - (s-1) and V - E + F = 2, with the seam faces s-1 quadrilaterals and
    the two triangles on xy.

    H's face successor differs from that of a shape M (a block minus xy)
    only at M's wrap darts, which reach a hub from the last neighbor of its
    rotation: at x, block j's last neighbor leads to block j-1's first (block
    0's to y, and y to block s-1's first); at y, to block j+1's first (block
    s-1's to x, and x to block 0's first).  So M's faces off the wrap darts
    are faces of H, and the others, the seams, are halves walked in M from
    a hub's first dart to the other hub's wrap dart.  Each half must be one
    step, (x, a) then (a, y) and (y, c) then (c, x): the seam between blocks
    j and j+1 is then (x, a_j, y, c_{j+1}), and (x, y, c_0) and (y, x,
    a_{s-1}) are the faces on xy.  Each shape is checked once: O(shapes).
    """
    v = f = triangles = 0
    for _, js, m in h.shapes:
        darts = m._darts()  # raises on loops, parallel edges, bad ids and asymmetry
        rot, off, fnext = m.rotations, darts.off, darts.fnext
        if m.has_edge(0, 1) or not m._connected():
            raise GraphStructureError("a block shape must be connected and lack the edge xy")
        wraps = [off[u] + rot[u].index(hub) for hub in (1, 0) for u in rot[hub][-1:]]
        if [fnext[off[0]], fnext[off[1]]] != wraps:
            raise GraphStructureError("a block shape's wrap darts lie on no quadrilateral x, a, y, c")
        c = len(js)
        v, f = v + (m.n - 2) * c, f + (darts.faces - 1) * c
        triangles += darts.triangles * c
    n, s = h.plan.n, h.plan.s
    v, e, f = 2 + v, h.edge_count, f + s + 1
    if (v, e, v - e + f) != (n, 3 * n - 6 - (s - 1), 2):
        raise GraphStructureError(
            f"built H has V={v} E={e} F={f}, expected V={n} E={3 * n - 6 - (s - 1)} F={2 * n - 3 - s}"
        )
    return f, triangles


def completion_edges(h: Layout) -> CompletionEdgeSet:
    """The chords w_j - z_{j+1}, one per quadrilateral face of H: block j's
    first neighbor at x and block j+1's first neighbor at y."""
    w, z = h.first_neighbors(h.x), h.first_neighbors(h.y)
    return CompletionEdgeSet(tuple(zip(w, islice(z, 1, None))))


def complete_to_triangulation(h: ExtremalConstruction) -> EmbeddedGraph:
    """H plus all completion chords.

    Each chord w_j - z_{j+1} goes in the face (x, w_j, y, z_{j+1}) that
    build_construction laid out; H is not traced.  `verify_completion`
    certifies the chords without building the result.
    """
    rots = list(h.graph.rotations)
    for w, z in completion_edges(h).edges:
        _insert_chord(rots, (h.x, w, h.y, z), w, z)
    return EmbeddedGraph(tuple(rots), h.graph.outer_edge)


def verify_completion(h: Layout) -> bool:
    """True iff adding the completion chords to H's layout yields a
    triangulation: no chord is inserted and no dart of H built.

    By `_layout_faces`, H is a plane graph whose seams are the
    quadrilaterals (x, w_j, y, z_{j+1}), whose diagonals are the chords,
    and two triangles; every face inside the blocks must be a triangle.
    """
    f, triangles = _layout_faces(h)
    return triangles == f - h.plan.s - 1
