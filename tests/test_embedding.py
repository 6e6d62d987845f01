import random
import tracemalloc
from array import array
from itertools import accumulate, chain, repeat

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from ckfree import (
    EmbeddedGraph,
    GraphStructureError,
    build_construction,
    decode_planar,
    delete_edge,
    encode_planar,
    identify_vertices,
    is_triangulation,
    moon_moser,
    triangle,
)
from ckfree.embedding import _TRIANGLE_BLOCK, SCAN_DEGREE, _on_triangles
from planar3trees import face_of, retained_size, stacked_triangulation


def k4():
    return moon_moser(1).graph


def test_k4_has_four_triangular_faces():
    walks = k4().face_walks()
    assert len(walks) == 4
    assert all(len(w) == 3 for w in walks)


def test_single_edge_one_face_of_length_two():
    g = EmbeddedGraph(((1,), (0,)), (0, 1))
    g.validate()
    walks = g.face_walks()
    assert len(walks) == 1
    assert len(walks[0]) == 2


def test_t2_faces_all_triangles():
    g = moon_moser(2).graph
    walks = g.face_walks()
    assert g.n == 7 and g.edge_count == 15
    assert len(walks) == 10
    assert all(len(w) == 3 for w in walks)


def test_every_directed_edge_on_exactly_one_walk():
    g = moon_moser(3).graph
    seen = []
    for w in g.face_walks():
        seen.extend(zip(w, w[1:] + w[:1]))
    assert len(seen) == len(set(seen)) == 2 * g.edge_count
    assert len(g.face_walks()) == 2 - g.n + g.edge_count


def test_is_triangulation():
    assert is_triangulation(k4())
    assert is_triangulation(moon_moser(3).graph)
    c4 = EmbeddedGraph(((1, 3), (2, 0), (3, 1), (0, 2)), (0, 1))
    c4.validate()
    assert not is_triangulation(c4)
    assert is_triangulation(triangle())


def k7_on_torus(first):
    """K_7 triangulating the torus, on vertices first..first+6: the rotation
    at i is i+1, i+3, i+2, i+6, i+4, i+5 (mod 7)."""
    return [tuple(first + (i + s) % 7 for s in (1, 3, 2, 6, 4, 5)) for i in range(7)]


def test_is_triangulation_rejects_disconnected_graph_with_3v_minus_6_edges():
    # K_4 plus a toroidal K_7: V = 11, E = 27 = 3V - 6, every face a triangle
    g = EmbeddedGraph(tuple(k4().rotations) + tuple(k7_on_torus(4)), (0, 1))
    assert g.n == 11 and g.edge_count == 3 * g.n - 6
    assert all(len(w) == 3 for w in g.face_walks())
    assert not is_triangulation(g)
    with pytest.raises(GraphStructureError, match="not connected"):
        g.validate()
    # connected but not planar: all faces triangles with E = 3V - 6 + 6
    with pytest.raises(GraphStructureError, match="E != 3V-6"):
        is_triangulation(EmbeddedGraph(tuple(k7_on_torus(0)), (0, 1)))


def test_subdividing_all_inner_faces_of_t1_gives_t2():
    g = stacked_triangulation([0, 0, 0])  # each inner face of K_4 once
    g.validate()
    assert g.n == 7 and g.edge_count == 15
    assert is_triangulation(g)
    assert nx.is_isomorphic(nx.Graph(g.edges()), nx.Graph(moon_moser(2).graph.edges()))


def test_delete_edge_k4():
    g = delete_edge(k4(), 0, 1)
    g.validate()
    assert g.n == 4 and g.edge_count == 5
    assert not g.has_edge(0, 1)
    assert sorted(len(w) for w in g.face_walks()) == [3, 3, 4]
    assert len(face_of(g, *g.outer_edge)) == 4


def test_delete_missing_edge_raises():
    with pytest.raises(GraphStructureError):
        delete_edge(delete_edge(k4(), 0, 1), 0, 1)


@pytest.mark.parametrize("u", [-1, 3])
def test_an_out_of_range_end_is_no_edge(u):
    # a negative id must not alias vertex n - 1, nor a large one raise IndexError
    assert not triangle().has_edge(u, 0)
    with pytest.raises(GraphStructureError, match="not present"):
        delete_edge(triangle(), u, 0)


def test_each_check_builds_the_dart_arrays_once(monkeypatch):
    g = moon_moser(3).graph
    calls = []
    darts = EmbeddedGraph._darts
    monkeypatch.setattr(EmbeddedGraph, "_darts", lambda self: calls.append(self) or darts(self))
    for check in (EmbeddedGraph.validate, is_triangulation, EmbeddedGraph.face_walks):
        calls.clear()
        check(g)
        assert calls == [g]


def test_decoding_and_building_leave_no_dart_arrays_on_the_graph():
    h = build_construction(61, 25, validate=True)
    g, _ = decode_planar(encode_planar(h.graph))
    assert g == h.graph
    for graph in (h.graph, g):
        assert graph._fields == ("rotations", "outer_edge") and not hasattr(graph, "__dict__")


def reference_walk(g, a, b):
    """Vertices of the face walk from dart (a, b), traced on tuple darts."""
    walk, start = [], (a, b)
    while True:
        walk.append(a)
        rot = g.rotations[b]
        a, b = b, rot[(rot.index(a) + 1) % len(rot)]
        if (a, b) == start:
            return walk


def expected_outer_edge(g, u, v):
    """The first edge of g's traced outer walk that is not u-v, or None if
    every edge of the walk is u-v."""
    walk = reference_walk(g, *g.outer_edge)
    return next((e for e in zip(walk, walk[1:] + walk[:1]) if set(e) != {u, v}), None)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 10**6), max_size=20))
def test_delete_edge_moves_the_outer_edge_along_the_outer_walk(picks):
    t = stacked_triangulation(picks)
    for a, b in ((0, 1), (1, 2), (2, 0)):
        for outer in ((a, b), (b, a)):
            g = EmbeddedGraph(t.rotations, outer)
            for u, v in ((a, b), (b, a)):
                assert delete_edge(g, u, v).outer_edge == expected_outer_edge(g, u, v)


@pytest.mark.parametrize(
    "rotations,outer",
    [
        (((1,), (0, 2), (1,)), (1, 0)),  # path 0 - 1 - 2, outer dart into the leaf 0
        (((1,), (0, 2), (1,)), (0, 1)),  # the same, out of the leaf
        (((1, 2, 3), (2, 0), (0, 1), (0,)), (0, 3)),  # triangle with pendant vertex 3
        (((1, 2, 3), (2, 0), (0, 1), (0,)), (3, 0)),
    ],
)
def test_delete_edge_to_a_pendant_vertex(rotations, outer):
    g = EmbeddedGraph(rotations, outer)
    g.validate()
    want = expected_outer_edge(g, *outer)
    assert want is not None
    assert delete_edge(g, *outer).outer_edge == want


def test_delete_edge_of_k2_raises():
    with pytest.raises(GraphStructureError, match="no surviving edge"):
        delete_edge(EmbeddedGraph(((1,), (0,)), (0, 1)), 0, 1)


def test_glue_two_k4_minus_blocks():
    b = delete_edge(k4(), 0, 1)
    glued, maps = identify_vertices([b, b], [[(1, 0), (0, 0)], [(0, 1), (1, 1)]])
    assert glued.n == 6
    assert glued.edge_count == 10  # identification preserves edge count
    rots = [list(r) for r in glued.rotations]
    rots[0].append(1)
    rots[1].append(0)
    h = EmbeddedGraph(tuple(tuple(r) for r in rots), (0, 1))
    h.validate()
    assert h.edge_count == 11
    assert all(m[0] == 0 and m[1] == 1 for m in maps)


def test_identify_single_graph_is_isomorphic_identity():
    g = moon_moser(2).graph
    out, maps = identify_vertices([g], [[(0, 0)], [(0, 1)]])
    out.validate()
    assert out.n == g.n and out.edge_count == g.edge_count
    m = maps[0]
    assert all(
        {m[u] for u in g.rotations[v]} == set(out.rotations[m[v]])
        for v in range(g.n)
    )


def test_identify_reduces_vertices_by_merge_count():
    b = delete_edge(k4(), 0, 1)
    glued, _ = identify_vertices([b, b, b], [[(j, 0) for j in (2, 1, 0)],
                                             [(j, 1) for j in (0, 1, 2)]])
    # 12 vertices, 6 merged into 2 groups
    assert glued.n == 12 - (6 - 2)


def test_identify_rejects_parallel_edges():
    g = k4()
    with pytest.raises(GraphStructureError):
        # merging two adjacent-to-same-vertex endpoints makes parallel edges
        identify_vertices([g, g], [[(0, 0), (1, 0)], [(0, 1), (1, 1)],
                                   [(0, 2), (1, 2)], [(0, 3), (1, 3)]])


@pytest.mark.parametrize("groups, message", [
    ([[(0, 4)]], r"group member \(0,4\) out of range"),
    ([[(0, 0), (1, 0)], [(0, 0)]], r"vertex \(0,0\) in two groups"),
    ([[(0, 0), (0, 1)]], "identification creates a loop at 0"),
], ids=["out-of-range", "in-two-groups", "loop"])
def test_identify_refuses_bad_groups(groups, message):
    with pytest.raises(GraphStructureError, match=message):
        identify_vertices([k4(), k4()], groups)


def test_one_vertex_graph_has_one_face():
    EmbeddedGraph(((),), (0, 0)).validate()  # V - E + F = 1 - 0 + 1


def test_validate_catches_asymmetry():
    g = EmbeddedGraph(((1,), ()), (0, 1))
    with pytest.raises(GraphStructureError):
        g.validate()


def test_euler_formula_across_operations():
    g = moon_moser(2).graph
    for out in (delete_edge(g, 0, 1), delete_edge(g, 2, 3)):
        out.validate()  # includes V - E + F == 2


K5 = tuple(tuple(u for u in range(5) if u != v) for v in range(5))


@pytest.mark.parametrize(
    "rotations,outer,message",
    [
        (((0, 1), (0,)), (0, 1), "loop at vertex 0"),
        (((1, 1), (0, 0)), (0, 1), "parallel edge at vertex 0"),
        (((1, 5), (0,)), (0, 1), "neighbor 5 of 0 out of range"),
        # -1 would alias vertex 2 if it were ever used as a list index
        (((1, -1), (2, 0), (0, 1)), (0, 1), "neighbor -1 of 0 out of range"),
        (((1, 2), (2, 0), (1,)), (0, 1), "asymmetric adjacency 0->2"),
        (((1,), (0,), (3,), (2,)), (0, 1), "graph is not connected"),
        (((1, 2), (2, 0), (0, 1)), (0, 5), "outer-face edge is not an edge"),
        (K5, (0, 1), "Euler check failed: V=5 E=10"),
        # loops and parallel edges are reported before bad ids, at any vertex
        (((1, 7), (0,), (2,)), (0, 1), "loop at vertex 2"),
        # the first bad dart is reported, whether asymmetric or out of range
        (((1, 2), (2, 0), (1, 5)), (0, 1), "asymmetric adjacency 0->2"),
    ],
)
def test_validate_rejects_each_defect(rotations, outer, message):
    with pytest.raises(GraphStructureError, match=message):
        EmbeddedGraph(rotations, outer).validate()


def reference_face_walks(g):
    """Independent tracer over per-vertex position dicts and tuple darts."""
    pos = [{u: i for i, u in enumerate(rot)} for rot in g.rotations]
    seen = set()
    walks = []
    for v, rot in enumerate(g.rotations):
        for w in rot:
            walk = []
            a, b = v, w
            while (a, b) not in seen:
                seen.add((a, b))
                walk.append(a)
                nxt = g.rotations[b]
                a, b = b, nxt[(pos[b][a] + 1) % len(nxt)]
            if walk:
                walks.append(tuple(walk))
    return walks


@st.composite
def shuffled_rotation_systems(draw):
    """A connected simple graph on 1-9 vertices, a random tree plus random
    chords, each rotation in random order: K1, K2, trees, cycles, and
    planar and non-planar graphs with faces of any length."""
    n = draw(st.integers(1, 9))
    nbrs = [set() for _ in range(n)]
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        nbrs[u].add(v)
        nbrs[v].add(u)
    if n > 1:
        for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20)):
            if u != v:
                nbrs[u].add(v)
                nbrs[v].add(u)
    rng = random.Random(draw(st.integers(0, 2**32)))
    rots = tuple(tuple(rng.sample(sorted(a), len(a))) for a in nbrs)
    return EmbeddedGraph(rots, (0, rots[0][0]) if n > 1 else (0, 0))


@settings(max_examples=300, deadline=None)
@given(shuffled_rotation_systems())
def test_validate_counts_faces_as_a_plain_orbit_walk(g):
    n, e = g.n, g.edge_count
    f = len(reference_face_walks(g)) or 1  # no darts: one face
    if n - e + f == 2:
        g.validate()
    else:
        with pytest.raises(GraphStructureError) as got:
            g.validate()
        assert str(got.value) == f"Euler check failed: V={n} E={e} F={f} gives {n - e + f}"


@pytest.mark.parametrize("make", [
    lambda: moon_moser(9).graph,
    # hubs x and y of degree ~16 000 take the map, the rest are scanned
    lambda: build_construction(20000, 13, validate=False).graph,
], ids=["T_9", "H(20000,13)"])
def test_validate_peak_stays_below_2_9_graph_sizes(make):
    g = make()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        g.validate()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # about 2.5 with scanned rotations; one map per vertex took 3.4 to 3.6
    assert peak < 2.9 * retained_size(g), (peak, retained_size(g))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 10**6), max_size=30), st.booleans())
def test_face_walks_match_reference_on_stacked_triangulations(picks, cut):
    g = stacked_triangulation(picks)
    if cut:
        g = delete_edge(g, 0, 1)
    ref = reference_face_walks(g)
    assert g.face_walks() == ref
    assert g.outer_edge in {(w[i], w[(i + 1) % len(w)]) for w in ref for i in range(len(w))}


@pytest.mark.parametrize("n,k", [(7, 7), (20, 13), (61, 25), (300, 40)])
def test_face_walks_match_reference_on_h(n, k):
    g = build_construction(n, k).graph
    assert g.face_walks() == reference_face_walks(g)


def sort_based_darts(rots):
    """The dart arrays as built by twin sorting: a reference for the kernel.

    Stable sorts list the darts by (head, tail) and by (tail, head); if every
    dart has a reverse, the p-th darts of the two lists are twins, and the
    face successor of a dart is the rotation successor of its twin.
    """
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
    by_head = sorted(range(m), key=head.__getitem__)
    twin = [0] * m
    for d, e in zip(by_head, sorted(by_head, key=tail.__getitem__)):
        twin[d] = e
    if list(map(head.__getitem__, twin)) != tail or list(map(tail.__getitem__, twin)) != head:
        v, u = next((v, u) for v, u in zip(tail, head) if not (0 <= u < n and v in nbrs[u]))
        if not 0 <= u < n:
            raise GraphStructureError(f"neighbor {u} of {v} out of range")
        raise GraphStructureError(f"asymmetric adjacency {v}->{u}")
    succ = list(range(1, m + 1))
    for a, b in zip(off, off[1:]):
        if a != b:
            succ[b - 1] = a
    return off, tail, list(map(succ.__getitem__, twin))


def kernel_darts(rots):
    """(off, tail, fnext) of the kernel, fnext as a list and the tail, which
    the kernel does not keep, rebuilt from the rotations."""
    d = EmbeddedGraph(tuple(map(tuple, rots)), (0, 1))._darts()
    return d.off, list(chain.from_iterable([v] * len(r) for v, r in enumerate(rots))), list(d.fnext)


def assert_same_darts(rots):
    assert kernel_darts(rots) == sort_based_darts(rots)


@pytest.mark.parametrize("n,k", [(7, 7), (20, 13), (61, 25), (300, 40), (2000, 97)])
def test_darts_match_sort_based_reference_on_h(n, k):
    assert_same_darts(build_construction(n, k, validate=False).graph.rotations)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 10**6), max_size=30), st.integers(0, 2**32), st.integers(0, 20))
def test_darts_match_sort_based_reference_on_stacked_triangulations(picks, seed, cuts):
    rots = [list(r) for r in stacked_triangulation(picks).rotations]
    assert_same_darts(rots)
    rng = random.Random(seed)
    for _ in range(cuts):  # delete random edges, keeping the rotations' order
        u = rng.randrange(len(rots))
        if rots[u]:
            v = rng.choice(rots[u])
            rots[u].remove(v)
            rots[v].remove(u)
    assert_same_darts(rots)


@pytest.mark.parametrize("m", [0, 1, 2, 3, _TRIANGLE_BLOCK - 1, _TRIANGLE_BLOCK,
                               _TRIANGLE_BLOCK + 1, 2 * _TRIANGLE_BLOCK + 1])
def test_triangle_darts_are_read_a_block_at_a_time(m):
    """A last block of one dart, which itemgetter would return bare, and
    blocks of cycles of every length up to 5 cut at the block edges."""
    rng = random.Random(m)
    order = list(range(m))
    rng.shuffle(order)
    f = [0] * m
    i = 0
    while i < m:  # a cycle of 1 to 5 darts, in shuffled order
        cycle = order[i:i + rng.randint(1, 5)]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            f[a] = b
        i += len(cycle)
    assert _on_triangles(array("i", f)) == bytearray(f[f[f[d]]] == d for d in range(m))


HUB = SCAN_DEGREE + 2  # a star centre above the scan degree, which takes a map


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-2, n + 1), max_size=4), min_size=n, max_size=n)))
# a neighbour repeated at both ends; at one end, in the middle or at the last
# place of the rotation, where every lookup succeeds and only the face walk
# sees it; at a hub; and at a scanned leaf of the hub
@example([(1, 1), (0, 0)])
@example([(1, 2), (2, 0, 2), (0, 1)])
@example([(1, 2), (2, 0), (1, 0, 1)])
@example([tuple(range(1, HUB + 1)) + (1,)] + [(0,)] * HUB)
@example([tuple(range(1, HUB + 1)), (0, 0)] + [(0,)] * (HUB - 1))
def test_darts_report_the_same_first_defect_as_the_reference(rots):
    try:
        want = sort_based_darts(rots)
    except GraphStructureError as exc:
        with pytest.raises(GraphStructureError) as got:
            kernel_darts(rots)  # the kernel alone, not the reference again
        assert str(got.value) == str(exc)
    else:
        assert kernel_darts(rots) == want
