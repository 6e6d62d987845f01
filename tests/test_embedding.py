import pytest
from hypothesis import given, settings, strategies as st

from ckfree import (
    EmbeddedGraph,
    GraphStructureError,
    add_vertex_in_face,
    build_construction,
    delete_edge,
    face_walks,
    identify_vertices,
    is_triangulation,
    moon_moser,
    triangle,
)


def k4():
    return moon_moser(1).graph


def test_k4_has_four_triangular_faces():
    walks = face_walks(k4())
    assert len(walks) == 4
    assert all(len(w) == 3 for w in walks)


def test_single_edge_one_face_of_length_two():
    g = EmbeddedGraph(((1,), (0,)), (0, 1))
    g.validate()
    walks = face_walks(g)
    assert len(walks) == 1
    assert len(walks[0]) == 2


def test_t2_faces_all_triangles():
    g = moon_moser(2).graph
    walks = face_walks(g)
    assert g.n == 7 and g.edge_count == 15
    assert len(walks) == 10
    assert all(len(w) == 3 for w in walks)


def test_every_directed_edge_on_exactly_one_walk():
    g = moon_moser(3).graph
    seen = []
    for w in face_walks(g):
        seen.extend(w.directed_edges())
    assert len(seen) == len(set(seen)) == 2 * g.edge_count
    assert len(face_walks(g)) == 2 - g.n + g.edge_count


def test_is_triangulation():
    assert is_triangulation(k4())
    assert is_triangulation(moon_moser(3).graph)
    c4 = EmbeddedGraph(((1, 3), (2, 0), (3, 1), (0, 2)), (0, 1))
    c4.validate()
    assert not is_triangulation(c4)
    assert is_triangulation(triangle())


def test_add_vertex_in_face_counts():
    g = k4()
    inner = next(w for w in face_walks(g) if set(w.boundary) != {0, 1, 2})
    g2, new = add_vertex_in_face(g, inner)
    g2.validate()
    assert g2.n == 5 and g2.edge_count == 9
    assert new == 4
    assert set(g2.neighbors(new)) == set(inner.boundary)
    assert len(g2.neighbors(new)) == 3


def test_add_vertex_face_count_increases_by_two():
    g = moon_moser(2).graph
    inner = next(w for w in face_walks(g) if set(w.boundary) != {0, 1, 2})
    g2, _ = add_vertex_in_face(g, inner)
    assert len(face_walks(g2)) == len(face_walks(g)) + 2


def test_add_vertex_rejects_outer_and_non_faces():
    g = k4()
    with pytest.raises(GraphStructureError):
        add_vertex_in_face(g, g.outer_face())
    with pytest.raises(GraphStructureError):
        add_vertex_in_face(g, (0, 3, 2))  # a triangle but not a face walk
    with pytest.raises(GraphStructureError):
        add_vertex_in_face(g, (0, 1, 2, 3))


def test_subdividing_all_inner_faces_of_t1_gives_t2():
    g = k4()
    inners = [w for w in face_walks(g) if set(w.boundary) != {0, 1, 2}]
    assert len(inners) == 3
    for w in inners:
        g, _ = add_vertex_in_face(g, w.boundary)
    g.validate()
    assert g.n == 7 and g.edge_count == 15
    assert is_triangulation(g)


def test_delete_edge_k4():
    g = delete_edge(k4(), 0, 1)
    g.validate()
    assert g.n == 4 and g.edge_count == 5
    assert not g.has_edge(0, 1)
    assert sorted(len(w) for w in g.face_walks()) == [3, 3, 4]
    assert len(g.outer_face()) == 4


def test_delete_missing_edge_raises():
    with pytest.raises(GraphStructureError):
        delete_edge(delete_edge(k4(), 0, 1), 0, 1)


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
        {m[u] for u in g.neighbors(v)} == set(out.neighbors(m[v]))
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


def test_one_vertex_graph_has_one_face():
    EmbeddedGraph(((),), (0, 0)).validate()  # V - E + F = 1 - 0 + 1


def test_validate_catches_asymmetry():
    g = EmbeddedGraph(((1,), ()), (0, 1))
    with pytest.raises(GraphStructureError):
        g.validate()


def test_euler_formula_across_operations():
    g = moon_moser(2).graph
    for op in (
        lambda x: delete_edge(x, 0, 1),
        lambda x: add_vertex_in_face(
            x, next(w for w in face_walks(x) if set(w.boundary) != {0, 1, 2})
        )[0],
    ):
        out = op(g)
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


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 10**6), max_size=30), st.booleans())
def test_face_walks_match_reference_on_stacked_triangulations(picks, cut):
    g = k4()
    for p in picks:
        inner = [w for w in face_walks(g) if set(w.boundary) != {0, 1, 2}]
        g, _ = add_vertex_in_face(g, inner[p % len(inner)])
    if cut:
        g = delete_edge(g, 0, 1)
    ref = reference_face_walks(g)
    assert [w.boundary for w in face_walks(g)] == ref
    outer = g.outer_face().boundary
    assert outer[:2] == g.outer_edge
    assert any(outer == w[i:] + w[:i] for w in ref for i in range(len(w)))


@pytest.mark.parametrize("n,k", [(7, 7), (20, 13), (61, 25), (300, 40)])
def test_face_walks_match_reference_on_h(n, k):
    g = build_construction(n, k).graph
    assert [w.boundary for w in face_walks(g)] == reference_face_walks(g)
