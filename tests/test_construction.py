import hashlib
import math
from collections import Counter
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ckfree import (
    DomainError,
    GraphStructureError,
    ResourceError,
    block_plan,
    build_construction,
    choose_level,
    complete_to_triangulation,
    completion_edges,
    encode_planar,
    is_triangulation,
    moon_moser,
    moon_moser_order,
    truncated_moon_moser,
    verify_completion,
)
from ckfree import construction
from ckfree.construction import MAX_LAYOUT_VERTICES, MAX_VERTICES, block_shape, layout
from ckfree.embedding import EmbeddedGraph, _insert_chord, delete_edge, triangle
from planar3trees import face_of


def doubling_level_oracle(k):
    """Largest i with 3 * 2**i < k, found by explicit doubling."""
    i, best = 0, None
    while 3 * 2**i < k:
        best = i
        i += 1
    return best


@pytest.mark.parametrize(
    "k,expected", [(7, 1), (12, 1), (13, 2), (24, 2), (25, 3), (48, 3), (49, 4)]
)
def test_choose_level_examples(k, expected):
    assert choose_level(k) == expected
    assert doubling_level_oracle(k) == expected


def test_choose_level_matches_oracle_on_range():
    for k in range(7, 3000):
        assert choose_level(k) == doubling_level_oracle(k)


def choose_level_float(k):
    """The float form ceil(log2(k/3)) - 1 that `choose_level` replaces."""
    return math.ceil(math.log2(k / 3)) - 1


def test_choose_level_matches_float_form():
    for k in list(range(7, 5000)) + [3 * 2**m for m in range(2, 19)]:
        if k < 7:
            continue
        assert choose_level(k) == choose_level_float(k), k


def test_choose_level_domain_error():
    with pytest.raises(DomainError):
        choose_level(6)


def test_moon_moser_counts():
    for i in range(1, 8):
        t = moon_moser(i)
        assert t.graph.n == (3**i + 5) // 2
        assert t.graph.edge_count == 3 * t.graph.n - 6
        assert is_triangulation(t.graph)
        assert set(face_of(t.graph, *t.graph.outer_edge)) == {t.x, t.y, t.z}


def test_moon_moser_level_one_is_k4():
    t = moon_moser(1)
    assert t.graph.n == moon_moser_order(1) == 4 and t.graph.edge_count == 6


def test_moon_moser_level_two_inserts_three_vertices():
    t = moon_moser(2)
    assert t.graph.n - moon_moser(1).graph.n == 3
    assert t.graph.n == 7 and t.graph.edge_count == 15


def never_grow(*args):
    raise AssertionError("the size check must come before any growth")


def test_moon_moser_resource_limit(monkeypatch):
    monkeypatch.setattr(construction, "array", never_grow)  # the dart arrays
    assert moon_moser_order(15) == 7_174_456 > MAX_VERTICES
    with pytest.raises(ResourceError, match=f"level 15 needs 7174456 vertices, limit is {MAX_VERTICES}"):
        moon_moser(15)


def test_truncated_moon_moser_resource_limit(monkeypatch):
    monkeypatch.setattr(construction, "array", never_grow)
    with pytest.raises(ResourceError, match=f"limit is {MAX_VERTICES}"):
        truncated_moon_moser(15, MAX_VERTICES + 1)


def test_build_construction_resource_limit(monkeypatch):
    monkeypatch.setattr(construction, "block_shape", never_grow)
    with pytest.raises(ResourceError, match=f"limit is {MAX_VERTICES}"):
        build_construction(MAX_VERTICES + 1, 13)
    # a plan error still comes first, as for any n
    with pytest.raises(DomainError):
        build_construction(MAX_VERTICES + 1, 6)


def reference_growth(v):
    """The first v vertices of the Moon-Moser build, grown with one
    successor dict per vertex as the construction did before it held the
    embedding in dart arrays.  A reference for `_grow`, which must give the
    same rotations."""
    # succ[q][p]: the neighbor after p in q's rotation; T_1 = K_4
    succ = [{1: 3, 3: 2, 2: 1}, {2: 3, 3: 0, 0: 2}, {0: 3, 3: 1, 1: 0}, {2: 0, 0: 1, 1: 2}]
    anchors = [1, 2, 0, 2]
    queue = [(1, 0, 3), (0, 2, 3), (2, 1, 3)]
    while len(succ) < v:
        next_queue = []
        for p0, p1, p2 in queue[: v - len(succ)]:
            c = len(succ)
            for p, q in ((p0, p1), (p1, p2), (p2, p0)):
                succ[q][c] = succ[q][p]
                succ[q][p] = c
            succ.append({p1: p0, p2: p1, p0: p2})
            anchors.append(p2)
            next_queue += [(p0, p1, c), (p1, p2, c), (p2, p0, c)]
        queue = next_queue
    rotations = []
    for nxt, a in zip(succ, anchors):
        rot = [a]
        while nxt[rot[-1]] != a:
            rot.append(nxt[rot[-1]])
        rotations.append(tuple(rot))
    return EmbeddedGraph(tuple(rotations), (0, 1))


def test_growth_matches_reference_at_every_size_to_level_6():
    for v in range(4, moon_moser_order(6) + 1):
        assert truncated_moon_moser(6, v).graph == reference_growth(v), v


@pytest.mark.parametrize("i", [7, 8, 9])
def test_growth_matches_reference_on_sampled_sizes(i):
    lo, hi = moon_moser_order(i - 1), moon_moser_order(i)
    # level boundaries, their neighbours and a spread of sizes in between
    sizes = {lo, lo + 1, lo + 2, hi - 1, hi} | set(range(lo + 3, hi, (hi - lo) // 7 + 1))
    for v in sorted(sizes):
        assert truncated_moon_moser(i, v).graph == reference_growth(v), v


def test_growth_peak_memory_stays_near_the_result_size():
    tracemalloc.start()
    try:
        t = moon_moser(9)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t.graph.n == moon_moser_order(9)
    # the successor-dict growth peaked at ~5.7 times the result
    assert peak < 2.5 * retained, (peak, retained)


def test_truncation_full_is_identity():
    for i in (2, 3):
        assert truncated_moon_moser(i, moon_moser_order(i)).graph == moon_moser(i).graph


def test_truncation_minimal_is_k4():
    assert truncated_moon_moser(3, 4).graph == moon_moser(1).graph


def test_truncation_intermediate():
    t = truncated_moon_moser(2, 5)
    assert t.graph.n == 5 and t.graph.edge_count == 9
    assert is_triangulation(t.graph)


def test_truncation_every_prefix_is_triangulation_and_subgraph():
    full = moon_moser(3).graph
    full_edges = set(full.edges())
    for v in range(4, moon_moser_order(3) + 1):
        g = truncated_moon_moser(3, v).graph
        assert g.n == v
        assert is_triangulation(g)
        assert set(g.edges()) <= full_edges


def test_truncation_domain_errors():
    with pytest.raises(DomainError):
        truncated_moon_moser(2, 3)
    with pytest.raises(DomainError):
        truncated_moon_moser(2, 8)


@pytest.mark.parametrize(
    "n,k,i,s,v_s",
    [(20, 13, 2, 4, 5), (7, 7, 1, 3, 3), (4, 7, 1, 1, 4), (7, 13, 2, 1, 7),
     (20, 7, 1, 9, 4), (100, 13, 2, 20, 5)],
)
def test_block_plan_examples(n, k, i, s, v_s):
    plan = block_plan(n, k)
    assert (plan.i, plan.s, plan.v_s) == (i, s, v_s)


def test_block_plan_rejects_small_n():
    with pytest.raises(DomainError):
        block_plan(6, 13)  # level 2 needs at least 7 vertices
    with pytest.raises(DomainError):
        block_plan(3, 7)


def test_block_plan_single_block_at_minimum():
    for k, i in ((7, 1), (13, 2), (25, 3)):
        n = moon_moser_order(i)
        plan = block_plan(n, k)
        assert plan.s == 1 and plan.v_s == n


@pytest.mark.parametrize("n,k,edges", [(7, 7, 13), (20, 13, 51), (6, 7, 11), (20, 7, 46)])
def test_build_construction_edge_counts(n, k, edges):
    h = build_construction(n, k)
    assert h.graph.n == n
    assert h.graph.edge_count == edges == 3 * n - 6 - (h.plan.s - 1)


def test_single_block_equals_block_with_edge_restored():
    h = build_construction(7, 13)  # s = 1, full T_2 block
    t = moon_moser(2).graph
    assert h.graph.n == t.n
    assert set(h.graph.edges()) == set(t.edges())


def test_face_structure():
    h = build_construction(20, 13)
    quads = [f for f in h.graph.face_walks() if len(f) == 4]
    others = [f for f in h.graph.face_walks() if len(f) != 4]
    assert len(quads) == h.plan.s - 1
    assert all(len(f) == 3 for f in others)
    # the quadrilaterals are the faces (x, w_j, y, z_{j+1}) of the layout,
    # which complete_to_triangulation uses without tracing H
    layout = {(h.x, w, h.y, z) for w, z in completion_edges(h).edges}
    assert {q[q.index(h.x):] + q[:q.index(h.x)] for q in quads} == layout


def test_degenerate_last_block():
    h = build_construction(7, 7)
    assert h.plan.v_s == 3
    # the last shape is the path x - z - y: its z is the first neighbor at
    # both hubs, and the block has no apex
    *_, (order, _, m) = h.shapes
    assert order == 3 and m.rotations == ((2,), (2,), (0, 1))
    *_, (w, z) = zip(h.first_neighbors(h.x), h.first_neighbors(h.y))
    assert w == z == h.vertex(h.plan.s - 1, 2)
    assert len(h.graph.rotations[z]) == 2
    assert verify_completion(h)


def test_completion_examples():
    h = build_construction(20, 13)
    assert len(completion_edges(h).edges) == 3
    g = complete_to_triangulation(h)
    assert g.edge_count == 54
    assert is_triangulation(g)

    h = build_construction(7, 7)
    assert len(completion_edges(h).edges) == 2
    assert complete_to_triangulation(h).edge_count == 15

    h = build_construction(4, 7)  # s=1: no chords, already a triangulation
    assert completion_edges(h).edges == ()
    assert is_triangulation(h.graph)


# sha256 of encode_planar(complete_to_triangulation(H(n, k))), recorded when
# the completion found each quadrilateral by tracing H: H(9, 7) ends in a
# 3-vertex block, H(40, 25) in a truncated block, H(1000, 200) has level-6
# blocks
COMPLETION_SHA256 = {
    (9, 7): "02fb87b474d50806168afb1230ccc37cce2dee3ad95144cb66b72aa6a50a66b7",
    (40, 25): "01f901db672ac22f383237879e56fecbb233addf479b5a86b70500e562406358",
    (1000, 200): "4e9525ea9f663f6ca096abac06cdef8ca475aabba342e4fddd7762d08fd7f56d",
}


@pytest.mark.parametrize("n,k", sorted(COMPLETION_SHA256))
def test_completion_digests(n, k):
    text = encode_planar(complete_to_triangulation(build_construction(n, k)))
    assert hashlib.sha256(text.encode()).hexdigest() == COMPLETION_SHA256[n, k]


def dart_builds(monkeypatch):
    """The graphs whose dart arrays are built from now on, in call order."""
    built = []
    darts = EmbeddedGraph._darts
    monkeypatch.setattr(EmbeddedGraph, "_darts", lambda g: built.append(g) or darts(g))
    return built


def test_verify_completion_does_not_trace_h(monkeypatch):
    h = build_construction(40, 25, validate=False)
    built = dart_builds(monkeypatch)
    assert verify_completion(h)
    # one dart build per distinct shape, none over H's n vertices
    assert built == [m for _, _, m in h.shapes] and all(g.n < h.plan.n for g in built)


def test_chords_outside_the_layout_faces_are_refused():
    h = build_construction(40, 25)
    rots = list(h.graph.rotations)
    (w, z), *_ = completion_edges(h).edges
    with pytest.raises(GraphStructureError, match="chord"):
        _insert_chord(rots, (h.x, w, h.y, z + 1), w, z + 1)


# s = 1; a 3-vertex last block (H(9, 7), H(33, 13), H(143, 40)); a
# truncated last block (H(40, 25)); level-6, level-2 and level-10 blocks
SHAPE_GRID = [(4, 7), (7, 13), (16, 25), (9, 7), (33, 13), (143, 40), (40, 25), (20, 13),
              (1000, 200), (100_000, 13), (100_000, 5000)]


@pytest.mark.parametrize("n,k", SHAPE_GRID)
def test_layout_faces_match_the_traced_h(n, k):
    h = build_construction(n, k, validate=False)
    f, triangles = construction._layout_faces(h)  # V, E and Euler's formula checked
    h.graph.validate()
    walks = h.graph.face_walks()
    s = h.plan.s
    assert (h.graph.n, h.graph.edge_count, len(walks)) == (n, 3 * n - 6 - (s - 1), f)
    # the faces inside the blocks are triangles, and the rest are the seams
    assert Counter(map(len, walks)) == Counter({3: triangles + 2, 4: s - 1})
    # the seams are the quadrilaterals (x, w_j, y, z_{j+1}) and the two
    # triangles on xy, and the triangles inside the blocks miss the edge xy
    at_x = [w[w.index(0):] + w[:w.index(0)] for w in walks if 0 in w and 1 in w]
    assert sorted(q for q in at_x if len(q) == 4) == sorted(
        (0, w, 1, z) for w, z in completion_edges(h).edges)
    assert len([t for t in at_x if len(t) == 3]) == 2


def completion_by_tracing(h):
    """verify_completion as it was before the shapes certified it: the
    chords inserted into H's rotations and the result traced.  A chord
    outside its face, or one that doubles an edge, was refused by raising."""
    try:
        g = complete_to_triangulation(h)
        return is_triangulation(g) and g.edge_count == 3 * h.plan.n - 6
    except GraphStructureError:
        return False


@pytest.mark.parametrize("n,k", SHAPE_GRID)
def test_verify_completion_agrees_with_tracing_the_completed_h(n, k):
    h = build_construction(n, k, validate=False)
    assert verify_completion(h) is completion_by_tracing(h) is True


def faulty_shapes(monkeypatch, fault):
    """Make block_shape return each shape of 5 or more vertices with `fault`
    applied to its rotations."""
    real = construction.block_shape

    def shape(i, v):
        m = real(i, v)
        rots = list(m.rotations)
        if v >= 5:
            fault(rots, v - 1)  # the last vertex, of degree 3
        return EmbeddedGraph(tuple(rots), m.outer_edge)

    monkeypatch.setattr(construction, "block_shape", shape)


def repeat_a_neighbor(rots, v):
    rots[v] = rots[v] + rots[v][:1]


def isolate(rots, v):
    for u in rots[v]:
        rots[u] = tuple(a for a in rots[u] if a != v)
    rots[v] = ()


def cut_x_elsewhere(rots, v):
    rots[0] = rots[0][1:] + rots[0][:1]  # the same cyclic order, cut in another face


def mirror(rots, v):
    rots[3] = rots[3][::-1]  # off the wrap face, but the shape's genus is 1: Euler fails


@pytest.mark.parametrize("fault,message", [
    (repeat_a_neighbor, "parallel edge"),
    (isolate, "connected"),
    (cut_x_elsewhere, "quadrilateral"),
    (mirror, "built H has"),
])
@pytest.mark.parametrize("n,k", [(20, 13), (40, 25), (7, 13)])
def test_a_malformed_shape_is_refused(monkeypatch, fault, message, n, k):
    faulty_shapes(monkeypatch, fault)
    with pytest.raises(GraphStructureError, match=message):
        build_construction(n, k)
    with pytest.raises(GraphStructureError):  # as tracing the whole H does
        build_construction(n, k, validate=False).graph.validate()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 60), k=st.integers(7, 20))
def test_construction_properties(n, k):
    i = choose_level(k)
    if n < moon_moser_order(i):
        with pytest.raises(DomainError):
            block_plan(n, k)
        return
    h = build_construction(n, k)
    plan = h.plan
    assert h.graph.edge_count == 3 * n - 6 - (plan.s - 1)
    assert 3 <= plan.v_s <= plan.block_size
    half = (3**plan.i + 1) // 2
    assert (plan.v_s == 3) == ((n - 2) % half == 1)
    assert verify_completion(h)


def test_labels_are_block_local_outer_vertices():
    h = build_construction(20, 13)
    # each z_j is the degree-4 outer vertex of its block inside H, and each
    # w_j an apex on the hubs
    for j, (wj, zj) in enumerate(zip(h.first_neighbors(h.x), h.first_neighbors(h.y))):
        assert zj == h.vertex(j, 2) != wj
        assert h.graph.has_edge(h.x, zj) and h.graph.has_edge(h.y, zj)
        assert h.graph.has_edge(h.x, wj) and h.graph.has_edge(h.y, wj)


@pytest.mark.parametrize("n,k", [(7, 7), (7, 13), (12, 13), (20, 13), (30, 28), (40, 28), (45, 40)])
def test_block_layout_is_the_offset_numbering(n, k):
    h = build_construction(n, k)
    plan = h.plan
    orders = [order for order, js, _ in h.shapes for _ in js]
    assert [j for _, js, _ in h.shapes for j in js] == list(range(plan.s))
    assert orders == [plan.block_size] * (plan.s - 1) + [plan.v_s]
    assert len({order for order, _, _ in h.shapes}) == len(h.shapes)
    w, z = list(h.first_neighbors(h.x)), list(h.first_neighbors(h.y))
    edges = {frozenset((h.x, h.y))}
    inner = []
    for order, js, m in h.shapes:
        block = triangle() if order == 3 else truncated_moon_moser(plan.i, order).graph
        assert m == delete_edge(block, 0, 1)
        apex = face_of(block, 1, 0)[2]  # the inner face on x-y; z closes the outer one
        for j in js:
            assert h.vertex(j, 0) == h.x and h.vertex(j, 1) == h.y
            assert z[j] == h.vertex(j, 2)
            assert w[j] == h.vertex(j, apex)
            edges |= {frozenset((h.vertex(j, u), h.vertex(j, v))) for u, v in m.edges()}
            inner += [h.vertex(j, v) for v in range(2, order)]
    assert sorted(inner) == list(range(2, n))
    assert edges == {frozenset(e) for e in h.graph.edges()}


@pytest.mark.parametrize("n,k", SHAPE_GRID)
def test_the_layout_is_the_record_h_is_assembled_from(n, k):
    lay, h = layout(n, k), build_construction(n, k)
    assert (lay.plan, lay.x, lay.y, lay.shapes) == (h.plan, h.x, h.y, h.shapes)
    assert lay.edge_count == h.edge_count == h.graph.edge_count == 3 * n - 6 - (h.plan.s - 1)
    assert list(lay.first_neighbors(0)) == list(h.first_neighbors(0))


@pytest.mark.parametrize("n,k", [(4, 7), (7, 7), (9, 7), (12, 13), (20, 13), (33, 13), (40, 25), (45, 40)])
def test_layout_has_edge_is_the_edge_set_of_h(n, k):
    lay, g = layout(n, k), build_construction(n, k).graph
    ids = range(-3, n + 3)  # ids outside H included
    assert [(u, v) for u in ids for v in ids if lay.has_edge(u, v)] == [
        (u, v) for u in ids for v in ids if g.has_edge(u, v) and g.has_edge(v, u)]


@pytest.mark.parametrize("n,k", [(100_000, 13), (100_000, 5000), (1000, 200)])
def test_layout_has_edge_on_the_edges_and_the_pairs_next_to_them(n, k):
    lay, g = layout(n, k), build_construction(n, k).graph
    for u, rot in enumerate(g.rotations):
        if u < 2 or u % 97 == 0:  # the hubs, and a sample of the rest
            assert all(lay.has_edge(u, v) and lay.has_edge(v, u) for v in rot)
            others = {v + d for v in rot for d in (-1, 1)} - set(rot)
            assert not any(lay.has_edge(u, v) or lay.has_edge(v, u) for v in others)


def test_a_layout_above_its_limit_is_refused_before_any_shape_is_grown(monkeypatch):
    monkeypatch.setattr(construction, "block_shape", never_grow)
    n = MAX_LAYOUT_VERTICES + 1
    with pytest.raises(ResourceError, match=f"H\\({n}, 13\\) needs {n} vertices, limit is {MAX_LAYOUT_VERTICES}"):
        layout(n, 13)
    with pytest.raises(ResourceError, match=f"limit is {MAX_VERTICES}"):
        layout(MAX_VERTICES + 1, 13, limit=MAX_VERTICES)
    with pytest.raises(DomainError):  # a plan error still comes first
        layout(n, 6)


def test_a_layout_of_a_billion_vertices_is_certified_from_two_shapes():
    lay = layout(10**9, 5000)
    assert [(order, len(js)) for order, js, _ in lay.shapes] == [(29_527, 33_869), (17_775, 1)]
    assert 17_775 + 33_869 * (29_527 - 2) == 10**9  # each block adds all but the hubs
    assert lay.edge_count == 3 * 10**9 - 6 - (lay.plan.s - 1)
    assert verify_completion(lay)


def test_block_shape():
    m = block_shape(2, 3)
    assert m.n == 3 and m.edge_count == 2 and not m.has_edge(0, 1)
    for v in (4, 6, 7):
        block, m = truncated_moon_moser(2, v).graph, block_shape(2, v)
        assert m.edge_count == block.edge_count - 1 and not m.has_edge(0, 1)
        assert set(m.edges()) | {(0, 1)} == set(block.edges())
        w, z = m.rotations[0][0], m.rotations[1][0]
        assert z == 2 != w and block.has_edge(w, 0) and block.has_edge(w, 1)
    with pytest.raises(DomainError):
        block_shape(2, 8)


def test_block_shape_builds_no_dart_arrays(monkeypatch):
    built = dart_builds(monkeypatch)
    m = block_shape(10, 29526)  # a truncated level-10 block
    assert not built
    # the first neighbor at x is the apex, the third vertex of the face
    # traced from the dart (y, x) in the block
    assert face_of(truncated_moon_moser(10, 29526).graph, 1, 0) == (1, 0, m.rotations[0][0])


def grown_orders(monkeypatch):
    """The orders `_grow` is asked for from now on, in call order."""
    orders = []
    grow = construction._grow
    monkeypatch.setattr(construction, "_grow", lambda i, v: orders.append(v) or grow(i, v))
    return orders


@pytest.mark.parametrize("n,k,orders", [
    (40, 25, [16, 12]),  # a full and a truncated level-3 shape
    (9, 7, [4]),  # the 3-vertex last block is a triangle, not grown
    (100_000, 13, [7, 5]),
])
def test_each_command_grows_each_shape_once(monkeypatch, tmp_path, capsys, n, k, orders):
    from ckfree.cli import EXIT_OK, main

    grown = grown_orders(monkeypatch)
    assert main(["gen-h", "--n", str(n), "--k", str(k), "-o", str(tmp_path / "h.txt")]) == EXIT_OK
    assert grown == orders
    grown.clear()
    assert main(["verify", "--n", str(n), "--k", str(k)]) == EXIT_OK
    assert grown == orders
    grown.clear()
    assert main(["lemma-check", "--i-min", "1", "--i-max", "4"]) == EXIT_OK
    assert grown == [moon_moser_order(i) for i in range(1, 5)]


def test_no_command_traces_the_whole_h(monkeypatch, tmp_path, capsys):
    """gen-h, verify --n and verify_completion certify H from its shapes:
    no dart array is built over H's vertex count."""
    from ckfree.cli import EXIT_OK, main

    n = 20_000
    built = dart_builds(monkeypatch)
    assert main(["gen-h", "--n", str(n), "--k", "13", "-o", str(tmp_path / "h.txt")]) == EXIT_OK
    assert main(["verify", "--n", str(n), "--k", "13"]) == EXIT_OK
    assert capsys.readouterr().out == "k=13 circumference=12 -> C_k-free\n"
    assert verify_completion(build_construction(n, 13, validate=False))
    assert built and max(g.n for g in built) == 7  # the largest shape, a T_2 block


def test_plain_records_are_immutable_named_tuples():
    from ckfree import (SearchBudget, certify_ck_free_structural, certify_graph, longest_cycle,
                        longest_path_between)

    h = build_construction(20, 13)
    report = certify_ck_free_structural(h)
    records = [moon_moser(1), h.plan, h, layout(20, 13), completion_edges(h), report.blocks[0],
               longest_cycle(triangle()), report, h.graph, SearchBudget(), report.witness,
               longest_path_between(triangle(), 0, 1).certificate]
    assert [type(r).__name__ for r in records] == [
        "MoonMoserGraph", "BlockPlan", "ExtremalConstruction", "Layout", "CompletionEdgeSet",
        "BlockData", "SearchOutcome", "FreenessReport", "EmbeddedGraph", "SearchBudget",
        "CycleCertificate", "PathCertificate"]
    for record in records:
        assert isinstance(record, tuple)
        for name in (*record._fields, "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
    assert certify_graph(triangle(), 3).blocks == ()
