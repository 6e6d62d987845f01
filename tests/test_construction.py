import hashlib
import math
import tracemalloc
from dataclasses import replace

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
from ckfree.construction import MAX_VERTICES, block_pieces
from ckfree.embedding import EmbeddedGraph


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
        assert set(t.graph.outer_face()) == {t.x, t.y, t.z}


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
    monkeypatch.setattr(construction, "block_pieces", never_grow)
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
    layout = {(h.x, h.w[j], h.y, h.z[j + 1]) for j in range(h.plan.s - 1)}
    assert {q[q.index(h.x):] + q[:q.index(h.x)] for q in quads} == layout


def test_degenerate_last_block():
    h = build_construction(7, 7)
    assert h.plan.v_s == 3
    assert h.w[-1] is None
    assert h.z[-1] is not None
    assert h.graph.degree(h.z[-1]) == 2
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


def test_verify_completion_does_not_trace_h():
    h = build_construction(40, 25, validate=False)
    assert verify_completion(h)
    assert "_darts" not in vars(h.graph)


def test_chords_outside_the_layout_faces_are_refused():
    h = build_construction(40, 25)
    with pytest.raises(GraphStructureError, match="chord"):
        complete_to_triangulation(replace(h, z=tuple(v + 1 for v in h.z)))
    # each chord end sits in an angle of the right shape, but the two ends
    # lie in different faces: the completion is no triangulation
    assert not verify_completion(replace(h, z=h.z[1:] + h.z[:1]))


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
    # each z_j is the degree-4 outer vertex of its block inside H
    for j, zj in enumerate(h.z):
        assert h.graph.has_edge(h.x, zj) and h.graph.has_edge(h.y, zj)
    for wj in h.w:
        assert wj is not None
        assert h.graph.has_edge(h.x, wj) and h.graph.has_edge(h.y, wj)


@pytest.mark.parametrize("n,k", [(7, 7), (7, 13), (12, 13), (20, 13), (30, 28), (40, 28), (45, 40)])
def test_block_layout_is_the_offset_numbering(n, k):
    h = build_construction(n, k)
    plan = h.plan
    orders = [order for order, js in h.shapes for _ in js]
    assert [j for _, js in h.shapes for j in js] == list(range(plan.s))
    assert orders == [plan.block_size] * (plan.s - 1) + [plan.v_s]
    assert len({order for order, _ in h.shapes}) == len(h.shapes)
    edges = {frozenset((h.x, h.y))}
    inner = []
    for order, js in h.shapes:
        _, minus, apex = block_pieces(plan.i, order)
        for j in js:
            assert h.vertex(j, 0) == h.x and h.vertex(j, 1) == h.y
            assert h.z[j] == h.vertex(j, 2)
            assert h.w[j] == (None if apex is None else h.vertex(j, apex))
            edges |= {frozenset((h.vertex(j, u), h.vertex(j, v))) for u, v in minus.edges()}
            inner += [h.vertex(j, v) for v in range(2, order)]
    assert sorted(inner) == list(range(2, n))
    assert edges == {frozenset(e) for e in h.graph.edges()}


def test_block_pieces():
    block, minus, apex = block_pieces(2, 3)
    assert block.n == 3 and minus.edge_count == 2 and apex is None
    for v in (4, 6, 7):
        block, minus, apex = block_pieces(2, v)
        assert block == truncated_moon_moser(2, v).graph
        assert minus.edge_count == block.edge_count - 1 and not minus.has_edge(0, 1)
        assert block.has_edge(apex, 0) and block.has_edge(apex, 1)
    with pytest.raises(DomainError):
        block_pieces(2, 8)


def test_block_pieces_builds_no_dart_arrays():
    pieces = block_pieces(10, 29526)  # a truncated level-10 block
    assert pieces[2] is not None
    assert not any("_darts" in vars(g) for g in pieces[:2])
    g = pieces[0]
    # the apex is the third vertex of the face traced from the dart (y, x)
    assert g.trace_face((1, 0)) == (1, 0, pieces[2])
