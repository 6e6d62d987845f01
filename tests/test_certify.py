import itertools
import json
import random
import time
import tracemalloc
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from ckfree import (
    CertificateError,
    CycleCertificate,
    DomainError,
    EmbeddedGraph,
    GraphStructureError,
    PathCertificate,
    ResourceError,
    SearchBudget,
    build_construction,
    certify_ck_free_brute,
    certify_ck_free_structural,
    certify_graph,
    choose_level,
    delete_edge,
    has_cycle_of_length,
    longest_cycle,
    longest_path_between,
    moon_moser,
    moon_moser_order,
    triangle,
    truncated_moon_moser,
)
from ckfree.certify import (
    _CYCLE_OF_LENGTH,
    _LONGEST_CYCLE,
    _LONGEST_PATH,
    MAX_SEARCH_VERTICES,
    _search,
    lemma_values,
)
from ckfree import certify, stacked
from ckfree.construction import block_shape
from ckfree.stacked import _Glued, stacked_block, stacked_longest_cycle
from planar3trees import retained_size, stacked_triangulation

# Outcomes of the recursive searches that the iterative kernel replaced:
# canonical certificate, conclusive flag and node count of each search.
SEARCH_OUTCOMES = json.loads(
    (Path(__file__).parent / "data" / "search_outcomes.json").read_text()
)


def cycle_graph(n):
    return EmbeddedGraph(
        tuple(((v - 1) % n, (v + 1) % n) for v in range(n)), (0, 1)
    )


def path_graph(n):
    return EmbeddedGraph(
        tuple(tuple(u for u in (v - 1, v + 1) if 0 <= u < n) for v in range(n)), (0, 1)
    )


def permutation_longest_cycle(g):
    """Brute oracle: try every vertex subset in every circular order."""
    adj = list(map(set, g.rotations))
    best = 0
    for size in range(g.n, 2, -1):
        if size <= best:
            break
        for subset in itertools.combinations(range(g.n), size):
            first = subset[0]
            for perm in itertools.permutations(subset[1:]):
                seq = (first,) + perm
                if all(seq[(i + 1) % size] in adj[seq[i]] for i in range(size)):
                    best = max(best, size)
                    break
            if best == size:
                break
    return best


def test_longest_cycle_known_values():
    assert longest_cycle(moon_moser(2).graph).length == 7
    assert longest_cycle(moon_moser(3).graph).length == 14
    assert longest_cycle(cycle_graph(5)).length == 5


def test_longest_cycle_certificate_validates():
    out = longest_cycle(moon_moser(2).graph)
    assert out.conclusive
    out.certificate.validate(moon_moser(2).graph)
    assert out.certificate.length == len(out.certificate.vertices)


def test_longest_path_known_values():
    t2 = moon_moser(2)
    assert longest_path_between(t2.graph, t2.x, t2.y).length == 6
    t3 = moon_moser(3)
    assert longest_path_between(t3.graph, t3.x, t3.y).length == 12
    k4_minus = delete_edge(moon_moser(1).graph, 0, 1)
    assert longest_path_between(k4_minus, 0, 1).length == 3


def test_path_certificate_endpoints():
    t2 = moon_moser(2)
    cert = longest_path_between(t2.graph, t2.x, t2.y).certificate
    assert cert.vertices[0] == t2.x and cert.vertices[-1] == t2.y
    cert.validate(t2.graph)


@pytest.mark.parametrize("a,b", [(0, 0), (0, 7), (-1, 1)])
def test_path_endpoints_must_be_distinct_vertices(a, b):
    with pytest.raises(GraphStructureError, match="path endpoints"):
        longest_path_between(moon_moser(2).graph, a, b)


def test_has_cycle_of_length():
    t2 = moon_moser(2).graph
    out = has_cycle_of_length(t2, 7)
    assert out.certificate is not None and out.certificate.length == 7
    assert has_cycle_of_length(build_construction(12, 7).graph, 7).certificate is None
    assert has_cycle_of_length(moon_moser(1).graph, 5).certificate is None


def test_exactness_against_permutation_oracle():
    graphs = [moon_moser(1).graph, moon_moser(2).graph, cycle_graph(6)]
    for v in (5, 6, 7):
        graphs.append(truncated_moon_moser(2, v).graph)
    rng_graphs = []
    for seed in range(6):
        G = nx.gnp_random_graph(8, 0.35, seed=seed)
        if not nx.is_connected(G):
            continue
        rot = tuple(tuple(sorted(G.neighbors(v))) for v in range(8))
        rng_graphs.append(EmbeddedGraph(rot, (0, rot[0][0])))
    assert rng_graphs
    for g in graphs + rng_graphs:
        assert longest_cycle(g).length == permutation_longest_cycle(g), g.rotations


def test_structural_examples():
    rep = certify_ck_free_structural(build_construction(20, 13))
    assert rep.circumference == 12 and rep.verdict and rep.conclusive
    assert rep.mode == "structural"
    rep = certify_ck_free_structural(build_construction(7, 7))
    assert rep.circumference == 6 and rep.verdict
    # single block reduces to the block's own longest cycle
    rep = certify_ck_free_structural(build_construction(7, 13))
    assert rep.circumference == 7


def test_structural_witness_validates_in_h():
    for n, k in ((20, 13), (7, 7), (18, 7), (15, 14)):
        h = build_construction(n, k)
        rep = certify_ck_free_structural(h)
        rep.witness.validate(h.graph)
        assert rep.witness.length == rep.circumference


def test_brute_structural_agreement_sample():
    for n, k in ((10, 7), (13, 8), (16, 9), (11, 13), (19, 14), (22, 12)):
        h = build_construction(n, k)
        brute = longest_cycle(h.graph)
        rep = certify_ck_free_structural(h)
        assert brute.conclusive
        assert brute.length == rep.circumference, (n, k)
        hit = has_cycle_of_length(h.graph, k)
        assert (hit.certificate is None) == rep.verdict


def test_case_bounds_from_block_values():
    # single-block cycles stay below 7k/12 (i >= 2; = 4 for K_4 blocks),
    # and two x-y block paths always sum below k
    for n, k in ((20, 13), (40, 14), (30, 7), (25, 10)):
        h = build_construction(n, k)
        rep = certify_ck_free_structural(h)
        i = h.plan.i
        for b in rep.blocks:
            if i >= 2:
                assert 12 * b.cycle_length < 7 * k
            else:
                assert b.cycle_length <= 4 < k
        if h.plan.s >= 2:
            tops = sorted(
                [b.path_length for b in rep.blocks for _ in range(min(b.count, 2))],
                reverse=True,
            )
            assert tops[0] + tops[1] < k


def test_determinism():
    h = build_construction(20, 13)
    a = certify_ck_free_structural(h)
    b = certify_ck_free_structural(h)
    assert a == b
    g = moon_moser(3).graph
    assert longest_cycle(g) == longest_cycle(g)


def test_budget_exhaustion_is_flagged_not_wrong():
    g = moon_moser(3).graph
    out = longest_cycle(g, SearchBudget(node_limit=50, time_limit=600))
    assert not out.conclusive
    if out.certificate is not None:
        out.certificate.validate(g)
        assert out.length <= 14  # never an overclaim


def test_lemma_backed_fallback():
    """The blocks a closed-form fallback once stood in for are computed.

    Two full level-3 blocks (H(30, 25)) and level-4 blocks ending in a
    truncated one (H(200, 49)) are out of reach of a small search budget,
    and the structural certifier now takes no budget and trusts no formula:
    every block value comes from the DP and every witness is validated.
    """
    for n, k, want in ((30, 25, 24), (200, 49, 48)):
        h = build_construction(n, k)
        rep = certify_ck_free_structural(h)
        assert rep.conclusive and rep.verdict and rep.circumference == want
        rep.witness.validate(h.graph)
        assert rep.witness.length == want
        full = [b for b in rep.blocks if b.size == h.plan.block_size]
        assert [(b.cycle_length, b.path_length) for b in full] == [lemma_values(h.plan.i)]


def test_path_certificate_checked():
    g = moon_moser(1).graph  # K_4
    assert PathCertificate.checked(g, [0, 3, 2, 1], 0, 1, 3).vertices == (0, 3, 2, 1)
    for seq, length, message in [
        ((0, 3, 2), None, "does not run from 0 to 1"),
        ((1, 2, 0), None, "does not run from 0 to 1"),
        ((), None, "does not run from 0 to 1"),
        ((0, 2, 1), 3, "has 2 edges, not 3"),
        ((0, 2, 0, 1), None, "repeated vertex"),
    ]:
        with pytest.raises(CertificateError, match=message):
            PathCertificate.checked(g, seq, 0, 1, length)


def test_a_path_witness_with_a_wrong_end_is_refused(monkeypatch):
    g = moon_moser(1).graph
    monkeypatch.setattr(certify, "_search", lambda *args, **kwargs: ((0, 2, 3), True, 1))
    with pytest.raises(CertificateError, match="does not run from 0 to 1"):
        longest_path_between(g, 0, 1)
    # the DP's path witness, traced from the wrong end
    trace = stacked._trace
    monkeypatch.setattr(stacked, "_trace", lambda edges, start: trace(edges, start)[::-1])
    with pytest.raises(CertificateError, match="does not run from 0 to 1"):
        stacked_block(moon_moser(2).graph, 0, 1)


def test_certificate_validation_rejects_bad_witnesses():
    g = moon_moser(1).graph
    with pytest.raises(CertificateError):
        CycleCertificate((0, 1)).validate(g)
    with pytest.raises(CertificateError):
        CycleCertificate((0, 1, 0)).validate(g)
    with pytest.raises(CertificateError):
        PathCertificate((0, 1, 5)).validate(g)
    g2 = cycle_graph(5)
    with pytest.raises(CertificateError):
        CycleCertificate((0, 1, 3)).validate(g2)


def test_cycle_witness_of_a_wrong_length_and_a_too_short_cycle_search_are_refused():
    g = moon_moser(1).graph
    with pytest.raises(CertificateError, match="^internal: cycle witness has 3 vertices, not 4$"):
        CycleCertificate.checked(g, (0, 1, 2), 4)
    with pytest.raises(GraphStructureError, match="^cycle length must be >= 3, got 2$"):
        has_cycle_of_length(g, 2)


def test_canonical_cycle_form():
    c = CycleCertificate((3, 2, 1, 4)).canonical()
    assert c.vertices[0] == 1
    assert c.vertices in ((1, 2, 3, 4), (1, 4, 3, 2))
    assert c.vertices[1] < c.vertices[-1]


def test_brute_report():
    h = build_construction(12, 7)
    rep = certify_ck_free_brute(h)
    assert rep.mode == "brute"
    assert rep.verdict and rep.conclusive
    assert rep.circumference < 7


def golden_graph(name):
    """The graph of a golden entry: "H(n,k)", "T_i" or "T_i - xy"."""
    if name.startswith("H("):
        n, k = map(int, name[2:-1].split(","))
        return build_construction(n, k).graph
    t = moon_moser(int(name[2]))
    return delete_edge(t.graph, t.x, t.y) if name.endswith(" - xy") else t.graph


def outcome_record(out):
    vs = list(out.certificate.vertices) if out.certificate else None
    return {"vertices": vs, "conclusive": out.conclusive, "nodes": out.nodes}


@pytest.mark.parametrize(
    "entry",
    SEARCH_OUTCOMES,
    ids=lambda e: f"{e['name'].replace(' ', '')}@{e['node_limit']}",
)
def test_search_outcomes_match_golden(entry):
    g = golden_graph(entry["name"])
    budget = SearchBudget(node_limit=entry["node_limit"])
    assert outcome_record(longest_cycle(g, budget)) == entry["longest_cycle"]
    want = entry["longest_path_between"]
    out = longest_path_between(g, want["a"], want["b"], budget)
    assert dict(a=want["a"], b=want["b"], **outcome_record(out)) == want
    for want in entry["has_cycle_of_length"]:
        out = has_cycle_of_length(g, want["k"], budget)
        assert dict(k=want["k"], **outcome_record(out)) == want


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(0, 10**6), max_size=4),
    st.integers(-1, 10**6),
    st.integers(0, 10**6),
    st.integers(1, 10**6),
)
def test_searches_match_oracles_on_stacked_triangulations(picks, cut, a, step):
    g = stacked_triangulation(picks)
    if cut >= 0:
        g = delete_edge(g, *g.edges()[cut % g.edge_count])
    G = nx.Graph(g.edges())
    out = longest_cycle(g)
    assert out.conclusive and out.length == permutation_longest_cycle(g)
    lengths = {len(c) for c in nx.simple_cycles(G, length_bound=g.n)}
    for k in range(3, g.n + 1):
        hit = has_cycle_of_length(g, k)
        assert hit.conclusive and (hit.certificate is not None) == (k in lengths), k
    a, b = a % g.n, (a + step % (g.n - 1) + 1) % g.n
    out = longest_path_between(g, a, b)
    assert out.conclusive
    assert out.length == max(len(p) - 1 for p in nx.all_simple_paths(G, a, b))


def test_searches_are_not_limited_by_recursion_depth():
    g = cycle_graph(1500)
    out = longest_cycle(g)
    assert out.length == 1500 and out.conclusive
    hit = has_cycle_of_length(g, 1500)
    assert hit.certificate.length == 1500 and hit.conclusive
    out = longest_path_between(g, 0, 1)
    assert out.length == 1499 and out.conclusive


@pytest.mark.parametrize(
    "search",
    [
        longest_cycle,
        lambda g: has_cycle_of_length(g, 3),
        lambda g: longest_path_between(g, 0, 1),
    ],
    ids=["longest_cycle", "has_cycle_of_length", "longest_path_between"],
)
def test_searches_refuse_graphs_above_the_size_limit(search):
    with pytest.raises(ResourceError, match=f"limited to {MAX_SEARCH_VERTICES} vertices"):
        search(path_graph(MAX_SEARCH_VERTICES + 1))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 10**6), max_size=7), st.integers(0, 10**6))
def test_dp_matches_networkx_on_stacked_triangulations(picks, e):
    g = stacked_triangulation(picks)
    x, y = g.edges()[e % g.edge_count]
    cyc, pat = stacked_block(g, x, y)
    cyc.validate(g)
    pat.validate(g)
    G = nx.Graph(g.edges())
    assert cyc.length == max(len(c) for c in nx.simple_cycles(G))
    assert stacked_longest_cycle(g).length == cyc.length
    G.remove_edge(x, y)
    assert pat.vertices[0] == x and pat.vertices[-1] == y
    assert pat.length == max(len(p) - 1 for p in nx.all_simple_paths(G, x, y))


@pytest.mark.parametrize("i", [1, 2, 3])
def test_dp_matches_the_search_on_every_block_of_levels_1_to_3(i):
    for v in [3, *range(4, moon_moser_order(i) + 1)]:
        block = triangle() if v == 3 else truncated_moon_moser(i, v).graph
        minus = block_shape(i, v)
        cyc, pat = stacked_block(block, 0, 1)
        cyc.validate(block)
        pat.validate(minus)
        assert cyc.length == longest_cycle(block).length, (i, v)
        assert pat.length == longest_path_between(minus, 0, 1).length, (i, v)


def test_dp_gives_the_closed_forms_up_to_level_8():
    for i in range(1, 9):
        t = moon_moser(i)
        cyc, pat = stacked_block(t.graph, t.x, t.y)
        assert (cyc.length, pat.length) == lemma_values(i)


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1), (1, 2), (2, 0)] + [(a, c) for a in (3, 4, 5) for c in (0, 1, 2)],
        [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (3, 4)]
        + [(a, c) for a in (5, 6) for c in (0, 1, 4)],
        # 6, 5 and, after its neighbour 3, 4 are peeled off the triangle
        # 0 1 2: with hubs 0, 1 it is the root, and its third apex meets the
        # root refusal; without hubs 1 is peeled and a child slot refuses
        [(0, 1), (1, 2), (2, 0), (3, 0), (3, 2), (3, 4)]
        + [(a, c) for a in (4, 5, 6) for c in (0, 1, 2)],
        # the same with a second piece 7 on 0 1, which keeps 0 and 1: the
        # root refusal without hubs
        [(0, 1), (1, 2), (2, 0), (3, 0), (3, 2), (3, 4), (7, 0), (7, 1)]
        + [(a, c) for a in (4, 5, 6) for c in (0, 1, 2)],
    ],
    ids=["three apices on one triangle", "two apices on an inner triangle",
         "three apices on the root triangle", "three apices on a root of two pieces"],
)
def test_non_planar_3_trees_are_not_recognised(edges):
    n = 1 + max(max(e) for e in edges)
    rot = [[] for _ in range(n)]
    for u, v in edges:
        rot[u].append(v)
        rot[v].append(u)
    g = EmbeddedGraph(tuple(map(tuple, rot)), (0, 1))
    assert stacked_longest_cycle(g) is None
    with pytest.raises(GraphStructureError):
        stacked_block(g, 0, 1)


@pytest.mark.parametrize("make", [
    lambda: moon_moser(9).graph,
    lambda: build_construction(20000, 13, validate=False).graph,
], ids=["T_9", "H(20000,13)"])
def test_recognition_peak_stays_below_3_graph_sizes(make):
    g = make()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert _Glued.of(g) is not None
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # about 2.5 with one list per fact; peel pairs, an order list and one
    # child list per vertex took 3.6 to 4.1
    assert peak < 3.0 * retained_size(g), (peak, retained_size(g))


def test_graphs_that_are_not_glued_stacked_triangulations_are_not_recognised():
    h = build_construction(12, 7)
    assert stacked_longest_cycle(delete_edge(h.graph, 0, 1)) is None  # hubs not adjacent
    assert stacked_longest_cycle(cycle_graph(6)) is None
    assert stacked_longest_cycle(path_graph(2)) is None
    assert stacked_longest_cycle(h.graph).length == longest_cycle(h.graph).length


def reference_search(g, budget, goal, k=0, a=0, b=-1):
    """The search kernel as it was before forced moves carried the parent's
    reached set: every kept node floods its reachable set afresh.  A
    reference for `_search`, which must visit the same tree."""
    n = g.n
    adj = []
    for rot in g.rotations:
        m = 0
        for u in rot:
            m |= 1 << u
        adj.append(m)
    full = (1 << n) - 1
    cycles = goal == _LONGEST_CYCLE
    limit, deadline = budget.node_limit, time.monotonic() + budget.time_limit
    best = k - 1 if goal == _CYCLE_OF_LENGTH else 0
    best_seq = None
    nodes = 0
    for root in (a,) if goal == _LONGEST_PATH else range(n):
        if goal == _LONGEST_PATH:
            allowed, close = full ^ (1 << a), 1 << b
        elif cycles and len(g.rotations[root]) < 2:
            continue
        else:
            allowed, close = full >> (root + 1) << (root + 1), adj[root]
        v, path, stack = root, [root], []
        while True:
            nodes += 1
            if nodes >= limit or (not nodes & 4095 and time.monotonic() > deadline):
                return best_seq, False, nodes
            depth = len(path)
            cand = 0
            if v == b:
                if depth > best:
                    best, best_seq = depth, tuple(path)
            elif depth == k:
                if close >> v & 1:
                    return tuple(path), True, nodes
            else:
                if cycles and depth > best and depth >= 3 and close >> v & 1:
                    best, best_seq = depth, tuple(path)
                need = best - depth
                if allowed.bit_count() > need:
                    frontier = cand = adj[v] & allowed
                    count, met, rest = cand.bit_count(), cand & close, allowed ^ cand
                    while frontier and not (met and count > need):
                        nxt = 0
                        while frontier:
                            low = frontier & -frontier
                            nxt |= adj[low.bit_length() - 1]
                            frontier ^= low
                        frontier = nxt & rest
                        rest ^= frontier
                        count += frontier.bit_count()
                        met = met or frontier & close
                    if not (met and count > need):
                        cand = 0
            while not cand:
                if not stack:
                    break
                allowed ^= 1 << path.pop()
                cand = stack.pop()
            else:
                low = cand & -cand
                stack.append(cand ^ low)
                allowed ^= low
                v = low.bit_length() - 1
                path.append(v)
                continue
            break
    return best_seq, True, nodes


def from_edges(n, edges):
    """Graph on 0..n-1 whose rotations list the neighbours in edge order;
    only the searches read it, so the rotations need not be planar."""
    rot = [[] for _ in range(n)]
    for u, v in edges:
        rot[u].append(v)
        rot[v].append(u)
    return EmbeddedGraph(tuple(map(tuple, rot)), (0, rot[0][0]))


def subdivide(g, chains):
    """g with each edge (u, v) of `chains` replaced by a path through
    chains[(u, v)] new vertices, each end taking v's (or u's) place in the
    rotation, so an embedded graph stays embedded."""
    rot = [list(r) for r in g.rotations]
    outer = list(g.outer_edge)
    for (u, v), m in chains.items():
        walk = [u, *range(len(rot), len(rot) + m), v]
        rot[u][rot[u].index(v)] = walk[1]
        rot[v][rot[v].index(u)] = walk[-2]
        rot += [[walk[i - 1], walk[i + 1]] for i in range(1, m + 1)]
        if outer == [u, v]:
            outer[1] = walk[1]
        elif outer == [v, u]:
            outer[1] = walk[-2]
    return EmbeddedGraph(tuple(map(tuple, rot)), tuple(outer))


def subdivided_k4(lengths):
    """K_4 with its six edges, in `edges()` order, subdivided by `lengths`."""
    k4 = moon_moser(1).graph
    return subdivide(k4, dict(zip(k4.edges(), lengths)))


def theta_graph(*lengths):
    """Vertices 0 and 1 joined by one path per length of inner vertices
    (at most one length may be 0, the edge 01)."""
    edges, n = [], 2
    for m in lengths:
        walk = [0, *range(n, n + m), 1]
        edges += zip(walk, walk[1:])
        n += m
    return from_edges(n, edges)


def tree_with_chords(n, chords, seed):
    """Random tree on 0..n-1 (each vertex hangs off an earlier one) plus
    `chords` random extra edges."""
    rng = random.Random(seed)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + chords:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return from_edges(n, sorted(edges))


def assert_kernel_matches_reference(g, pairs):
    """`_search` and `reference_search` agree on (sequence, conclusive,
    nodes) for every goal at budgets of 1, 50 and 10^8 nodes."""
    found = longest_cycle(g).length
    ks = sorted({3, 4, found, found + 1, g.n} & set(range(3, g.n + 1)))
    for budget in (SearchBudget(node_limit=1), SearchBudget(node_limit=50), SearchBudget()):
        calls = [dict(goal=_LONGEST_CYCLE)]
        calls += [dict(goal=_CYCLE_OF_LENGTH, k=k) for k in ks]
        calls += [dict(goal=_LONGEST_PATH, a=a, b=b) for a, b in pairs]
        for call in calls:
            assert _search(g, budget, **call) == reference_search(g, budget, **call), call


KERNEL_CASES = {
    "C_3": (cycle_graph(3), [(0, 1)]),
    "C_40": (cycle_graph(40), [(0, 1), (0, 20), (7, 3)]),
    "C_301": (cycle_graph(301), [(0, 1), (0, 150)]),
    "P_2": (path_graph(2), [(0, 1)]),
    "P_120": (path_graph(120), [(0, 119), (119, 0), (5, 80)]),
    "theta(0,5,9)": (theta_graph(0, 5, 9), [(0, 1), (2, 9), (3, 12)]),
    "theta(40,40,40)": (theta_graph(40, 40, 40), [(0, 1), (2, 50)]),
    "theta(1,17,60)": (theta_graph(1, 17, 60), [(0, 1), (2, 40)]),
    "K4(0,3,7,0,12,1)": (subdivided_k4([0, 3, 7, 0, 12, 1]), [(0, 1), (2, 3), (5, 20)]),
    "K4(25x6)": (subdivided_k4([25] * 6), [(0, 1), (0, 3), (10, 140)]),
    "tree60": (tree_with_chords(60, 0, 1), [(0, 59), (3, 40)]),
    "tree80+3": (tree_with_chords(80, 3, 2), [(0, 79), (10, 11)]),
    "tree100+6": (tree_with_chords(100, 6, 3), [(0, 99), (50, 7)]),
}


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_kernel_matches_the_flood_at_every_node_reference(name):
    assert_kernel_matches_reference(*KERNEL_CASES[name])


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(0, 10**6), max_size=6),
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 12)), max_size=5),
    st.integers(0, 10**6),
)
def test_kernel_matches_reference_on_subdivided_stacked_triangulations(picks, cuts, a):
    g = stacked_triangulation(picks)
    edges = g.edges()
    g = subdivide(g, {edges[e % len(edges)]: m for e, m in cuts})
    a %= g.n
    assert_kernel_matches_reference(g, [(0, 1), (a, (a + 1) % g.n), (a, g.n - 1 - a)])


@pytest.mark.parametrize(
    "g",
    [
        subdivided_k4([0, 0, 0, 0, 0, 1]),
        subdivided_k4([60, 0, 13, 2, 60, 31]),
        subdivided_k4([9, 17, 60, 60, 5, 44]),
        theta_graph(0, 60, 60),
        theta_graph(3, 4, 5),
        theta_graph(60, 1, 38),
    ],
    ids=lambda g: f"n{g.n}",
)
def test_searches_match_networkx_on_subdivided_graphs(g):
    G = nx.Graph(g.edges())
    lengths = {len(c) for c in nx.simple_cycles(G)}
    out = longest_cycle(g)
    assert out.conclusive and out.length == max(lengths)
    for k in range(3, g.n + 1):
        hit = has_cycle_of_length(g, k)
        assert hit.conclusive and (hit.certificate is not None) == (k in lengths), k
    for a, b in ((0, 1), (1, 0), (0, g.n - 1), (2, 3)):
        out = longest_path_between(g, a, b)
        assert out.conclusive
        assert out.length == max(len(p) - 1 for p in nx.all_simple_paths(G, a, b)), (a, b)


def test_long_induced_paths_are_searched_at_a_small_cost_per_node():
    # before forced moves carried their reached set, each of these nodes
    # flooded up to 6000 BFS layers, and the searches met their clock
    # check only after thousands of such floods
    budget = SearchBudget(time_limit=20)
    g = cycle_graph(6000)
    out = longest_cycle(g, budget)
    assert out.conclusive and out.length == 6000 and out.nodes == 12000
    hit = has_cycle_of_length(g, 6000, budget)
    assert hit.conclusive and hit.certificate.length == 6000
    out = longest_path_between(path_graph(6000), 0, 5999, budget)
    assert out.conclusive and out.length == 5999 and out.nodes == 6000


@pytest.mark.parametrize(
    "limits",
    [dict(node_limit=0), dict(node_limit=-3), dict(time_limit=0), dict(time_limit=-1.0),
     dict(time_limit=float("nan")), dict(time_limit=float("-inf"))],
    ids=str,
)
def test_budgets_no_search_could_meet_are_refused(limits):
    with pytest.raises(DomainError, match="search (node|time) limit"):
        SearchBudget(**limits)


def test_replace_and_make_check_the_limits():
    for limits in (dict(node_limit=0), dict(time_limit=-1.0), dict(time_limit=float("nan"))):
        with pytest.raises(DomainError, match="search (node|time) limit"):
            SearchBudget()._replace(**limits)
    with pytest.raises(DomainError, match="search node limit"):
        SearchBudget._make([0, -1.0])
    with pytest.raises(TypeError):
        SearchBudget._make([5])  # no default fills a short iterable
    budget = SearchBudget(5, 2.0)
    assert SearchBudget._make([5, 2.0]) == budget == SearchBudget()._replace(node_limit=5, time_limit=2.0)
    assert type(budget._replace(node_limit=7)) is SearchBudget


def test_smallest_and_unbounded_budgets_are_accepted():
    out = longest_cycle(cycle_graph(5), SearchBudget(node_limit=1, time_limit=float("inf")))
    assert not out.conclusive and out.nodes == 1
    assert longest_cycle(cycle_graph(5), SearchBudget(time_limit=float("inf"))).conclusive


def test_a_circumference_equal_to_k_is_the_k_cycle():
    g = moon_moser(7).graph  # circumference 224 by the DP
    r = certify_graph(g, 224, SearchBudget(node_limit=1))  # too small for any search
    assert r.mode == "structural" and r.circumference == 224
    assert not r.verdict and r.conclusive
    assert r.k_cycle == r.witness and r.k_cycle.length == 224
    r.k_cycle.validate(g)
