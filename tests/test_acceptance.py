"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  The stretch part of criterion 2 (level-4 search on 43 vertices) is
budget-limited and allowed to come back inconclusive; set
CKFREE_STRETCH_NODES to push it harder.
"""

import math
import os
import time

import pytest

import ckfree as ck

VERDICT_RANGE = [
    (n, k)
    for k in range(7, 15)
    for n in range(ck.moon_moser_order(ck.choose_level(k)), 23)
]


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


@pytest.fixture(scope="module")
def towers():
    return {i: ck.moon_moser(i) for i in range(1, 13)}


@pytest.fixture(scope="module")
def h_large():
    return ck.build_construction(100_000, 13)


def test_criterion_1_tower_counts(towers):
    for i in range(1, 13):
        g = towers[i].graph
        assert g.n == (3**i + 5) // 2, i
        assert g.edge_count == 3 * g.n - 6, i
        assert ck.is_triangulation(g), i
    report(1, "levels 1..12: V=(3^i+5)/2, E=3V-6, all triangulations")


def test_criterion_2_block_cycle_and_path_values(towers):
    t0 = time.time()
    assert ck.longest_cycle(towers[2].graph).length == 7
    assert ck.longest_cycle(towers[3].graph).length == 14
    assert ck.longest_path_between(towers[2].graph, 0, 1).length == 6
    assert ck.longest_path_between(towers[3].graph, 0, 1).length == 12
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"level 2/3 searches took {elapsed:.1f}s"

    nodes = int(os.environ.get("CKFREE_STRETCH_NODES", 300_000))
    budget = ck.SearchBudget(node_limit=nodes, time_limit=600)
    cyc = ck.longest_cycle(towers[4].graph, budget)
    pat = ck.longest_path_between(towers[4].graph, 0, 1, budget)
    stretch = "inconclusive (allowed)"
    if cyc.conclusive:
        assert cyc.length == 28
        stretch = "cycle 28 confirmed"
    if pat.conclusive:
        assert pat.length == 24
    report(2, f"cycle/path = 7/6 (level 2), 14/12 (level 3) in {elapsed:.1f}s; "
              f"level-4 stretch: {stretch}")


def test_criterion_3_brute_force_freeness():
    t0 = time.time()
    for n, k in VERDICT_RANGE:
        h = ck.build_construction(n, k)
        out = ck.has_cycle_of_length(h.graph, k)
        assert out.conclusive and out.certificate is None, (n, k)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(3, f"no k-cycle in any H(n,k), k in [7,14], n <= 22 "
              f"({len(VERDICT_RANGE)} instances, {elapsed:.1f}s)")


def test_criterion_4_brute_structural_equivalence():
    for n, k in VERDICT_RANGE:
        h = ck.build_construction(n, k)
        whole = ck.longest_cycle(h.graph)
        rep = ck.certify_ck_free_structural(h)
        assert whole.conclusive and rep.conclusive
        assert whole.length == rep.circumference, (n, k)
    report(4, f"structural circumference == whole-graph search on "
              f"{len(VERDICT_RANGE)} instances (zero tolerance)")


def test_criterion_5_large_scale_certification(h_large):
    t0 = time.time()
    rep = ck.certify_ck_free_structural(h_large)
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"certification took {elapsed:.1f}s"
    assert rep.conclusive and rep.mode == "structural"
    assert rep.verdict and rep.circumference == 12
    rep.witness.validate(h_large.graph)
    report(5, f"H(100000,13): circumference 12, verdict true, exact mode, "
              f"{elapsed:.2f}s")


def test_criterion_6_edge_identity_and_completion_grid():
    ns = [7, 10, 16, 22, 37, 61, 100, 164, 270, 445, 733, 1207, 1988, 3275,
          5393, 8886]
    pairs = 0
    for k in range(7, 21):
        nmin = ck.moon_moser_order(ck.choose_level(k))
        for n in ns:
            if n < nmin:
                continue
            h = ck.build_construction(n, k)
            assert h.graph.edge_count == 3 * n - 6 - (h.plan.s - 1), (n, k)
            assert ck.exact_edge_count(n, k) == h.graph.edge_count
            assert ck.verify_completion(h), (n, k)
            pairs += 1
    assert pairs >= 200
    report(6, f"edge identity 3n-6-(s-1) and completion on {pairs} (n,k) pairs")


def test_criterion_7_inequality_chain_grid():
    t0 = time.time()
    points = 0
    smallest_fail = None
    for k in range(7, 301):
        nmin = ck.moon_moser_order(ck.choose_level(k))
        lo, hi = math.log(nmin), math.log(10**6)
        ns = sorted({round(math.exp(lo + (hi - lo) * t / 39)) for t in range(40)})
        for n in ns:
            rep = ck.verify_inequality_chain(n, k)
            assert rep.ok, (n, k)
            points += 1
    elapsed = time.time() - t0
    assert points >= 10_000
    assert elapsed < 60.0
    report(7, f"inequality chain holds at {points} grid points, k in [7,300], "
              f"n up to 1e6 ({elapsed:.1f}s, slack 1e-9)")


def test_criterion_8_degenerate_last_block():
    h = ck.build_construction(7, 7)
    assert h.plan.v_s == 3 and h.graph.edge_count == 13
    rep = ck.certify_ck_free_structural(h)
    assert rep.verdict and rep.circumference == 6
    assert ck.has_cycle_of_length(h.graph, 7).certificate is None
    assert ck.verify_completion(h)
    assert ck.complete_to_triangulation(h).edge_count == 15
    report(8, "H(7,7): v_s=3 block builds, 13 edges, C_7-free, completes to "
              "a triangulation")


def test_criterion_9_codec_round_trips(towers, h_large):
    assert ck.encode_graph6(towers[1].graph) == "C~"
    small_hs = [ck.build_construction(n, k)
                for n, k in ((7, 7), (20, 13), (22, 14), (317, 20))]
    g6_count = 0
    for g in [t.graph for t in towers.values()] + [h.graph for h in small_hs]:
        if g.n <= 3300:  # graph6 is O(n^2) bytes; larger graphs use rotations
            n, edges = ck.decode_graph6(ck.encode_graph6(g))
            assert n == g.n and set(edges) == set(g.edges())
            g6_count += 1
        g2, _ = ck.decode_planar(ck.encode_planar(g))
        assert g2 == g
    labels = {"x": h_large.x, "y": h_large.y, "z1": h_large.vertex(0, 2)}
    g2, labels2 = ck.decode_planar(ck.encode_planar(h_large.graph, labels))
    assert g2 == h_large.graph and labels2 == labels
    report(9, f"round trips: graph6 on {g6_count} graphs (incl. C~ for K_4), "
              f"rotation format on all, up to n=100000")


def test_criterion_10_level_choice_integer_float_agreement():
    boundaries = []
    m = 2
    while 3 * 2**m <= 10**6:
        boundaries.append(3 * 2**m)
        m += 1
    for k in boundaries:
        assert ck.choose_level(k) == choose_level_float(k) == m0(k)
    for k in range(7, 10**6 + 1):
        if ck.choose_level(k) != choose_level_float(k):
            pytest.fail(f"integer/float disagreement at k={k}")
    report(10, "choose_level integer == float form on all k in [7, 1e6], "
               "power-of-two boundaries included")


def choose_level_float(k):
    """The float form ceil(log2(k/3)) - 1 that `choose_level` replaces."""
    return math.ceil(math.log2(k / 3)) - 1


def m0(k):
    # independent: at k = 3*2^m the strict inequality pushes the level to m-1
    return round(math.log2(k / 3)) - 1
