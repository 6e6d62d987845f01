import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ckfree import (
    BoundsRow,
    DomainError,
    ResourceError,
    block_plan,
    bounds_csv,
    bounds_table,
    build_construction,
    choose_level,
    conj1_value,
    conj2_form,
    exact_edge_count,
    lan_song_slope,
    moon_moser_order,
    thm2_lower,
    verify_inequality_chain,
)
from ckfree import bounds
from ckfree.bounds import log_spaced

LOG2_3 = math.log2(3)


def test_thm2_lower_example():
    assert thm2_lower(20, 13) == pytest.approx(42.2553, abs=1e-3)


def test_thm2_lower_refuses_k_below_7():
    with pytest.raises(DomainError, match="need k >= 7 and n >= 1, got n=10, k=6"):
        thm2_lower(10, 6)


def test_thm2_lower_limit_behavior():
    n = 50
    values = [thm2_lower(n, k) for k in (10, 100, 1000, 100000)]
    assert values == sorted(values)
    assert values[-1] < 3 * n - 6
    assert 3 * n - 6 - values[-1] < 0.05


def test_thm2_lower_small_n_may_be_negative():
    assert thm2_lower(2, 7) < 0


def test_conj1_examples():
    assert conj1_value(20, 13) == pytest.approx(54 - 66 / 13)
    # algebraic identity: k = 3n + 6 gives exactly 3n - 7
    n = 11
    assert conj1_value(n, 3 * n + 6) == pytest.approx(3 * n - 7)


def test_construction_beats_conj1_at_small_k():
    # the disproof phenomenon: exact edges exceed the conjectured cap
    assert exact_edge_count(20, 7) == 46
    assert conj1_value(20, 7) == pytest.approx(54 - 66 / 7)
    assert exact_edge_count(20, 7) > conj1_value(20, 7)


def test_conj2_form_is_a_family():
    assert conj2_form(20, 13, 1.0) > conj2_form(20, 13, 2.0)


def test_lan_song_slope():
    assert lan_song_slope(11) == pytest.approx(3 - (3 - 2 / 9) / 10)
    assert lan_song_slope(11) == pytest.approx(2.7222, abs=1e-4)
    with pytest.raises(DomainError):
        lan_song_slope(10)
    # floor change point between even/odd k
    d12 = 12 - 6 + (12 - 1) // 2
    d13 = 13 - 6 + (13 - 1) // 2
    assert lan_song_slope(12) == pytest.approx(3 - (3 - 2 / 10) / d12)
    assert lan_song_slope(13) == pytest.approx(3 - (3 - 2 / 11) / d13)
    assert lan_song_slope(10**6) == pytest.approx(3, abs=1e-4)


@pytest.mark.parametrize("n,k,edges", [(20, 13, 51), (7, 7, 13), (4, 7, 6), (7, 13, 15)])
def test_exact_edge_count(n, k, edges):
    assert exact_edge_count(n, k) == edges


def test_exact_edge_count_matches_built_graph():
    for n, k in ((7, 7), (20, 13), (50, 9), (317, 20), (1000, 13)):
        assert exact_edge_count(n, k) == build_construction(n, k).graph.edge_count


def test_chain_example():
    rep = verify_inequality_chain(20, 13)
    assert rep.exact_edges == 51
    assert rep.link1_value == pytest.approx(54 - 36 / 10)  # 50.4
    assert rep.link3_value == pytest.approx(thm2_lower(20, 13))
    assert rep.ok


def test_chain_trivial_at_single_block():
    rep = verify_inequality_chain(7, 13)
    assert rep.exact_edges == 3 * 7 - 6
    assert rep.ok


def test_chain_holds_on_grid():
    for k in range(7, 60):
        for n in (10, 33, 100, 1000, 12345):
            try:
                rep = verify_inequality_chain(n, k)
            except DomainError:
                continue
            assert rep.ok, (n, k)
            assert rep.exact_edges >= rep.link1_value - 1e-9 >= rep.link3_value - 1


def test_monotonicity():
    # fixed n: exact edges non-decreasing in k while the level is constant,
    # and the general lower bound strictly increasing in k
    n = 500
    prev_edges, prev_lower = None, None
    from ckfree import choose_level

    for k in range(13, 25):  # level stays 2 on [13, 24]
        assert choose_level(k) == 2
        e = exact_edge_count(n, k)
        lo = thm2_lower(n, k)
        if prev_edges is not None:
            assert e >= prev_edges
            assert lo > prev_lower
        prev_edges, prev_lower = e, lo


def test_bounds_table_and_csv():
    rows = bounds_table(list(range(7, 15)), [100])
    assert len(rows) == 8
    assert [(r.k, r.n) for r in rows] == sorted((r.k, r.n) for r in rows)
    assert all(r.chain_ok for r in rows)
    csv = bounds_csv(rows)
    lines = csv.strip().splitlines()
    assert lines[0] == "n,k,i,s,exact_edges,thm2_lower,conj1,lan_song_slope,chain_ok"
    assert len(lines) == 9
    first = lines[1].split(",")
    assert first[0] == "100" and first[1] == "7"
    assert first[7] == ""  # no slope below k = 11
    assert lines[5].split(",")[7] != ""  # k = 11 has one


def test_bounds_table_skips_invalid_n():
    rows = bounds_table([13], [5, 100])  # n=5 below the level-2 minimum
    assert [r.n for r in rows] == [100]


# -- per-k table: golden output, exact verdicts, point-by-point agreement -----


def golden_grid_n():
    """300 fixed n values in [4, 10^9]: a few below every block order, the
    rest log-uniform, 10^9 always included."""
    rng = random.Random(2023)
    ns = {10**9, 4, 5, 6, 7}
    while len(ns) < 300:
        ns.add(round(10 ** rng.uniform(0.6, 9)))
    return sorted(ns)


# sha256 of the CSV below, recorded with the row-at-a-time table (float
# chain verdicts) that the per-k table replaced
GOLDEN_GRID_CSV_SHA256 = "910f7c3eab6469f6da23ed6a53e5e76a3b48bcdd2c48959d418f5fa07e697086"


def test_bounds_csv_matches_golden_digest():
    ns = golden_grid_n()
    assert len(ns) == 300 and max(ns) == 10**9
    csv = bounds_csv(bounds_table(range(7, 1007), ns))
    assert hashlib.sha256(csv.encode()).hexdigest() == GOLDEN_GRID_CSV_SHA256


@pytest.mark.parametrize("n,k", [(9146220569123689, 12), (4533505717295561, 48)])
def test_chain_link2_equality_points(n, k):
    # k = 3 * 2^(i+1): link 2 holds with equality, which float slack misjudged
    rep = verify_inequality_chain(n, k)
    assert k == 3 * 2 ** (rep.i + 1)
    assert rep.link2_ok and rep.ok
    assert bounds_table([k], [n])[0].chain_ok


def expected_row(n, k):
    """The row of (n, k) from the point-by-point public functions."""
    plan = block_plan(n, k)
    return BoundsRow(
        n=n,
        k=k,
        i=plan.i,
        s=plan.s,
        exact_edges=3 * n - 6 - (plan.s - 1),
        thm2_lower=thm2_lower(n, k),
        conj1_value=conj1_value(n, k),
        lan_song_slope=lan_song_slope(k) if k >= 11 else None,
        three_n_minus_6=3 * n - 6,
        chain_ok=verify_inequality_chain(n, k).ok,
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(7, 10**5), min_size=1, max_size=4),
    st.lists(st.integers(-5, 10**18) | st.integers(0, 400), min_size=1, max_size=12),
)
def test_bounds_table_equals_point_by_point(ks, ns):
    want = []
    for k in sorted(set(ks)):
        for n in sorted(set(ns)):
            try:
                want.append(expected_row(n, k))
            except DomainError:
                continue
    assert bounds_table(ks, ns) == want
    for row in want:
        assert bounds_table([row.k], [row.n])[0] == row
        assert row.chain_ok  # the chain is a theorem: every valid point holds


# each side of every level change up to level 20 (k = 6 is below the domain)
LEVEL_EDGE_KS = sorted({k for i in range(1, 21) for k in (3 * 2**i, 3 * 2**i + 1)} - {6})


def test_bounds_table_starts_at_the_block_order():
    orders = {k: moon_moser_order(choose_level(k)) for k in LEVEL_EDGE_KS}
    for k, b in orders.items():
        assert bounds_table([k], [b - 1, b, b + 1]) == [expected_row(b, k), expected_row(b + 1, k)]
        with pytest.raises(DomainError, match=f"n={b - 1} below minimum {b} for k={k} "):
            verify_inequality_chain(b - 1, k)
    # one call over all of them: each k starts at its own b in the shared n list
    ns = sorted({n for b in orders.values() for n in (b - 1, b, b + 1)})
    want = [expected_row(n, k) for k, b in orders.items() for n in ns if n >= b]
    assert bounds_table(LEVEL_EDGE_KS, ns) == want


@settings(max_examples=200, deadline=None)
@given(st.integers(7, 10**6), st.integers(4, 10**30))
def test_chain_verdicts_are_the_exact_integer_forms(k, n):
    try:
        plan = block_plan(n, k)
    except DomainError:
        return
    rep = verify_inequality_chain(n, k)
    assert rep.i == plan.i and rep.exact_edges == exact_edge_count(n, k)
    assert rep.link1_ok == ((plan.s - 1) * (3**plan.i + 1) <= 2 * (n - 2))
    assert rep.link2_ok == (k <= 3 * 2 ** (plan.i + 1))
    assert rep.link3_ok == (n >= 2)
    assert rep.ok


@pytest.mark.parametrize("ks", [[3], [6], [3, 4, 5, 6], [6, 7, 8]])
def test_bounds_table_rejects_k_below_7(ks):
    with pytest.raises(DomainError, match=f"got {min(ks)}"):
        bounds_table(ks, [100])
    with pytest.raises(DomainError):
        bounds_table([min(ks)], [100])[0]


@pytest.mark.parametrize("lo,hi", [(0, 100), (-3, 100), (10, 0)])
def test_log_spaced_rejects_nonpositive_n(lo, hi):
    with pytest.raises(DomainError):
        log_spaced(lo, hi, 5)


def test_log_spaced_grid():
    assert log_spaced(10, 10000, 4) == [10, 100, 1000, 10000]
    assert log_spaced(7, 10**9, 1) == [7]
    with pytest.raises(DomainError):
        log_spaced(10, 10**400, 3)
    for count in (1, 3):  # a reversed range is refused, not read forwards
        with pytest.raises(DomainError, match="empty n range"):
            log_spaced(10, 5, count)


def test_n_or_k_beyond_the_float_range_is_a_domain_error():
    for f in (thm2_lower, verify_inequality_chain, lambda n, k: bounds_table([k], [n])[0]):
        with pytest.raises(DomainError, match="float range"):
            f(10**400, 13)
        with pytest.raises(DomainError, match="float range"):
            f(10**400, 2**601)
    with pytest.raises(DomainError, match="float range"):
        thm2_lower(20, 2**601)
    with pytest.raises(DomainError, match="float range"):
        bounds_table([13], [20, 10**400])
    # at the limits every float column is still finite
    for r in bounds_table([7, 2**600], [2**1000]):
        assert all(map(math.isfinite, (r.thm2_lower, r.conj1_value)))
    c = verify_inequality_chain(2**1000, 2**600)
    assert c.ok and all(map(math.isfinite, (c.link1_value, c.link2_value, c.link3_value)))


def test_conj1_value_beyond_the_float_range_is_a_domain_error():
    with pytest.raises(DomainError, match="float range"):
        conj1_value(10**400, 13)
    assert math.isfinite(conj1_value(2**1000, 13))


def test_conj2_form_beyond_the_float_range_is_a_domain_error():
    with pytest.raises(DomainError, match="float range"):
        conj2_form(10**400, 13, 1.0)
    assert math.isfinite(conj2_form(2**1000, 2**600, 1.0))


def test_lan_song_slope_beyond_the_float_range_is_a_domain_error():
    with pytest.raises(DomainError, match="float range"):
        lan_song_slope(10**700)
    assert math.isfinite(lan_song_slope(2**600))


# -- light records and the per-k fact cache -----------------------------------


@settings(max_examples=200, deadline=None)
@given(st.integers(7, 10**6), st.data())
def test_chain_link_values_are_the_docstring_formulas(k, data):
    i = choose_level(k)
    n = data.draw(st.integers(moon_moser_order(i), 10**30))
    rep = verify_inequality_chain(n, k)
    assert rep.link1_value == 3 * n - 6 - 2 * (n - 2) / (3**i + 1)
    assert rep.link2_value == 3 * n - 6 - 6 * (n - 2) / (3 ** math.log2(k / 3) + 3)
    assert rep.link3_value == thm2_lower(n, k)


def test_records_are_immutable():
    chain, row = verify_inequality_chain(100, 13), bounds_table([13], [100])[0]
    for record, name in ((chain, "link1_ok"), (chain, "n"), (row, "chain_ok"), (row, "s")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert chain == verify_inequality_chain(100, 13) and row == bounds_table([13], [100])[0]
    assert chain.link1_ok and row.s == 20


def test_level_fact_cache_eviction_keeps_results():
    n = 10**12
    first = verify_inequality_chain(n, 7)
    first_row = bounds_table([7], [n])[0]
    size = bounds._level_facts.cache_info().maxsize
    for k in range(8, 8 + size + 10):  # more distinct k than the cache holds
        verify_inequality_chain(n, k)
    assert bounds._level_facts.cache_info().currsize == size
    assert verify_inequality_chain(n, 7) == first
    assert bounds_table([7], [n])[0] == first_row
    assert bounds._level_facts(7) == bounds._level_facts.__wrapped__(7)


def test_log_spaced_refuses_more_samples_than_the_row_limit():
    with pytest.raises(ResourceError, match="limit"):
        log_spaced(10, 100, bounds.MAX_BOUNDS_ROWS + 1)
