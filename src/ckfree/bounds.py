"""Closed-form edge bounds, the exact edge-count identity, and the
inequality chain linking the construction's edge count to the general
lower-bound formula.

Every verdict is an exact integer fact.  The chain
3n - 6 - (s-1) >= link 1 >= link 2 >= link 3 reduces, on its subtracted
terms, to

    link 1: (s-1)(3^i + 1) <= 2(n-2);
    link 2: k <= 3 * 2^(i+1), which holds with equality at k = 3 * 2^(i+1);
    link 3: n >= 2, since (n-2)/(a+3) <= n/a for every a > 0.

The real-valued columns (thm2_lower, conj1, the slope and the link values)
are evaluated in double precision and only reported; no verdict compares
them.  Everything that depends on k alone (the level, the block order,
3^i + 1, the link-2 verdict and the two powers of k) is one cached record,
read by `verify_inequality_chain` and `bounds_table` alike, so each (n, k)
point costs one `_plan_counts` call plus its float columns, written inline.
`ChainReport` and `BoundsRow` are named tuples, built with `tuple.__new__`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from itertools import groupby
from operator import itemgetter
from typing import Iterable, NamedTuple

from .construction import (
    DomainError,
    ResourceError,
    _plan_counts,
    block_plan,
    choose_level,
    moon_moser_order,
)

LOG2_3 = math.log2(3)
THM2_COEFF = 6 * (3**LOG2_3)  # the constant of thm2_lower's subtracted term

# Largest table `ckfree bounds` writes and largest log-spaced n sample.
MAX_BOUNDS_ROWS = 10**7

# The float columns scale n by less than 64 and raise k to the power log2(3),
# so below these limits every one of them is finite.
FLOAT_N_MAX = 2**1000
FLOAT_K_MAX = 2**600


def _check_float_range(n: int, k: int = 0) -> None:
    if n > FLOAT_N_MAX or k > FLOAT_K_MAX:
        raise DomainError(
            "n or k beyond the float range of the bound columns "
            "(need n <= 2**1000 and k <= 2**600)"
        )


def thm2_lower(n: int, k: int) -> float:
    """General lower-bound formula 3n - 6 - 6 * 3^log2(3) * n / k^log2(3)."""
    if k < 7 or n < 1:
        raise DomainError(f"need k >= 7 and n >= 1, got n={n}, k={k}")
    _check_float_range(n, k)
    return 3 * n - 6 - THM2_COEFF * n / (k**LOG2_3)


def conj1_value(n: int, k: int) -> float:
    """Conjectured (and disproved) upper bound 3n - 6 - (3n + 6) / k."""
    _check_float_range(n, k)
    return 3 * n - 6 - (3 * n + 6) / k


def conj2_form(n: int, k: int, d: float) -> float:
    """Conjectured upper-bound family 3n - 6 - d*n / k^log2(3); d is a free
    parameter, never asserted."""
    _check_float_range(n, k)
    return 3 * n - 6 - d * n / (k**LOG2_3)


def lan_song_slope(k: int) -> float:
    """Per-n coefficient of the earlier block construction's bound.

    The additive constant in that bound is unspecified, so only the slope is
    exposed; defined for k >= 11.
    """
    if k < 11:
        raise DomainError(f"slope defined for k >= 11, got {k}")
    _check_float_range(0, k)
    return 3 - (3 - 2 / (k - 2)) / (k - 6 + (k - 1) // 2)


def exact_edge_count(n: int, k: int) -> int:
    """Exact edge count 3n - 6 - (s - 1) of the glued construction."""
    plan = block_plan(n, k)
    return 3 * n - 6 - (plan.s - 1)


class _KFacts(NamedTuple):
    """What the chain and the table need of k alone."""

    i: int  # level
    b: int  # block order
    tri: int  # 3^i + 1
    link2_ok: bool  # k <= 3 * 2^(i+1)
    k_pow: float  # k ** log2(3)
    link2_den: float  # 3 ** log2(k/3) + 3


@lru_cache(maxsize=1024)
def _level_facts(k: int) -> _KFacts:
    """The per-k facts; the caller has checked k's float range."""
    i = choose_level(k)
    return _KFacts(
        i,
        moon_moser_order(i),
        3**i + 1,
        k <= 3 * 2 ** (i + 1),
        k**LOG2_3,
        3 ** math.log2(k / 3) + 3,
    )


class ChainReport(NamedTuple):
    """The four chain values and each link's verdict.

    The verdicts are the exact integer forms of the module docstring; the
    float link values are reported, never compared.
    """

    n: int
    k: int
    i: int
    exact_edges: int
    link1_value: float  # 3n - 6 - 2(n-2)/(3^i + 1)
    link2_value: float  # 3n - 6 - 6(n-2)/(3^log2(k/3) + 3)
    link3_value: float  # thm2_lower(n, k)
    link1_ok: bool
    link2_ok: bool
    link3_ok: bool

    @property
    def ok(self) -> bool:
        return self.link1_ok and self.link2_ok and self.link3_ok


def verify_inequality_chain(n: int, k: int) -> ChainReport:
    """Check exact_edges >= link1 >= link2 >= link3 in exact arithmetic.

    link3_value is thm2_lower(n, k), evaluated by the same expression.
    """
    if n > FLOAT_N_MAX or k > FLOAT_K_MAX:
        _check_float_range(n, k)
    i, b, tri, link2_ok, k_pow, link2_den = _level_facts(k)
    s = _plan_counts(n, k, i, b)[0]
    base = 3 * n - 6
    return tuple.__new__(ChainReport, (
        n,
        k,
        i,
        base - (s - 1),
        base - 2 * (n - 2) / tri,
        base - 6 * (n - 2) / link2_den,
        base - THM2_COEFF * n / k_pow,
        (s - 1) * tri <= 2 * (n - 2),  # links 1-3 of the module docstring
        link2_ok,
        n >= 2,
    ))


class BoundsRow(NamedTuple):
    n: int
    k: int
    i: int
    s: int
    exact_edges: int
    thm2_lower: float
    conj1_value: float
    lan_song_slope: float | None
    three_n_minus_6: int
    chain_ok: bool


def bounds_table(k_values: Iterable[int], n_values: Iterable[int]) -> list[BoundsRow]:
    """Rows for every valid (n, k) pair of the grids, sorted by (k, n).

    Pairs with n below the construction's minimum for k are skipped; a k
    below 7 raises DomainError.  The float columns keep the expressions of
    thm2_lower and conj1_value, so the values are bit-identical to calling
    those functions.
    """
    ns = sorted(set(n_values))
    rows = []
    for k in sorted(set(k_values)):
        _check_float_range(0, k)
        i, b, tri, link2_ok, k_pow, _ = _level_facts(k)
        slope = lan_song_slope(k) if k >= 11 else None
        if ns:
            # an n beyond the float range is above every b, so it would get a row
            _check_float_range(ns[-1])
        for n in ns[bisect_left(ns, b):]:
            s = _plan_counts(n, k, i, b)[0]
            base = 3 * n - 6
            rows.append(tuple.__new__(BoundsRow, (
                n,
                k,
                i,
                s,
                base - (s - 1),
                base - THM2_COEFF * n / k_pow,
                base - (3 * n + 6) / k,
                slope,
                base,
                (s - 1) * tri <= 2 * (n - 2) and link2_ok and n >= 2,  # links 1-3
            )))
    return rows


def log_spaced(n_min: int, n_max: int, count: int) -> list[int]:
    """Sorted distinct integers rounded from count log-spaced points of
    [n_min, n_max]; just [n_min] when count <= 1."""
    if n_min < 1 or n_max < 1:
        raise DomainError(f"a log-spaced n range needs n >= 1, got [{n_min}, {n_max}]")
    if n_min > n_max:
        raise DomainError(f"empty n range: {n_min} > {n_max}")
    if count > MAX_BOUNDS_ROWS:
        raise ResourceError(f"{count} log-spaced n values, limit is {MAX_BOUNDS_ROWS}")
    if count <= 1:
        return [n_min]
    lo, hi = math.log(n_min), math.log(n_max)
    try:
        return sorted({round(math.exp(lo + (hi - lo) * t / (count - 1))) for t in range(count)})
    except OverflowError:
        raise DomainError(f"n range [{n_min}, {n_max}] exceeds the float range") from None


CSV_HEADER = "n,k,i,s,exact_edges,thm2_lower,conj1,lan_song_slope,chain_ok"


def bounds_csv(rows: list[BoundsRow]) -> str:
    """Fixed-schema CSV; floats printed with 6 decimals, the slope column is
    empty for k < 11."""
    lines = [CSV_HEADER]
    # k, i and the slope are one run's constants: write them into its template
    for (k, i, slope), same in groupby(rows, itemgetter(1, 2, 7)):
        slope_text = "" if slope is None else f"{slope:.6f}"
        template = f"%s,{k},{i},%s,%s,%.6f,%.6f,{slope_text},%s"
        lines += [
            template % (n, s, exact_edges, thm2, conj1, "true" if chain_ok else "false")
            for n, _, _, s, exact_edges, thm2, conj1, _, _, chain_ok in same
        ]
    lines.append("")  # the trailing newline
    return "\n".join(lines)
