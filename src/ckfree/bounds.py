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
them.  Tables are built one k at a time: the level, the block order and the
powers of k are computed once per k, and each n costs one integer division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .construction import DomainError, _plan_counts, block_plan, choose_level, moon_moser_order

LOG2_3 = math.log2(3)

# The float columns scale n by less than 64 and raise k to the power log2(3),
# so below these limits every one of them is finite.
FLOAT_N_MAX = 2**1000
FLOAT_K_MAX = 2**600


def _check_float_range(n: int, k: int) -> None:
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
    return 3 * n - 6 - 6 * (3**LOG2_3) * n / (k**LOG2_3)


def conj1_value(n: int, k: int) -> float:
    """Conjectured (and disproved) upper bound 3n - 6 - (3n + 6) / k."""
    return 3 * n - 6 - (3 * n + 6) / k


def conj2_form(n: int, k: int, d: float) -> float:
    """Conjectured upper-bound family 3n - 6 - d*n / k^log2(3); d is a free
    parameter, never asserted."""
    return 3 * n - 6 - d * n / (k**LOG2_3)


def lan_song_slope(k: int) -> float:
    """Per-n coefficient of the earlier block construction's bound.

    The additive constant in that bound is unspecified, so only the slope is
    exposed; defined for k >= 11.
    """
    if k < 11:
        raise DomainError(f"slope defined for k >= 11, got {k}")
    return 3 - (3 - 2 / (k - 2)) / (k - 6 + (k - 1) // 2)


def exact_edge_count(n: int, k: int) -> int:
    """Exact edge count 3n - 6 - (s - 1) of the glued construction."""
    plan = block_plan(n, k)
    return 3 * n - 6 - (plan.s - 1)


def _level_facts(k: int) -> tuple[int, int, int, bool]:
    """Per-k chain facts: level i, block order b, 3^i + 1, and link 2."""
    i = choose_level(k)
    return i, moon_moser_order(i), 3**i + 1, k <= 3 * 2 ** (i + 1)


def _link1(n: int, s: int, three_i_plus_1: int) -> bool:
    """Link 1 on the subtracted terms: s-1 <= 2(n-2)/(3^i + 1)."""
    return (s - 1) * three_i_plus_1 <= 2 * (n - 2)


@dataclass(frozen=True)
class ChainReport:
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
    """Check exact_edges >= link1 >= link2 >= link3 in exact arithmetic."""
    _check_float_range(n, k)
    i, b, tri, link2_ok = _level_facts(k)
    s, _ = _plan_counts(n, k, i, b)
    base = 3 * n - 6
    return ChainReport(
        n=n,
        k=k,
        i=i,
        exact_edges=base - (s - 1),
        link1_value=base - 2 * (n - 2) / tri,
        link2_value=base - 6 * (n - 2) / (3 ** math.log2(k / 3) + 3),
        link3_value=thm2_lower(n, k),
        link1_ok=_link1(n, s, tri),
        link2_ok=link2_ok,
        link3_ok=n >= 2,
    )


@dataclass(frozen=True)
class BoundsRow:
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


def _row_builder(k: int) -> tuple[int, Callable[[int], BoundsRow]]:
    """(block order b, the row function for n >= b) of one k.

    Everything that depends on k alone is computed here once; the float
    columns keep the expressions of thm2_lower and conj1_value, so the
    values are bit-identical to calling those functions.
    """
    i, b, tri, link2_ok = _level_facts(k)
    _check_float_range(b, k)  # every row has n >= b
    thm2_coeff = 6 * (3**LOG2_3)
    k_pow = k**LOG2_3
    slope = lan_song_slope(k) if k >= 11 else None

    def row(n: int) -> BoundsRow:
        _check_float_range(n, k)
        s, _ = _plan_counts(n, k, i, b)
        base = 3 * n - 6
        return BoundsRow(
            n=n,
            k=k,
            i=i,
            s=s,
            exact_edges=base - (s - 1),
            thm2_lower=base - thm2_coeff * n / k_pow,
            conj1_value=base - (3 * n + 6) / k,
            lan_song_slope=slope,
            three_n_minus_6=base,
            chain_ok=_link1(n, s, tri) and link2_ok and n >= 2,
        )

    return b, row


def bounds_row(n: int, k: int) -> BoundsRow:
    return _row_builder(k)[1](n)


def bounds_table(k_values: Iterable[int], n_values: Iterable[int]) -> list[BoundsRow]:
    """Rows for every valid (n, k) pair of the grids, sorted by (k, n).

    Pairs with n below the construction's minimum for k are skipped; a k
    below 7 raises DomainError.
    """
    ns = sorted(set(n_values))
    rows = []
    for k in sorted(set(k_values)):
        b, row = _row_builder(k)
        rows.extend(row(n) for n in ns if n >= b)
    return rows


def log_spaced(n_min: int, n_max: int, count: int) -> list[int]:
    """Sorted distinct integers rounded from count log-spaced points of
    [n_min, n_max]; just [n_min] when count <= 1."""
    if n_min < 1 or n_max < 1:
        raise DomainError(f"a log-spaced n range needs n >= 1, got [{n_min}, {n_max}]")
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
    for r in rows:
        slope = f"{r.lan_song_slope:.6f}" if r.lan_song_slope is not None else ""
        lines.append(
            f"{r.n},{r.k},{r.i},{r.s},{r.exact_edges},"
            f"{r.thm2_lower:.6f},{r.conj1_value:.6f},{slope},"
            f"{'true' if r.chain_ok else 'false'}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ReferenceBound:
    name: str
    value: float
    min_n: int
    applicable: bool


def reference_upper_bounds(n: int) -> list[ReferenceBound]:
    """Known small-cycle upper-bound formulas, for context in reports."""
    if n < 4:
        raise DomainError(f"need n >= 4, got {n}")
    specs = [
        ("C4", (15 * n - 30) / 7, 4),
        ("C5", (12 * n - 33) / 5, 11),
        ("Theta4", (12 * n - 24) / 5, 4),
        ("Theta5", (5 * n - 10) / 2, 5),
        ("C6", (5 * n - 14) / 2, 18),
    ]
    return [
        ReferenceBound(name, value, min_n, n >= min_n)
        for name, value, min_n in specs
    ]
