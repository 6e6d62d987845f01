"""Exact longest-cycle / longest-path search with certificates, and the
block-wise circumference certifier for the glued construction.

All searches are exhaustive branch-and-bound over simple paths.  Pruning is
restricted to admissible rules:

* start-vertex symmetry breaking: cycles are enumerated by their minimum
  vertex, so a search rooted at v only visits vertices > v (every cycle is
  still found exactly once, from its minimum vertex);
* count bound: a path on p vertices can gain at most one vertex per
  extension step, so if p + (unvisited vertices reachable from the current
  endpoint) <= incumbent, no extension beats the incumbent;
* closure/reachability: a cycle must return to its root and a path must end
  at its target, so branches from which the root/target cannot be reached
  through unvisited vertices are dead.

None of these can discard an extension that would strictly beat the
incumbent, so the returned optimum is exact whenever the budget holds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from .construction import ExtremalConstruction, moon_moser, truncated_moon_moser
from .embedding import EmbeddedGraph, GraphStructureError, triangle, delete_edge


@dataclass(frozen=True)
class SearchBudget:
    node_limit: int = 10**8
    time_limit: float = 600.0


DEFAULT_BUDGET = SearchBudget()


class CertificateError(ValueError):
    """A certificate that does not validate against its graph."""


@dataclass(frozen=True)
class CycleCertificate:
    """Cyclic vertex sequence witnessing a cycle; length == len(vertices)."""

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices)

    def validate(self, g: EmbeddedGraph) -> None:
        vs = self.vertices
        if len(vs) < 3:
            raise CertificateError("cycle needs at least 3 vertices")
        if len(set(vs)) != len(vs):
            raise CertificateError("repeated vertex in cycle")
        for i, u in enumerate(vs):
            v = vs[(i + 1) % len(vs)]
            if not g.has_edge(u, v):
                raise CertificateError(f"{u}-{v} is not an edge")

    def canonical(self) -> "CycleCertificate":
        """Rotate to start at the minimum vertex; orient toward the smaller
        of its two neighbors on the cycle."""
        vs = self.vertices
        i = vs.index(min(vs))
        fwd = vs[i:] + vs[:i]
        rev = (fwd[0],) + tuple(reversed(fwd[1:]))
        return CycleCertificate(min(fwd, rev))


@dataclass(frozen=True)
class PathCertificate:
    """Vertex sequence from one endpoint to the other; length = edge count."""

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    def validate(self, g: EmbeddedGraph) -> None:
        vs = self.vertices
        if len(set(vs)) != len(vs):
            raise CertificateError("repeated vertex in path")
        for u, v in zip(vs, vs[1:]):
            if not g.has_edge(u, v):
                raise CertificateError(f"{u}-{v} is not an edge")


@dataclass(frozen=True)
class SearchOutcome:
    """Best certificate found; conclusive=False means the budget ran out and
    the certificate is only a lower-bound witness, never a wrong answer."""

    certificate: Optional[CycleCertificate | PathCertificate]
    conclusive: bool
    nodes: int

    @property
    def length(self) -> int:
        return self.certificate.length if self.certificate else 0


class _BudgetExceeded(Exception):
    pass


class _Searcher:
    def __init__(self, g: EmbeddedGraph, budget: SearchBudget):
        self.adj = [tuple(sorted(g.rotations[v])) for v in range(g.n)]
        self.n = g.n
        self.budget = budget
        self.nodes = 0
        self.deadline = time.monotonic() + budget.time_limit

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes >= self.budget.node_limit:
            raise _BudgetExceeded
        if self.nodes % 4096 == 0 and time.monotonic() > self.deadline:
            raise _BudgetExceeded

    def reachable(self, src: int, visited: list[bool], floor: int) -> list[int]:
        """Unvisited vertices > floor reachable from src (src excluded)."""
        seen = set()
        stack = [src]
        while stack:
            v = stack.pop()
            for u in self.adj[v]:
                if u > floor and not visited[u] and u not in seen:
                    seen.add(u)
                    stack.append(u)
        return list(seen)


def longest_cycle(
    g: EmbeddedGraph, budget: SearchBudget = DEFAULT_BUDGET
) -> SearchOutcome:
    """Exact maximum-length cycle with certificate."""
    s = _Searcher(g, budget)
    best: list[Optional[tuple[int, ...]]] = [None]
    best_len = [0]
    path: list[int] = []
    visited = [False] * s.n

    def extend(v: int, root: int) -> None:
        s.tick()
        if root in s.adj[v] and len(path) >= 3 and len(path) > best_len[0]:
            best_len[0] = len(path)
            best[0] = tuple(path)
        reach = s.reachable(v, visited, root)
        if len(path) + len(reach) <= best_len[0]:
            return
        # any deeper cycle must close back at the root from a reachable vertex
        root_adj = set(s.adj[root])
        if not any(u in root_adj for u in reach):
            return
        for u in s.adj[v]:
            if u > root and not visited[u]:
                visited[u] = True
                path.append(u)
                extend(u, root)
                path.pop()
                visited[u] = False

    conclusive = True
    try:
        for root in range(s.n):
            if len(s.adj[root]) < 2:
                continue
            visited[root] = True
            path.append(root)
            extend(root, root)
            path.pop()
            visited[root] = False
    except _BudgetExceeded:
        conclusive = False

    cert = (
        CycleCertificate(best[0]).canonical() if best[0] is not None else None
    )
    if cert is not None:
        cert.validate(g)
    return SearchOutcome(cert, conclusive, s.nodes)


def longest_path_between(
    g: EmbeddedGraph, a: int, b: int, budget: SearchBudget = DEFAULT_BUDGET
) -> SearchOutcome:
    """Exact maximum-length simple path from a to b, with certificate."""
    if a == b:
        raise GraphStructureError("path endpoints must differ")
    s = _Searcher(g, budget)
    best: list[Optional[tuple[int, ...]]] = [None]
    best_len = [-1]
    path = [a]
    visited = [False] * s.n
    visited[a] = True

    def extend(v: int) -> None:
        s.tick()
        if v == b:
            if len(path) - 1 > best_len[0]:
                best_len[0] = len(path) - 1
                best[0] = tuple(path)
            return  # b may appear only as the endpoint
        reach = s.reachable(v, visited, -1)
        if b not in reach:
            return
        if (len(path) - 1) + len(reach) <= best_len[0]:
            return
        for u in s.adj[v]:
            if not visited[u]:
                visited[u] = True
                path.append(u)
                extend(u)
                path.pop()
                visited[u] = False

    conclusive = True
    try:
        extend(a)
    except _BudgetExceeded:
        conclusive = False

    cert = PathCertificate(best[0]) if best[0] is not None else None
    if cert is not None:
        cert.validate(g)
    return SearchOutcome(cert, conclusive, s.nodes)


def has_cycle_of_length(
    g: EmbeddedGraph, k: int, budget: SearchBudget = DEFAULT_BUDGET
) -> SearchOutcome:
    """Certificate of a cycle of length exactly k, or None if none exists."""
    if k < 3:
        raise GraphStructureError(f"cycle length must be >= 3, got {k}")
    if k > g.n:
        return SearchOutcome(None, True, 0)
    s = _Searcher(g, budget)
    found: list[Optional[tuple[int, ...]]] = [None]
    path: list[int] = []
    visited = [False] * s.n

    def extend(v: int, root: int) -> bool:
        s.tick()
        if len(path) == k:
            if root in s.adj[v]:
                found[0] = tuple(path)
                return True
            return False
        reach = s.reachable(v, visited, root)
        if len(path) + len(reach) < k:
            return False
        root_adj = set(s.adj[root])
        if not any(u in root_adj for u in reach):
            return False
        for u in s.adj[v]:
            if u > root and not visited[u]:
                visited[u] = True
                path.append(u)
                if extend(u, root):
                    return True
                path.pop()
                visited[u] = False
        return False

    conclusive = True
    try:
        for root in range(s.n):
            visited[root] = True
            path.append(root)
            if extend(root, root):
                break
            path.pop()
            visited[root] = False
    except _BudgetExceeded:
        conclusive = False

    cert = (
        CycleCertificate(found[0]).canonical() if found[0] is not None else None
    )
    if cert is not None:
        cert.validate(g)
        if cert.length != k:
            raise CertificateError("internal: wrong cycle length")
    return SearchOutcome(cert, conclusive, s.nodes)


@dataclass(frozen=True)
class BlockData:
    """Exact quantities for one distinct block shape."""

    size: int
    count: int
    cycle_length: int
    path_length: int
    cycle_conclusive: bool
    path_conclusive: bool
    lemma_values_used: bool


@dataclass(frozen=True)
class FreenessReport:
    k: int
    mode: str  # "brute" | "structural"
    circumference: int
    witness: Optional[CycleCertificate]
    verdict: bool
    conclusive: bool
    lemma_backed: bool
    blocks: tuple[BlockData, ...] = field(default_factory=tuple)


def _lemma_cycle_value(i: int) -> int:
    # closed form for the full level-i block; level 1 (K_4) handled directly
    return 4 if i == 1 else 7 * 2 ** (i - 2)


def _lemma_path_value(i: int) -> int:
    return 3 * 2 ** (i - 1)


def certify_ck_free_structural(
    h: ExtremalConstruction,
    budget: SearchBudget = DEFAULT_BUDGET,
    lemma_backed: bool = False,
) -> FreenessReport:
    """Exact circumference of H from block-sized searches only.

    The hub pair {x, y} is a 2-cut, so any cycle lies inside one block
    (counted by the block graphs' longest cycles, edge xy included) or
    crosses exactly two blocks (an x-y path in each, edge xy unused).  The
    circumference is therefore max(L1, p1 + p2) with p1, p2 the two largest
    x-y path lengths taken from distinct blocks.

    With lemma_backed=True, a block search that exhausts its budget falls
    back to the closed-form values 7*2^(i-2) and 3*2^(i-1); the report is
    then flagged as trusting those formulas rather than certifying them.
    """
    plan = h.plan
    s = plan.s

    shapes: list[tuple[int, int]] = []  # (block vertex count, multiplicity)
    if s > 1:
        shapes.append((plan.block_size, s - 1))
        shapes.append((plan.v_s, 1))
    else:
        shapes.append((plan.v_s, 1))

    blocks: list[BlockData] = []
    conclusive = True
    lemma_used = False
    witnesses: dict[int, tuple[CycleCertificate, Optional[PathCertificate]]] = {}
    cycle_certs: list[tuple[int, Optional[CycleCertificate], int]] = []
    path_lens: list[tuple[int, int, Optional[PathCertificate], int]] = []

    for shape_idx, (size, count) in enumerate(shapes):
        if size == 3:
            block = triangle()
        elif size == plan.block_size:
            block = moon_moser(plan.i).graph
        else:
            block = truncated_moon_moser(plan.i, size).graph
        minus = delete_edge(block, 0, 1)

        cyc = longest_cycle(block, budget)
        cyc_len, cyc_ok = cyc.length, cyc.conclusive
        pat = longest_path_between(minus, 0, 1, budget)
        pat_len, pat_ok = pat.length, pat.conclusive
        used_lemma = False
        if not cyc_ok and lemma_backed and size == plan.block_size:
            cyc_len, cyc_ok, used_lemma = _lemma_cycle_value(plan.i), True, True
        if not pat_ok and lemma_backed and size == plan.block_size:
            pat_len, pat_ok, used_lemma = _lemma_path_value(plan.i), True, True
        lemma_used = lemma_used or used_lemma
        conclusive = conclusive and cyc_ok and pat_ok

        blocks.append(
            BlockData(size, count, cyc_len, pat_len, cyc_ok, pat_ok, used_lemma)
        )
        cycle_certs.append((cyc_len, cyc.certificate if not used_lemma else None, shape_idx))
        path_lens.append((pat_len, count, pat.certificate if not used_lemma else None, shape_idx))

    best_single = max(cycle_certs, key=lambda t: t[0])

    best_pair: Optional[tuple[int, tuple, tuple]] = None
    if s >= 2:
        pool: list[tuple[int, Optional[PathCertificate], int]] = []
        for length, count, cert, idx in path_lens:
            for _ in range(min(count, 2)):
                pool.append((length, cert, idx))
        pool.sort(key=lambda t: -t[0])
        p1, p2 = pool[0], pool[1]
        best_pair = (p1[0] + p2[0], p1, p2)

    if best_pair is not None and best_pair[0] > best_single[0]:
        circumference = best_pair[0]
        witness = _two_block_witness(h, best_pair)
    else:
        circumference = best_single[0]
        witness = _single_block_witness(h, best_single)

    if witness is not None:
        witness.validate(h.graph)

    return FreenessReport(
        k=plan.k,
        mode="structural",
        circumference=circumference,
        witness=witness,
        verdict=(circumference < plan.k) and conclusive,
        conclusive=conclusive,
        lemma_backed=lemma_used,
        blocks=tuple(blocks),
    )


def _blocks_of_shape(h: ExtremalConstruction, shape_idx: int) -> list[int]:
    """Indices of blocks (0-based) having the given distinct shape."""
    s = h.plan.s
    if s == 1:
        return [0]
    return list(range(s - 1)) if shape_idx == 0 else [s - 1]


def _map_into(h: ExtremalConstruction, j: int, vs: tuple[int, ...]) -> tuple[int, ...]:
    m = h.block_maps[j]
    return tuple(m[v] for v in vs)


def _single_block_witness(
    h: ExtremalConstruction, best: tuple[int, Optional[CycleCertificate], int]
) -> Optional[CycleCertificate]:
    _, cert, shape_idx = best
    if cert is None:
        return None
    j = _blocks_of_shape(h, shape_idx)[0]
    return CycleCertificate(_map_into(h, j, cert.vertices)).canonical()


def _two_block_witness(
    h: ExtremalConstruction, pair: tuple[int, tuple, tuple]
) -> Optional[CycleCertificate]:
    _, p1, p2 = pair
    if p1[1] is None or p2[1] is None:
        return None
    j1 = _blocks_of_shape(h, p1[2])[0]
    js = _blocks_of_shape(h, p2[2])
    j2 = js[0] if js[0] != j1 else js[1]
    a = _map_into(h, j1, p1[1].vertices)  # x .. y in H ids
    b = _map_into(h, j2, p2[1].vertices)
    if a[0] != h.x:
        a = tuple(reversed(a))
    if b[0] != h.x:
        b = tuple(reversed(b))
    cycle = a + tuple(reversed(b[1:-1]))
    return CycleCertificate(cycle).canonical()


def certify_brute(
    g: EmbeddedGraph, k: int, budget: SearchBudget = DEFAULT_BUDGET
) -> FreenessReport:
    """Whole-graph exhaustive certification that g has no k-cycle (desk
    scale only).  The exact-k search runs only when the circumference
    search does not settle the verdict on its own."""
    if k < 3:
        raise GraphStructureError(f"cycle length must be >= 3, got {k}")
    cyc = longest_cycle(g, budget)
    if cyc.conclusive and cyc.length < k:
        verdict, conclusive = True, True
    else:
        hit = has_cycle_of_length(g, k, budget)
        verdict = hit.conclusive and hit.certificate is None
        conclusive = cyc.conclusive and hit.conclusive
    return FreenessReport(
        k=k,
        mode="brute",
        circumference=cyc.length,
        witness=cyc.certificate,
        verdict=verdict,
        conclusive=conclusive,
        lemma_backed=False,
    )


def certify_ck_free_brute(
    h: ExtremalConstruction, budget: SearchBudget = DEFAULT_BUDGET
) -> FreenessReport:
    """Whole-graph exhaustive certification of H(n, k) (desk scale only)."""
    return certify_brute(h.graph, h.plan.k, budget)
