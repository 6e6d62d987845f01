"""Exact longest-cycle / longest-path search with certificates, and the
block-wise circumference certifier for the glued construction.

One iterative branch-and-bound kernel, `_search`, serves three goals: the
longest cycle, a cycle of exactly k vertices (stopping at the first), and
the longest a-b path.  `longest_cycle`, `has_cycle_of_length` and
`longest_path_between` are thin wrappers around it.  Each vertex's
neighbourhood is one int bitmask, built once per search, and so is the set
of vertices the current path may still take.  An explicit stack holds, for
each vertex on the path, the bitmask of children still to try; children are
tried lowest bit first, i.e. in ascending order.  Path length is therefore
bounded by memory, not by the interpreter's recursion limit, and graphs
above MAX_SEARCH_VERTICES are refused before any bitmask is built.

Pruning is restricted to admissible rules:

* start-vertex symmetry breaking: cycles are enumerated by their minimum
  vertex, so a search rooted at v only visits vertices > v (every cycle is
  still found exactly once, from its minimum vertex);
* count bound: a path on p vertices can gain at most one vertex per
  extension step, so if p + (unvisited vertices reachable from the current
  endpoint) <= incumbent, no extension beats the incumbent (the exact-k
  goal uses k - 1 as its fixed incumbent);
* closure/reachability: a cycle must return to its root and a path must end
  at its target, so branches from which the root/target cannot be reached
  through unvisited vertices are dead.

None of these can discard an extension that would strictly beat the
incumbent, so the returned optimum is exact whenever the budget holds.

The reachable set is found by a bitset flood fill and feeds only the last
two tests.  Both tests are monotone in the set, so the fill stops as soon as
it has met a root neighbour (or the target) and counted more vertices than
the count bound needs: filling further could only add vertices, and the
node would be kept all the same.  Before the fill, the count bound is also
tried on all allowed vertices, an upper bound on the reachable ones, so it
cuts nothing the exact test would keep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from .construction import ExtremalConstruction, ResourceError, block_pieces
from .embedding import EmbeddedGraph, GraphStructureError


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


MAX_SEARCH_VERTICES = 16_384  # adjacency bitmasks of about n^2/16 bytes

_LONGEST_CYCLE, _CYCLE_OF_LENGTH, _LONGEST_PATH = range(3)


def _search(
    g: EmbeddedGraph, budget: SearchBudget, goal: int, k: int = 0, a: int = 0, b: int = -1
) -> tuple[Optional[tuple[int, ...]], bool, int]:
    """(best vertex sequence or None, conclusive, nodes) for one goal.

    `best` counts vertices: the longest cycle or path so far, or k - 1 for
    the exact-k goal, which stops at its first hit.  `allowed` holds the
    vertices the current path may still take; `close` holds the vertices a
    path must reach to close (root neighbours, or the target b).  Goals
    that do not use k or b leave them at 0 and -1, which no node matches.
    """
    n = g.n
    if n > MAX_SEARCH_VERTICES:
        raise ResourceError(
            f"exact search is limited to {MAX_SEARCH_VERTICES} vertices, got {n}"
        )
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
    best_seq: Optional[tuple[int, ...]] = None
    nodes = 0
    for root in (a,) if goal == _LONGEST_PATH else range(n):
        if goal == _LONGEST_PATH:
            allowed, close = full ^ (1 << a), 1 << b
        elif cycles and len(g.rotations[root]) < 2:
            continue
        else:  # a cycle is found once, from its minimum vertex
            allowed, close = full >> (root + 1) << (root + 1), adj[root]
        v, path, stack = root, [root], []  # stack: children left per open vertex
        while True:
            nodes += 1
            if nodes >= limit or (not nodes & 4095 and time.monotonic() > deadline):
                return best_seq, False, nodes
            depth = len(path)
            cand = 0
            if v == b:  # the target may appear only as the endpoint
                if depth > best:
                    best, best_seq = depth, tuple(path)
            elif depth == k:  # k is 0 unless the goal is an exact-k cycle
                if close >> v & 1:
                    return tuple(path), True, nodes
            else:
                if cycles and depth > best and depth >= 3 and close >> v & 1:
                    best, best_seq = depth, tuple(path)
                need = best - depth  # the reachable count must exceed this
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
            while not cand:  # backtrack to the deepest vertex with a child left
                if not stack:
                    break
                allowed ^= 1 << path.pop()
                cand = stack.pop()
            else:  # descend into the lowest remaining child
                low = cand & -cand
                stack.append(cand ^ low)
                allowed ^= low
                v = low.bit_length() - 1
                path.append(v)
                continue
            break
    return best_seq, True, nodes


def _cycle_certificate(
    g: EmbeddedGraph, seq: Optional[tuple[int, ...]]
) -> Optional[CycleCertificate]:
    if seq is None:
        return None
    cert = CycleCertificate(seq).canonical()
    cert.validate(g)
    return cert


def longest_cycle(
    g: EmbeddedGraph, budget: SearchBudget = DEFAULT_BUDGET
) -> SearchOutcome:
    """Exact maximum-length cycle with certificate."""
    seq, conclusive, nodes = _search(g, budget, _LONGEST_CYCLE)
    return SearchOutcome(_cycle_certificate(g, seq), conclusive, nodes)


def longest_path_between(
    g: EmbeddedGraph, a: int, b: int, budget: SearchBudget = DEFAULT_BUDGET
) -> SearchOutcome:
    """Exact maximum-length simple path from a to b, with certificate."""
    if a == b:
        raise GraphStructureError("path endpoints must differ")
    if not (0 <= a < g.n and 0 <= b < g.n):
        raise GraphStructureError(f"path endpoints {a}, {b} outside 0..{g.n - 1}")
    seq, conclusive, nodes = _search(g, budget, _LONGEST_PATH, a=a, b=b)
    cert = PathCertificate(seq) if seq is not None else None
    if cert is not None:
        cert.validate(g)
    return SearchOutcome(cert, conclusive, nodes)


def has_cycle_of_length(
    g: EmbeddedGraph, k: int, budget: SearchBudget = DEFAULT_BUDGET
) -> SearchOutcome:
    """Certificate of a cycle of length exactly k, or None if none exists."""
    if k < 3:
        raise GraphStructureError(f"cycle length must be >= 3, got {k}")
    if k > g.n:
        return SearchOutcome(None, True, 0)
    seq, conclusive, nodes = _search(g, budget, _CYCLE_OF_LENGTH, k=k)
    cert = _cycle_certificate(g, seq)
    if cert is not None and cert.length != k:
        raise CertificateError("internal: wrong cycle length")
    return SearchOutcome(cert, conclusive, nodes)


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


def lemma_values(i: int) -> tuple[int, int]:
    """Closed-form (longest cycle, longest x-y path) of the full level-i
    block: (7 * 2^(i-2), 3 * 2^(i-1)), and (4, 3) for K_4 at level 1."""
    return (4 if i == 1 else 7 * 2 ** (i - 2)), 3 * 2 ** (i - 1)


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
    back to the closed-form values of `lemma_values`; the report is then
    flagged as trusting those formulas rather than certifying them.
    """
    plan = h.plan
    blocks: list[BlockData] = []
    conclusive = True
    lemma_used = False
    # (length, block-local certificate, block index): each shape's longest
    # cycle, and its longest x-y path once for each of its first two blocks
    cycles: list[tuple[int, Optional[CycleCertificate], int]] = []
    paths: list[tuple[int, Optional[PathCertificate], int]] = []

    for size, js in h.shapes:
        block, minus, _ = block_pieces(plan.i, size)
        cyc = longest_cycle(block, budget)
        pat = longest_path_between(minus, 0, 1, budget)
        cyc_len, cyc_ok, pat_len, pat_ok = cyc.length, cyc.conclusive, pat.length, pat.conclusive
        used_lemma = False
        if lemma_backed and size == plan.block_size:
            lemma_cycle, lemma_path = lemma_values(plan.i)
            if not cyc_ok:
                cyc_len, cyc_ok, used_lemma = lemma_cycle, True, True
            if not pat_ok:
                pat_len, pat_ok, used_lemma = lemma_path, True, True
        lemma_used = lemma_used or used_lemma
        conclusive = conclusive and cyc_ok and pat_ok

        blocks.append(
            BlockData(size, len(js), cyc_len, pat_len, cyc_ok, pat_ok, used_lemma)
        )
        cycles.append((cyc_len, None if used_lemma else cyc.certificate, js[0]))
        paths += [(pat_len, None if used_lemma else pat.certificate, j) for j in js[:2]]

    circumference, cert, j = max(cycles, key=lambda t: t[0])
    seq = None if cert is None else [h.vertex(j, v) for v in cert.vertices]
    if len(paths) >= 2:
        (len1, cert1, j1), (len2, cert2, j2) = sorted(paths, key=lambda t: -t[0])[:2]
        if len1 + len2 > circumference:
            circumference, seq = len1 + len2, None
            if cert1 is not None and cert2 is not None:
                # x .. y through block j1, then back from y to x through block j2
                seq = [h.vertex(j1, v) for v in cert1.vertices]
                seq += [h.vertex(j2, v) for v in cert2.vertices[-2:0:-1]]
    witness = None
    if seq is not None:
        witness = CycleCertificate(tuple(seq)).canonical()
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
