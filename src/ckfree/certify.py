"""Exact longest cycles and paths with certificates, and the certifiers
of C_k-freeness built on them.

Graphs made of stacked triangulations glued at one edge's ends -- every
block of H(n, k), and H itself -- are solved exactly by the insertion-tree
DP of `ckfree.stacked`: `block_values` runs it on one block, and
`circumference` on any recognised graph.  That module is imported on first
use, and only by this one, so commands that never certify do not load it.
`circumference` is the one place that chooses between the DP and the
search, and `_verdict` the one place that turns a circumference into a
verdict, for `certify_graph` and `certify_ck_free_structural` alike.

Every other graph goes to one iterative branch-and-bound kernel, `_search`,
which serves three goals: the longest cycle, a cycle of exactly k vertices
(stopping at the first), and the longest a-b path.  `longest_cycle`,
`has_cycle_of_length` and `longest_path_between` are thin wrappers around
it.  Each vertex's neighbourhood is one int bitmask, built once per search,
and so is the set of vertices the current path may still take.  An
explicit stack holds, for each vertex on the path, the bitmask of children
still to try; children are tried lowest bit first, i.e. in ascending order.
Path length is therefore bounded by memory, not by the interpreter's
recursion limit, and graphs above MAX_SEARCH_VERTICES are refused before
any bitmask is built.

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

A forced move -- a descent into the only child a node kept -- carries the
parent's reached set, less the child, down to the child.  Every vertex the
parent reached was reached through that child, so the carried set is part
of the child's reachable set.  When it already meets a root neighbour (or
the target) and holds more vertices than the count bound needs, the child
is kept without a flood and passes the set on; otherwise the child floods
as usual.  Only decisions to keep skip the flood, and monotonicity makes
them the decisions the flood would make, so the search tree, node counts
and certificates are the same, and a long induced path costs one flood
instead of one per vertex.
"""

from __future__ import annotations

import time
from typing import NamedTuple, Optional

from .construction import DomainError, ExtremalConstruction, Layout, ResourceError, moon_moser
from .embedding import EmbeddedGraph, GraphStructureError


_Budget = NamedTuple("_Budget", [("node_limit", int), ("time_limit", float)])


class SearchBudget(_Budget):
    """Nodes and wall-clock seconds one search may spend.  A limit that no
    search could meet (below one node, or not a positive number of seconds,
    which includes nan) raises DomainError; time_limit=inf is no limit."""

    __slots__ = ()

    def __new__(cls, node_limit: int = 10**8, time_limit: float = 600.0) -> "SearchBudget":
        if not node_limit >= 1:
            raise DomainError(f"search node limit must be at least 1, got {node_limit}")
        if not time_limit > 0:
            raise DomainError(f"search time limit must be positive, got {time_limit}")
        return super().__new__(cls, node_limit, time_limit)

    @classmethod
    def _make(cls, iterable) -> "SearchBudget":
        # the named tuple's _make, and _replace through it, would skip __new__
        return cls(*_Budget._make(iterable))


DEFAULT_BUDGET = SearchBudget()


class CertificateError(ValueError):
    """A certificate that does not validate against its graph."""


class CycleCertificate(NamedTuple):
    """Cyclic vertex sequence witnessing a cycle; length == len(vertices)."""

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices)

    def canonical(self) -> "CycleCertificate":
        """Rotate to start at the minimum vertex; orient toward the smaller
        of its two neighbors on the cycle."""
        vs = self.vertices
        i = vs.index(min(vs))
        fwd = vs[i:] + vs[:i]
        rev = (fwd[0],) + tuple(reversed(fwd[1:]))
        return CycleCertificate(min(fwd, rev))

    @classmethod
    def checked(cls, g: EmbeddedGraph, seq, length: Optional[int] = None) -> "CycleCertificate":
        """The canonical form of the cycle `seq`, validated against g and,
        when `length` is given, checked to have that many vertices."""
        cert = cls(tuple(seq)).canonical()
        _check_walk(g, cert, closed=True, length=length)
        return cert


class PathCertificate(NamedTuple):
    """Vertex sequence from one endpoint to the other; length = edge count."""

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @classmethod
    def checked(cls, g: EmbeddedGraph, seq, a: int, b: int,
                length: Optional[int] = None) -> "PathCertificate":
        """The path `seq`, validated against g and checked to run from a to
        b and, when `length` is given, to have that many edges."""
        cert = cls(tuple(seq))
        _check_walk(g, cert, closed=False, length=length)
        if cert.vertices[:1] + cert.vertices[-1:] != (a, b):
            raise CertificateError(f"internal: path witness does not run from {a} to {b}")
        return cert


def _check_walk(g: EmbeddedGraph, cert, closed: bool, length: Optional[int] = None) -> None:
    """Raise CertificateError unless cert is a path in g with no repeated vertex,
    closed by an edge into a cycle of 3 or more if `closed`, of `length` if given."""
    vs = cert.vertices
    kind, unit = ("cycle", "vertices") if closed else ("path", "edges")
    if closed and len(vs) < 3:
        raise CertificateError("cycle needs at least 3 vertices")
    if len(set(vs)) != len(vs):
        raise CertificateError(f"repeated vertex in {kind}")
    for u, v in zip(vs, vs[1:] + vs[:1] if closed else vs[1:]):
        if not g.has_edge(u, v):
            raise CertificateError(f"{u}-{v} is not an edge")
    if length is not None and cert.length != length:
        raise CertificateError(f"internal: {kind} witness has {cert.length} {unit}, not {length}")


class SearchOutcome(NamedTuple):
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
        raise ResourceError(f"exact search is limited to {MAX_SEARCH_VERTICES} vertices, got {n}")
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
        held = 0  # reached set carried down a forced move, else 0
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
                    cand = adj[v] & allowed
                    if held & close and held.bit_count() > need:
                        reached = held  # kept without a flood
                    else:
                        frontier, count, rest = cand, cand.bit_count(), allowed ^ cand
                        met = cand & close
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
                        reached = allowed ^ rest
            while not cand:  # backtrack to the deepest vertex with a child left
                if not stack:
                    break
                allowed ^= 1 << path.pop()
                cand, reached = stack.pop(), 0
            else:  # descend into the lowest remaining child
                low = cand & -cand
                held = reached & ~low if cand == low else 0  # a forced move
                stack.append(cand ^ low)
                allowed ^= low
                v = low.bit_length() - 1
                path.append(v)
                continue
            break
    return best_seq, True, nodes


def longest_cycle(
    g: EmbeddedGraph, budget: SearchBudget = DEFAULT_BUDGET
) -> SearchOutcome:
    """Exact maximum-length cycle with certificate."""
    seq, conclusive, nodes = _search(g, budget, _LONGEST_CYCLE)
    cert = None if seq is None else CycleCertificate.checked(g, seq)
    return SearchOutcome(cert, conclusive, nodes)


def longest_path_between(
    g: EmbeddedGraph, a: int, b: int, budget: SearchBudget = DEFAULT_BUDGET
) -> SearchOutcome:
    """Exact maximum-length simple path from a to b, with certificate."""
    if a == b:
        raise GraphStructureError("path endpoints must differ")
    if not (0 <= a < g.n and 0 <= b < g.n):
        raise GraphStructureError(f"path endpoints {a}, {b} outside 0..{g.n - 1}")
    seq, conclusive, nodes = _search(g, budget, _LONGEST_PATH, a=a, b=b)
    cert = None if seq is None else PathCertificate.checked(g, seq, a, b)
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
    cert = None if seq is None else CycleCertificate.checked(g, seq, k)
    return SearchOutcome(cert, conclusive, nodes)


class BlockData(NamedTuple):
    """Exact quantities for one distinct block shape."""

    size: int
    count: int
    cycle_length: int
    path_length: int


class FreenessReport(NamedTuple):
    """`conclusive`: both the circumference and the exact-k question were
    settled within budget.  A true `verdict`, or a false one with a
    `k_cycle`, is settled even without it; any other verdict is not.
    `circumference_conclusive`: the circumference is exact, not only the
    lower bound a search reached."""

    k: int
    mode: str  # "brute" | "structural"
    circumference: int
    witness: Optional[CycleCertificate]
    verdict: bool
    conclusive: bool
    circumference_conclusive: bool
    blocks: tuple[BlockData, ...] = ()
    k_cycle: Optional[CycleCertificate] = None  # the k-cycle behind a false verdict


def lemma_values(i: int) -> tuple[int, int]:
    """Closed-form (longest cycle, longest x-y path) of the full level-i
    block: (7 * 2^(i-2), 3 * 2^(i-1)), and (4, 3) for K_4 at level 1."""
    return (4 if i == 1 else 7 * 2 ** (i - 2)), 3 * 2 ** (i - 1)


def block_values(i: int) -> tuple[CycleCertificate, PathCertificate]:
    """Longest cycle, and longest x-y path without the edge xy, of the
    level-i block (hubs x, y = 0, 1) by the insertion-tree DP; both
    validated against the block."""
    from .stacked import stacked_block

    return stacked_block(moon_moser(i).graph, 0, 1)


def _verdict(g: EmbeddedGraph, k: int, mode: str, cyc: SearchOutcome, budget: SearchBudget,
             blocks: tuple[BlockData, ...] = ()) -> FreenessReport:
    """The one rule from a circumference `cyc` of g to a verdict: a
    conclusive circumference below k settles it true, and one equal to k
    settles it false with its witness as the report's k_cycle; otherwise the
    exact-k search decides, and a k-cycle it finds is kept as the k_cycle."""
    if cyc.conclusive and cyc.length <= k:
        hit = SearchOutcome(cyc.certificate if cyc.length == k else None, True, 0)
    else:
        hit = has_cycle_of_length(g, k, budget)
    verdict = hit.conclusive and hit.certificate is None
    conclusive = cyc.conclusive and hit.conclusive
    return FreenessReport(k, mode, cyc.length, cyc.certificate, verdict, conclusive,
                          cyc.conclusive, blocks, hit.certificate)


def certify_ck_free_structural(h: Layout) -> FreenessReport:
    """Exact circumference of H from its distinct blocks alone.

    Each distinct shape M, with the edge xy put back at the end of both hub
    rotations, is solved by the insertion-tree DP, and the hub pair {x, y},
    a 2-cut, gives the circumference by `glue`, whose witness is checked
    against `h.has_edge`.  The DP never peels a hub and reads hub rotations
    only as neighbor sets, so where the rotations start does not change its
    witnesses.  Nothing of size n is built, so no search can follow: a
    circumference of k or more, which `choose_level` rules out, is an
    internal error.
    """
    from .stacked import glue, stacked_block

    plan = h.plan
    blocks: list[BlockData] = []
    # (length, (block-local certificate, block index)): each shape's longest
    # cycle, and its longest x-y path once for each of its first two blocks
    cycles: list[tuple[int, tuple[CycleCertificate, int]]] = []
    paths: list[tuple[int, tuple[PathCertificate, int]]] = []
    for size, js, m in h.shapes:
        rot = m.rotations
        block = EmbeddedGraph((rot[0] + (1,), rot[1] + (0,), *rot[2:]), (0, 1))
        cyc, pat = stacked_block(block, 0, 1)
        blocks.append(BlockData(size, len(js), cyc.length, pat.length))
        cycles.append((cyc.length, (cyc, js[0])))
        paths += [(pat.length, (pat, j)) for j in js[:2]]

    def on_h(key):
        cert, j = key
        return tuple(h.vertex(j, v) for v in cert.vertices)

    found = SearchOutcome(glue(h, cycles, paths, on_h, on_h), True, 0)
    if found.length >= plan.k:
        raise CertificateError(
            f"internal: H({plan.n}, {plan.k}) has a {found.length}-cycle, which its level {plan.i} rules out"
        )
    return _verdict(h, plan.k, "structural", found, DEFAULT_BUDGET, tuple(blocks))


def circumference(
    g: EmbeddedGraph, budget: SearchBudget = DEFAULT_BUDGET
) -> tuple[str, SearchOutcome]:
    """Longest cycle of g and the mode that found it: "structural" by the DP
    when g is recognised as stacked triangulations glued at one edge's ends,
    else "brute" by the search under `budget`."""
    from .stacked import stacked_longest_cycle

    cert = stacked_longest_cycle(g)
    if cert is not None:
        return "structural", SearchOutcome(cert, True, 0)
    return "brute", longest_cycle(g, budget)


def certify_graph(
    g: EmbeddedGraph, k: int, budget: SearchBudget = DEFAULT_BUDGET
) -> FreenessReport:
    """Certification that g has no k-cycle, from its `circumference`."""
    if k < 3:
        raise GraphStructureError(f"cycle length must be >= 3, got {k}")
    ran, cyc = circumference(g, budget)
    return _verdict(g, k, ran, cyc, budget)


def certify_ck_free_brute(
    h: ExtremalConstruction, budget: SearchBudget = DEFAULT_BUDGET
) -> FreenessReport:
    """Whole-graph exhaustive certification of H(n, k) (desk scale only)."""
    return _verdict(h.graph, h.plan.k, "brute", longest_cycle(h.graph, budget), budget)
