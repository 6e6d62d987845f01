"""Exact longest cycles and x-y paths of stacked triangulations glued at
the two ends of one edge, by dynamic programming over the insertion tree.

Every block of H(n, k) is a stacked triangulation (a planar 3-tree), and H
glues its blocks at the 2-cut {x, y}.  `_Glued.of` recognises such a graph
by peeling simplicial degree-3 vertices (Rose 1974); reversed, the peeling
is an insertion tree whose node is a triangle with an apex inside it.  The
DP (Bodlaender 1988) keeps, for the region strictly inside each node, the
best use of that region by a cycle: one of 7 open patterns of segments
between the node's corners, or a cycle closed inside it.  A node combines
its three children over a table of valid moves built once (`_rules`),
subtrees of the same shape are combined once, and one back-pointer per
(subtree, pattern) expands into the witness.  Each piece yields its longest
cycle and longest x-y path, and `glue` applies the 2-cut formula
max(L1, p1 + p2).  The DP takes linear time and no budget, and every
witness is validated against the graph it describes.

`ckfree.certify` imports this module on first use.
"""

from __future__ import annotations

import functools
from itertools import product
from typing import Optional

from .certify import CertificateError, CycleCertificate, PathCertificate
from .embedding import EmbeddedGraph, GraphStructureError

# State of the part of a cycle that lies in one subtree: bit b set means one
# segment joins the corners _PAIRS[b] through the subtree's region, and
# _CLOSED means the whole cycle lies in the subtree.  A table holds, per
# state, the most region vertices a segment set can use (open states) or the
# longest cycle (closed), with -1 for none.
_PAIRS = ((0, 1), (1, 2), (0, 2))
_CLOSED = 7
_EMPTY = (0, -1, -1, -1, -1, -1, -1, -1)  # a region without vertices
# A node's children (p0, p1, c), (p1, p2, c), (p2, p0, c) in the labels of the
# node, whose apex c is label 3; bit k of an apex mask is the edge c-pk.
_CHILD_SLOTS = ((0, 1, 3), (1, 2, 3), (2, 0, 3))
_APEX_EDGES = ((3, 0), (3, 1), (3, 2))
_SAME = (0, 1, 2)


def _shape(edges: list[tuple[int, int]]) -> Optional[tuple[int, int]]:
    """(state, vertices added) of segments between labels 0..3, or None.

    Label 3 is an apex inside the region: it has degree 0 or 2 and is
    spliced out.  Every corner has degree at most 2, and a cycle is valid
    only as the whole structure, whose labels it then adds.
    """
    deg = [0, 0, 0, 0]
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    if max(deg) > 2 or deg[3] == 1:
        return None
    added = 0
    if deg[3]:
        a, b = [u + v - 3 for u, v in edges if 3 in (u, v)]
        edges = [e for e in edges if 3 not in e] + [(a, b)]
        added = 1
    pairs = sorted((min(e), max(e)) for e in edges)
    if len(set(pairs)) == len(pairs) < 3 and all(a != b for a, b in pairs):
        return sum(1 << _PAIRS.index(p) for p in pairs), added
    if len(pairs) == 1 or len(pairs) == 2 and pairs[0] == pairs[1] or pairs == sorted(_PAIRS):
        return _CLOSED, added + len({u for p in pairs for u in p})
    return None


@functools.cache
def _rules(slots: tuple[tuple[int, ...], ...], extras: tuple[tuple[int, int], ...]):
    """Valid moves of one combine step, built once per kind of step.

    Child j's corners are the labels slots[j], and each edge of `extras` may
    be added.  One entry per tuple qs of child states that admits a move:
    (qs, its moves as (state, vertices added, extras mask)).  A closed child
    admits only empty siblings and no extra edge.
    """
    rules = []
    for qs in product(range(8), repeat=len(slots)):
        moves = []
        if _CLOSED in qs:
            if sum(qs) == _CLOSED:
                moves.append((_CLOSED, 0, 0))
        else:
            segs = [(lab[a], lab[b]) for q, lab in zip(qs, slots)
                    for bit, (a, b) in enumerate(_PAIRS) if q >> bit & 1]
            for mask in range(1 << len(extras)):
                shape = _shape(segs + [e for j, e in enumerate(extras) if mask >> j & 1])
                if shape is not None:
                    moves.append((*shape, mask))
        if moves:
            rules.append((qs, tuple(moves)))
    return tuple(rules)


def _combine(rules, tables):
    """Max-plus combine of child tables: (table, how), where how[state] is
    the (child states, extras mask) of a best move."""
    best, how = [-1] * 8, [None] * 8
    for qs, moves in rules:
        total = 0
        for q, t in zip(qs, tables):
            if t[q] < 0:
                break
            total += t[q]
        else:
            for state, added, mask in moves:
                if total + added > best[state]:
                    best[state] = total + added
                    how[state] = (qs, mask)
    return tuple(best), tuple(how)


def _close(table) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Best cycle and best x-y path of a root table, each as (length, root
    state, outer-edge mask): the outer edges xy, yz, xz close the state into
    one cycle, and a path is a cycle through xy (bit 0) minus that edge."""
    cycle = path = (-1, 0, 0)
    for (r,), moves in _rules((_SAME,), _PAIRS):
        if table[r] < 0:
            continue
        for state, added, mask in moves:
            length = table[r] + added
            if state == _CLOSED and length > cycle[0]:
                cycle = (length, r, mask)
            if state == _CLOSED and mask & 1 and length - 1 > path[0]:
                path = (length - 1, r, mask)
    return cycle, path


def _trace(edges: list[tuple[int, int]], start: int) -> tuple[int, ...]:
    """Vertex sequence of the path or cycle made of `edges`, from start."""
    nbrs: dict[int, list[int]] = {}
    for u, v in edges:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    seq, prev = [start], -1
    for _ in edges:
        step = [u for u in nbrs[seq[-1]] if u != prev]
        if not step or step[0] == start:
            break
        prev = seq[-1]
        seq.append(step[0])
    return tuple(seq)


class _Glued:
    """A graph made of stacked triangulations ("pieces") that share one
    edge xy, solved exactly on its insertion tree.

    `of` peels simplicial degree-3 vertices with a queue (Rose 1974) and
    returns None unless the graph left is the triangle xyz (one piece) or
    xy plus s >= 2 vertices adjacent to exactly x and y.  A hub of two or
    more pieces has non-adjacent neighbours, so it is never peeled.  The
    peeled vertices, in reverse, are inserted into triangles: a root
    triangle xyz takes at most two apices (one per side), any other
    triangle at most one; more means a non-planar 3-tree, also None.

    Each inserted vertex heads a subtree; subtrees are hash-consed by the
    ids of their children, so each distinct shape is combined once.
    """

    def __init__(self, g, roots, apices, corners, kids, order):
        self.g, self.roots, self.apices = g, roots, apices
        self.corners, self.kids = corners, kids
        node_rules = _rules(_CHILD_SLOTS, _APEX_EDGES)
        ids = {}
        self.tables, self.hows = [_EMPTY], [None]
        self.sid = sid = [0] * (g.n + 1)  # sid[n] = 0: the empty region
        for v in reversed(order):
            k0, k1, k2 = kids[v]
            key = (sid[k0], sid[k1], sid[k2])
            i = ids.get(key)
            if i is None:
                i = ids[key] = len(self.tables)
                table, how = _combine(node_rules, [self.tables[j] for j in key])
                self.tables.append(table)
                self.hows.append(how)
            sid[v] = i
        solved = {}
        self.solved = []  # per piece: (root how, best cycle, best path)
        for on in apices:
            key = tuple(sid[c] for c in on)
            if key not in solved:
                table, how = _combine(_rules((_SAME,) * len(on), ()), [self.tables[i] for i in key])
                solved[key] = (how, *_close(table))
            self.solved.append(solved[key])

    @classmethod
    def of(cls, g: EmbeddedGraph, hubs: Optional[tuple[int, int]] = None) -> Optional["_Glued"]:
        """The pieces of g, or None; with `hubs` given, g must be one
        stacked triangulation with those corners kept unpeeled."""
        adj = [set(r) for r in g.rotations]
        n = len(adj)
        keep = set(hubs or ())
        gone = [False] * n
        queue = [v for v in range(n) if len(adj[v]) == 3 and v not in keep]
        peeled = []
        while queue:
            v = queue.pop()
            if len(adj[v]) != 3:
                continue
            a, b, c = adj[v]
            if b in adj[a] and c in adj[a] and c in adj[b]:
                gone[v] = True
                peeled.append((v, (a, b, c)))
                for u in (a, b, c):
                    adj[u].discard(v)
                    if len(adj[u]) == 3 and u not in keep:
                        queue.append(u)
        core = [v for v in range(n) if not gone[v]]
        if len(core) == 3:
            x, y = hubs or core[:2]
            rest = set(core) - {x, y}
            if len(rest) != 1:
                return None
            (z,) = rest
            if not (y in adj[x] and z in adj[x] and z in adj[y]):
                return None
            roots = [(x, y, z)]
        elif hubs is None and len(core) > 3:
            top = [v for v in core if len(adj[v]) == len(core) - 1]
            if len(top) != 2 or top[1] not in adj[top[0]]:
                return None
            x, y = top
            roots = [(x, y, z) for z in core if z != x and z != y]
            if any(adj[z] != {x, y} for _, _, z in roots):
                return None
        else:
            return None

        # Reversed, the peeling inserts each vertex v into its triangle.  The
        # corner inserted last (peeled first) is v's parent u, and the other
        # two are corners of u, so v fills the child slot of u that lacks
        # u's third corner; a triangle of core vertices is a root.
        rank = [len(peeled)] * n  # core vertices are never peeled
        for i, (v, _) in enumerate(peeled):
            rank[v] = i
        piece = {frozenset(root): j for j, root in enumerate(roots)}
        apices: list[list[int]] = [[] for _ in roots]
        corners: list = [None] * n
        kids: list = [None] * n  # n stands for an empty child slot
        order = []  # parents before children
        for v, tri in reversed(peeled):
            a, b, c = tri
            u = a if rank[a] < rank[b] else b
            if rank[c] < rank[u]:
                u = c
            if rank[u] == len(peeled):
                j = piece.get(frozenset(tri))
                if j is None or len(apices[j]) == 2:
                    return None
                apices[j].append(v)
                corners[v] = roots[j]
            else:
                p0, p1, p2 = corners[u]
                slot = 0 if p2 not in tri else 1 if p0 not in tri else 2
                if kids[u][slot] != n:
                    return None
                kids[u][slot] = v
                corners[v] = ((p0, p1, u), (p1, p2, u), (p2, p0, u))[slot]
            kids[v] = [n, n, n]
            order.append(v)
        return cls(g, roots, apices, corners, kids, order)

    def cycle_length(self, j: int) -> int:
        return self.solved[j][1][0]

    def path_length(self, j: int) -> int:
        return self.solved[j][2][0]

    def _edges(self, j: int, best: tuple[int, int, int]) -> list[tuple[int, int]]:
        """The edges of piece j's best cycle or path, from the back-pointers."""
        _, r, mask = best
        root = self.roots[j]
        edges = [(root[a], root[b]) for bit, (a, b) in enumerate(_PAIRS) if mask >> bit & 1]
        stack = list(zip(self.apices[j], self.solved[j][0][r][0]))
        while stack:
            v, q = stack.pop()
            if q:
                qs, m = self.hows[self.sid[v]][q]
                p = self.corners[v]
                edges += [(v, p[k]) for k in range(3) if m >> k & 1]
                stack += zip(self.kids[v], qs)
        return edges

    def cycle(self, j: int) -> CycleCertificate:
        """Piece j's longest cycle, edge xy included, validated against g."""
        edges = self._edges(j, self.solved[j][1])
        return CycleCertificate.checked(self.g, _trace(edges, edges[0][0]), self.cycle_length(j))

    def path(self, j: int) -> PathCertificate:
        """Piece j's longest x-y path without the edge xy, validated."""
        x, y, _ = self.roots[j]
        edges = self._edges(j, self.solved[j][2])
        edges.remove((x, y))
        cert = PathCertificate(_trace(edges, x))
        cert.validate(self.g)
        if cert.vertices[-1] != y or not cert.length == len(edges) == self.path_length(j):
            raise CertificateError("internal: path witness does not match its length")
        return cert


def glue(g: EmbeddedGraph, cycles, paths, cycle_seq, path_seq) -> CycleCertificate:
    """Longest cycle of g through a 2-cut {x, y}: max(L1, p1 + p2), checked.

    A cycle lies in one piece (edge xy included) or crosses two, as an x-y
    path in each.  `cycles` holds (length, key) per piece and `paths`
    (length, key) from distinct pieces; cycle_seq(key) and path_seq(key)
    give the vertex sequences in g, paths from x to y.
    """
    length, key = max(cycles, key=lambda t: t[0])
    if len(paths) >= 2:
        (len1, key1), (len2, key2) = sorted(paths, key=lambda t: -t[0])[:2]
        if len1 + len2 > length:
            # x .. y through one piece, then back from y to x through the other
            seq = path_seq(key1) + path_seq(key2)[-2:0:-1]
            return CycleCertificate.checked(g, seq, len1 + len2)
    return CycleCertificate.checked(g, cycle_seq(key), length)


def stacked_block(g: EmbeddedGraph, x: int, y: int) -> tuple[CycleCertificate, PathCertificate]:
    """Longest cycle of the stacked triangulation g, and longest x-y path
    of g minus the edge xy, by the insertion-tree DP; both validated."""
    t = _Glued.of(g, (x, y))
    if t is None:
        raise GraphStructureError(f"not a stacked triangulation with edge {x}-{y}")
    return t.cycle(0), t.path(0)


def stacked_longest_cycle(g: EmbeddedGraph) -> Optional[CycleCertificate]:
    """Exact longest cycle of g when g is stacked triangulations glued at
    one edge's ends (a single one included), validated; None otherwise."""
    t = _Glued.of(g)
    if t is None:
        return None
    pieces = range(len(t.roots))
    return glue(
        g,
        [(t.cycle_length(j), j) for j in pieces],
        [(t.path_length(j), j) for j in pieces],
        lambda j: t.cycle(j).vertices,
        lambda j: t.path(j).vertices,
    )
