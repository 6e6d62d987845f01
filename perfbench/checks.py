"""Output checks that do not trust the program under test.

Every expected value comes from this file's own integer arithmetic, its own
parser and face tracer for `planar-rotation v1` text, or networkx; none
comes from a saved copy of earlier output.  networkx is imported only inside
the functions that use it, so the timed runtime stays pure stdlib.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


class CheckError(Exception):
    """An output that contradicts an independently computed expectation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# -- integer arithmetic of the construction ------------------------------------


def level_for(k: int) -> int:
    """Largest i >= 1 with 3 * 2**i < k, via bit length instead of a loop."""
    require(k >= 7, f"k={k} below 7")
    return ((k + 2) // 3 - 1).bit_length() - 1


def block_order(i: int) -> int:
    return (3**i + 5) // 2


@dataclass(frozen=True)
class Plan:
    i: int
    s: int
    v_s: int


def plan_of(n: int, k: int) -> Plan:
    i = level_for(k)
    half = block_order(i) - 2
    s = -(-(n - 2) // half)
    return Plan(i, s, n - (s - 1) * half)


def expected_edges(n: int, k: int) -> int:
    return 3 * n - 6 - (plan_of(n, k).s - 1)


def paper_circumference(i: int) -> int:
    """Circumference of H(n, k) with at least two full level-i blocks, i >= 2:
    the larger of one block's longest cycle 7*2^(i-2) and two blocks' x-y
    paths 2 * 3*2^(i-1)."""
    return max(7 * 2 ** (i - 2), 2 * 3 * 2 ** (i - 1))


def exact_chain(n: int, k: int) -> bool:
    """The three links of the inequality chain as exact integer facts.

    link 1: s-1 <= 2(n-2)/(3^i+1), i.e. (s-1)(3^i+1) <= 2(n-2);
    link 2: 2/(3^i+1) <= 6/((k/3)^log2(3)+3), i.e. k <= 3*2^(i+1);
    link 3: with a = (k/3)^log2(3) > 0, (n-2)/(a+3) <= n/a reduces to
            -2a <= 3n, true for every n >= 2.
    """
    p = plan_of(n, k)
    link1 = (p.s - 1) * (3**p.i + 1) <= 2 * (n - 2)
    link2 = k <= 3 * 2 ** (p.i + 1)
    link3 = n >= 2
    return link1 and link2 and link3


def check_chain_point(n: int, k: int, exact_edges: int, ok: bool) -> None:
    require(exact_edges == expected_edges(n, k), f"chain ({n},{k}): exact_edges {exact_edges}")
    require(ok == exact_chain(n, k), f"chain ({n},{k}): verdict {ok}")


# -- planar-rotation v1 text ---------------------------------------------------


@dataclass
class Rotation:
    rot: list[list[int]]
    outer: tuple[int, int]
    labels: dict[str, int]

    @property
    def n(self) -> int:
        return len(self.rot)


def rotation_digest(rotations: tuple, outer: tuple[int, int], labels: dict[str, int] | None = None) -> int:
    """Hash of an embedding (and its labels), to compare the program's
    EmbeddedGraph with this file's parse of the same text."""
    return hash((rotations, tuple(outer), tuple(sorted((labels or {}).items()))))


def parse_rotation(text: str) -> Rotation:
    lines = text.split("\n")
    require(lines[0] == "planar-rotation v1", "missing header")
    require(lines[1].startswith("n "), "missing n record")
    n = int(lines[1][2:])
    rot: list[list[int]] = []
    outer = None
    labels: dict[str, int] = {}
    for line in lines[2:]:
        if line.startswith("v "):
            head, _, body = line.partition(":")
            require(int(head[2:]) == len(rot), f"vertex record {head!r} out of order")
            rot.append([int(t) for t in body.split()])
        elif line.startswith("outer "):
            _, u, v = line.split()
            outer = (int(u), int(v))
        elif line.startswith("label "):
            _, name, v = line.split()
            labels[name] = int(v)
        else:
            require(line == "", f"unexpected line {line[:40]!r}")
    require(len(rot) == n, f"{len(rot)} vertex records, header says {n}")
    require(outer is not None, "missing outer record")
    return Rotation(rot, outer, labels)


def simple_edge_count(rot: list[list[int]]) -> int:
    """Edge count of a loop-free, multi-edge-free, symmetric adjacency."""
    n = len(rot)
    sets = [set(r) for r in rot]
    for v, r in enumerate(rot):
        require(len(sets[v]) == len(r), f"parallel edge at {v}")
        require(v not in sets[v], f"loop at {v}")
        for u in r:
            require(0 <= u < n and v in sets[u], f"asymmetric or dangling edge {v}-{u}")
    return sum(map(len, rot)) // 2


def faces(rot: list[list[int]]) -> list[tuple[int, ...]]:
    """Boundary walks under the rule: after arriving at b from a, leave along
    the neighbour that follows a in b's rotation."""
    pos = [{u: j for j, u in enumerate(r)} for r in rot]
    seen = [bytearray(len(r)) for r in rot]
    out = []
    for v, r in enumerate(rot):
        for j in range(len(r)):
            if seen[v][j]:
                continue
            walk = []
            a, ja = v, j
            while not seen[a][ja]:
                seen[a][ja] = 1
                walk.append(a)
                b = rot[a][ja]
                rb = rot[b]
                a, ja = b, (pos[b][a] + 1) % len(rb)
            out.append(tuple(walk))
    return out


# -- the glued construction and the tower --------------------------------------


@dataclass
class HFacts:
    """What the H checks establish, for the checks of later operations."""

    adj: list[set[int]]
    quads: set[frozenset[int]]  # the non-hub pair of each quadrilateral face
    digest: int  # embedding and labels
    graph_digest: int  # embedding only


def check_h(text: str, n: int, k: int, plan_json: str | None = None) -> HFacts:
    """V = n, E = 3n-6-(s-1), exactly s-1 quadrilateral faces through both
    hubs and every other face a triangle; the plan sidecar matches."""
    g = parse_rotation(text)
    p = plan_of(n, k)
    require(g.n == n, f"H({n},{k}) has {g.n} vertices")
    e = simple_edge_count(g.rot)
    require(e == expected_edges(n, k), f"H({n},{k}) has {e} edges, expected {expected_edges(n, k)}")
    fs = faces(g.rot)
    require(n - e + len(fs) == 2, f"H({n},{k}) fails Euler's formula")
    x, y = g.labels.get("x"), g.labels.get("y")
    require(x is not None and y is not None, "hub labels missing")
    quads = set()
    for f in fs:
        require(len(f) in (3, 4), f"face of length {len(f)}")
        if len(f) == 4:
            require(x in f and y in f, f"quadrilateral {f} misses a hub")
            quads.add(frozenset(f) - {x, y})
    require(len(quads) == sum(len(f) == 4 for f in fs) == p.s - 1,
            f"{len(quads)} quadrilateral faces, expected {p.s - 1}")
    require(g.outer[1] in g.rot[g.outer[0]], "outer record is not an edge")
    if plan_json is not None:
        want = {"n": n, "k": k, "i": p.i, "s": p.s, "v_s": p.v_s, "edges": expected_edges(n, k)}
        require(json.loads(plan_json) == want, f"plan sidecar {plan_json.strip()} != {want}")
    rotations = tuple(map(tuple, g.rot))
    return HFacts([set(r) for r in g.rot], quads, rotation_digest(rotations, g.outer, g.labels),
                  rotation_digest(rotations, g.outer))


def check_tower(text: str, level: int) -> None:
    """T_level has (3^level + 5)/2 vertices and 3V - 6 edges."""
    g = parse_rotation(text)
    v = block_order(level)
    require(g.n == v, f"T_{level} has {g.n} vertices, expected {v}")
    e = simple_edge_count(g.rot)
    require(e == 3 * v - 6, f"T_{level} has {e} edges, expected {3 * v - 6}")


def check_completion(facts: HFacts, result: bool, chords: list[tuple[int, int]],
                     digest: int) -> None:
    """Adding one chord inside each quadrilateral face gives a triangulation."""
    require(result is True, f"verify_completion returned {result}")
    require(digest == facts.graph_digest, "completion built a different H than gen-h wrote")
    chord_set = {frozenset(c) for c in chords}
    require(len(chord_set) == len(chords) == len(facts.quads), "wrong number of chords")
    require(chord_set == facts.quads, "a chord is not the diagonal of a quadrilateral face")
    for u, v in chords:
        require(v not in facts.adj[u], f"chord {u}-{v} is already an edge")


# -- cycles, paths and search reports ------------------------------------------


def check_cycle(adj, vertices, length: int) -> None:
    require(len(vertices) == length, f"cycle has {len(vertices)} vertices, claims {length}")
    require(len(set(vertices)) == len(vertices) >= 3, "cycle repeats a vertex")
    for a, b in zip(vertices, vertices[1:] + vertices[:1]):
        require(b in adj[a], f"cycle uses non-edge {a}-{b}")


def check_path(adj, vertices, a: int, b: int) -> None:
    require(len(set(vertices)) == len(vertices), "path repeats a vertex")
    require({vertices[0], vertices[-1]} == {a, b}, "path has the wrong endpoints")
    for u, v in zip(vertices, vertices[1:]):
        require(v in adj[u], f"path uses non-edge {u}-{v}")


def check_structural_report(stdout: str, facts: HFacts, n: int, k: int) -> None:
    r = json.loads(stdout)
    want = paper_circumference(plan_of(n, k).i)
    require(r["circumference"] == want, f"structural circumference {r['circumference']} != {want}")
    require(r["verdict"] is True and r["conclusive"] is True, "structural verdict not C_k-free")
    check_cycle(facts.adj, r["witness"], want)


def cycle_lengths(adj, bound: int) -> list[int]:
    """Lengths of all simple cycles of at most `bound` edges (networkx)."""
    import networkx as nx

    g = nx.Graph((u, v) for u, vs in enumerate(adj) for v in vs if u < v)
    return [len(c) for c in nx.simple_cycles(g, length_bound=bound)]


def check_embedding_nx(rot: list[list[int]]) -> None:
    """The rotation system is a planar embedding (networkx's own check)."""
    import networkx as nx

    emb = nx.PlanarEmbedding()
    for v, r in enumerate(rot):
        emb.add_node(v)
        if r:
            emb.add_half_edge(v, r[0])
        # the rotation's next neighbour is networkx's counterclockwise one
        for prev, u in zip(r, r[1:]):
            emb.add_half_edge(v, u, cw=prev)
    try:
        emb.check_structure()
    except nx.NetworkXException as exc:
        raise CheckError(f"not a planar embedding: {exc}") from exc


def check_brute_report(stdout: str, lengths: list[int], k: int) -> None:
    """Whole-graph verdict against networkx's cycles of length <= k."""
    r = json.loads(stdout)
    has_k = k in lengths
    require(r["verdict"] is (not has_k), f"verdict {r['verdict']} but k-cycle present={has_k}")
    require(r["conclusive"] is True, "brute verify inconclusive")
    if not has_k:
        require(r["circumference"] == max(lengths, default=0),
                f"circumference {r['circumference']} != {max(lengths, default=0)}")


def check_circumference_output(stdout: str, adj, want: int) -> None:
    lines = stdout.splitlines()
    require(lines[0] == f"circumference {want}", f"circumference line {lines[0]!r}, expected {want}")
    require(lines[1].startswith("cycle: "), "missing cycle line")
    check_cycle(adj, [int(t) for t in lines[1][7:].split()], want)


def check_lemma_table(stdout: str, levels: range) -> None:
    rows = [line.split() for line in stdout.splitlines()[1:]]
    require([int(r[0]) for r in rows] == list(levels), "lemma-check levels")
    for r in rows:
        i = int(r[0])
        require(int(r[1]) == block_order(i), f"level {i} vertex count {r[1]}")
        require(int(r[2]) == 7 * 2 ** (i - 2), f"level {i} cycle {r[2]}")
        require(int(r[4]) == 3 * 2 ** (i - 1), f"level {i} path {r[4]}")
        require(r[6] == "PASS", f"level {i} status {r[6]}")


# -- codecs and tables ---------------------------------------------------------


def check_graph6(g6: str, decoded, n: int, edges: set[tuple[int, int]]) -> None:
    """networkx's reading of the graph6 text, and the program's own decode,
    both give back the encoded edge set."""
    import networkx as nx

    g = nx.from_graph6_bytes(g6.encode("ascii"))
    require(g.number_of_nodes() == n, f"graph6 holds {g.number_of_nodes()} vertices, expected {n}")
    got = {(min(u, v), max(u, v)) for u, v in g.edges()}
    require(got == edges, "graph6 edge set differs from the encoded graph")
    require(decoded == (n, sorted(edges)), "decode_graph6 does not return the encoded edges")


CSV_COLUMNS = ["n", "k", "i", "s", "exact_edges", "thm2_lower", "conj1", "lan_song_slope", "chain_ok"]


def check_bounds_csv(text: str, k_values: list[int], n_values: list[int]) -> None:
    """One row per (k, n) in order; integer columns and chain_ok exact."""
    lines = text.split("\n")
    require(lines[0].split(",") == CSV_COLUMNS, f"CSV header {lines[0]!r}")
    require(lines[-1] == "", "CSV does not end with a newline")
    body = lines[1:-1]
    want_pairs = [(n, k) for k in sorted(k_values) for n in sorted(n_values)]
    require(len(body) == len(want_pairs), f"{len(body)} rows, expected {len(want_pairs)}")
    for line, (n, k) in zip(body, want_pairs):
        c = line.split(",")
        require(int(c[0]) == n and int(c[1]) == k, f"row {line[:40]!r} out of place")
        p = plan_of(n, k)
        require(int(c[2]) == p.i and int(c[3]) == p.s, f"row ({n},{k}) plan {c[2]},{c[3]}")
        require(int(c[4]) == expected_edges(n, k), f"row ({n},{k}) exact_edges {c[4]}")
        require(c[8] == ("true" if exact_chain(n, k) else "false"), f"row ({n},{k}) chain_ok {c[8]}")
