import hashlib
import json
import re
import tracemalloc
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from ckfree import (
    EmbeddedGraph,
    GraphStructureError,
    ParseError,
    ResourceError,
    build_construction,
    complete_to_triangulation,
    decode_graph6,
    decode_planar,
    encode_graph6,
    encode_planar,
    export_dot,
    moon_moser,
    moon_moser_order,
    truncated_moon_moser,
)
from ckfree import codec
from ckfree.codec import MAX_GRAPH6_VERTICES, layout_planar_lines, planar_lines
from ckfree.construction import MAX_VERTICES, layout
from planar3trees import retained_size

DATA = Path(__file__).parent / "data"


def reference_graph6(n, edges):
    """Independent bit-level encoder following the public format note."""
    adj = {(min(u, v), max(u, v)) for u, v in edges}
    bitstring = "".join(
        "1" if (i, j) in adj else "0" for j in range(1, n) for i in range(j)
    )
    bitstring += "0" * (-len(bitstring) % 6)
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    return head + "".join(
        chr(int(bitstring[i : i + 6], 2) + 63) for i in range(0, len(bitstring), 6)
    )


def abstract_graph(n, edges):
    """The graph on 0..n-1 with these edges, each rotation in ascending order."""
    rot = [[] for _ in range(n)]
    for u, v in edges:
        rot[u].append(v)
        rot[v].append(u)
    return EmbeddedGraph(tuple(tuple(sorted(r)) for r in rot), (0, 0))


def test_k4_is_c_tilde():
    assert encode_graph6(moon_moser(1).graph) == "C~"


def test_single_vertex_empty_graph():
    assert encode_graph6(EmbeddedGraph(((),), (0, 0))) == "@"
    assert decode_graph6("@") == (1, [])


def test_matches_reference_bit_encoder():
    for g in (moon_moser(2).graph, moon_moser(3).graph,
              build_construction(20, 13).graph):
        assert encode_graph6(g) == reference_graph6(g.n, g.edges())


def test_matches_networkx():
    g = moon_moser(3).graph
    G = nx.from_graph6_bytes(encode_graph6(g).encode())
    assert G.number_of_nodes() == g.n
    assert {frozenset(e) for e in G.edges()} == {frozenset(e) for e in g.edges()}


def test_graph6_round_trip_construction_family():
    for g in (
        moon_moser(1).graph,
        moon_moser(4).graph,
        truncated_moon_moser(3, 11).graph,
        build_construction(7, 7).graph,
        build_construction(22, 14).graph,
    ):
        n, edges = decode_graph6(encode_graph6(g))
        assert n == g.n
        assert set(edges) == set(g.edges())


def test_graph6_extended_header():
    n = 100
    ring = [(v, (v + 1) % n) for v in range(n)]
    assert decode_graph6(encode_graph6(abstract_graph(n, ring))) == (n, sorted(
        (min(u, v), max(u, v)) for u, v in ring
    ))
    big = 70  # > 62 triggers the 4-byte header
    text = encode_graph6(abstract_graph(big, []))
    assert text.startswith("~")
    assert decode_graph6(text) == (big, [])


@pytest.mark.parametrize("text,offset", [("~", 1), ("~?", 2), ("~??", 3), ("~~", 2), ("~~?????", 7)])
def test_graph6_truncated_extended_headers(text, offset):
    with pytest.raises(ParseError, match="truncated extended size header") as exc:
        decode_graph6(text)
    assert exc.value.offset == offset


def test_graph6_six_character_header_of_zero_vertices():
    assert decode_graph6("~~??????") == (0, [])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**30))
def test_graph6_round_trip_random(n, seed):
    G = nx.gnm_random_graph(n, min(n * (n - 1) // 2, seed % (3 * n + 1)), seed=seed)
    edges = sorted((min(u, v), max(u, v)) for u, v in G.edges())
    assert decode_graph6(encode_graph6(abstract_graph(n, edges))) == (n, edges)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 130), st.floats(0, 1), st.integers(0, 2**30))
def test_graph6_matches_networkx_both_ways(n, density, seed):
    # 0..62 vertices use the one-byte size header, 63..130 the four-byte one
    G = nx.gnm_random_graph(n, round(density * n * (n - 1) / 2), seed=seed)
    edges = sorted((min(u, v), max(u, v)) for u, v in G.edges())
    text = encode_graph6(abstract_graph(n, edges))
    assert text.encode() + b"\n" == nx.to_graph6_bytes(G, header=False)
    assert decode_graph6(text) == (n, edges)
    H = nx.from_graph6_bytes(text.encode())
    assert H.number_of_nodes() == n
    assert sorted((min(u, v), max(u, v)) for u, v in H.edges()) == edges


# sha256 of encode_graph6(T_8), recorded with the bit-list encoder that the
# bytearray/base64 codec replaced
T8_GRAPH6_SHA256 = "ba1bb4bf7bcbd4437f1a880cc1b87f3fc7a769dec8b842c586d373dc84216547"


def test_graph6_of_t8_matches_golden_digest():
    g = moon_moser(8).graph
    text = encode_graph6(g)
    assert hashlib.sha256(text.encode()).hexdigest() == T8_GRAPH6_SHA256
    assert decode_graph6(text) == (g.n, sorted(g.edges()))


def test_graph6_encode_rejects_bad_edges_and_merges_duplicates():
    # a graph is not validated when it is built, so a neighbor may be out of range
    for rotations in (((3,), (), ()), ((1,), (0, 5), ())):
        with pytest.raises(GraphStructureError, match="bad edge"):
            encode_graph6(EmbeddedGraph(rotations, (0, 0)))
    twice = EmbeddedGraph(((1, 1), (0, 0), ()), (0, 1))
    assert encode_graph6(twice) == encode_graph6(abstract_graph(3, [(0, 1)]))


@pytest.mark.parametrize("rotations,bad", [
    (((-1, 1), (0,)), "(0,-1)"),  # a negative id, which the edge list drops
    (((1,), ()), "(0,1)"),  # an edge listed at one end only
    (((), (0,)), "(1,0)"),
    (((1,), (0,), (-1,)), "(2,-1)"),  # the negative id would hit the bit of edge 0-1
])
def test_graph6_encode_rejects_negative_ids_and_one_sided_edges(rotations, bad):
    with pytest.raises(GraphStructureError, match=re.escape(f"bad edge {bad}")):
        encode_graph6(EmbeddedGraph(rotations, (0, 1)))


@pytest.mark.parametrize("text,offset", [("C\x05", 1), ("C~\x7f", 2), ("Cé", 1), (" \x01", 0)])
def test_graph6_range_error_names_first_bad_byte(text, offset):
    with pytest.raises(ParseError, match="outside graph6 range") as exc:
        decode_graph6(text)
    assert exc.value.offset == offset


def test_graph6_header_stripped():
    assert decode_graph6(">>graph6<<C~") == decode_graph6("C~")


@pytest.mark.parametrize("bad", ["C", "C~~", "C\x1f~", "~C", ""])
def test_graph6_parse_errors(bad):
    with pytest.raises(ParseError):
        decode_graph6(bad)


@pytest.mark.parametrize("text", ["A`", "Ao", "Bx", ">>graph6<<D~}"])
def test_graph6_rejects_nonzero_padding_bits(text):
    with pytest.raises(ParseError, match="padding bits") as exc:
        decode_graph6(text)
    assert exc.value.offset == len(text.removeprefix(">>graph6<<")) - 1


def test_graph6_parse_error_carries_offset():
    try:
        decode_graph6("C\x05")
    except ParseError as exc:
        assert exc.offset == 1
    else:
        pytest.fail("expected ParseError")


def test_planar_round_trip_preserves_everything():
    h = build_construction(20, 13)
    labels = {"x": h.x, "y": h.y}
    labels.update({f"w{j+1}": w for j, w in enumerate(h.first_neighbors(h.x))})
    labels.update({f"z{j+1}": z for j, z in enumerate(h.first_neighbors(h.y))})
    g2, labels2 = decode_planar(encode_planar(h.graph, labels))
    assert g2 == h.graph  # rotations, outer edge and all
    assert labels2 == labels
    assert sorted(map(len, g2.face_walks())) == sorted(
        map(len, h.graph.face_walks())
    )


def test_decoded_rotations_share_one_int_per_vertex():
    g = build_construction(2000, 97).graph
    decoded, _ = decode_planar(encode_planar(g))
    assert decoded == g
    assert len({id(u) for rot in decoded.rotations for u in rot}) == g.n


def test_planar_round_trip_degenerate_labels():
    h = build_construction(7, 7)  # v_s = 3: w_s absent
    *_, z3 = h.first_neighbors(h.y)
    labels = {"x": h.x, "y": h.y, "z3": z3}
    g2, labels2 = decode_planar(encode_planar(h.graph, labels))
    assert g2 == h.graph and labels2 == labels


@pytest.mark.parametrize(
    "mangle",
    [
        lambda t: t.replace("planar-rotation v1", "planar-rotation v9"),
        lambda t: t.replace("outer 0 1\n", ""),
        lambda t: t.replace("v 0:", "v 9:"),
        lambda t: t.replace("v 2: 0 3 1", "v 2: 0 3"),  # asymmetric adjacency
    ],
)
def test_planar_parse_errors(mangle):
    text = encode_planar(moon_moser(1).graph, {"x": 0})
    with pytest.raises(ParseError):
        decode_planar(mangle(text))


@pytest.mark.parametrize(
    "mangle,message",
    [
        (lambda t: t.replace("n 4\n", "n 4\nn 4\n"), "duplicate 'n' record"),
        (lambda t: t.replace("v 3:", "v 1: 2 3 0\nv 3:"), "duplicate record for vertex 1"),
        (lambda t: t.replace("n 4\n", "n 5\n"), "'n 5' but 4 vertex records"),
        (lambda t: t + "outer 1 2\n", "line 9: duplicate 'outer' record"),
        (lambda t: t + "label x 3\n", "line 9: duplicate label 'x'"),
        (lambda t: t.replace("n 4\n", "n 4 9\n"), "line 2: malformed record: 'n 4 9'"),
        (lambda t: t.replace("outer 0 1", "outer 0 1 2"), "line 7: malformed record: 'outer 0 1 2'"),
        (lambda t: t.replace("label x 0", "label x 0 junk"), "line 8: malformed record: 'label x 0 junk'"),
        (lambda t: t.replace("outer 0 1", "outer 99 0"), "outer-face edge is not an edge"),
        (lambda t: t.replace("outer 0 1", "outer -1 0"), "outer-face edge is not an edge"),
    ],
)
def test_planar_rejects_inconsistent_records(mangle, message):
    text = encode_planar(moon_moser(1).graph, {"x": 0})
    with pytest.raises(ParseError, match=message):
        decode_planar(mangle(text))


def test_planar_one_vertex_graph():
    g, labels = decode_planar("planar-rotation v1\nn 1\nv 0:\nouter 0 0\n")
    assert g == EmbeddedGraph(((),), (0, 0)) and labels == {}


def test_planar_rejects_negative_header_without_records():
    with pytest.raises(ParseError, match="negative vertex count"):
        decode_planar("planar-rotation v1\nn -3\nouter 0 1\n")


def test_planar_huge_header_is_rejected_before_allocation():
    # a header this size must fail on the record count alone: nothing of
    # size n may be built first
    with pytest.raises(ParseError, match="but 0 vertex records"):
        decode_planar(f"planar-rotation v1\nn {10**12}\nouter 0 1\n")


def test_dot_golden_files():
    cases = {
        "t1.dot": export_dot(moon_moser(1).graph, {"x": 0, "y": 1, "z": 2}),
        "t2.dot": export_dot(moon_moser(2).graph, {"x": 0, "y": 1, "z": 2}),
        "h12_7.dot": export_dot(build_construction(12, 7).graph, {"x": 0, "y": 1}),
    }
    for name, text in cases.items():
        assert text == (DATA / name).read_text(), name


def test_encodings_deterministic():
    h = build_construction(20, 13)
    assert encode_graph6(h.graph) == encode_graph6(h.graph)
    assert encode_planar(h.graph, {"x": 0}) == encode_planar(h.graph, {"x": 0})
    assert export_dot(h.graph) == export_dot(h.graph)


# (n, k) pairs for the golden digests; (7, 7), (9, 7) and (18, 13) end in a
# degenerate 3-vertex block, (40000, 5000) in a truncated level-10 block,
# (99999, 13) in a truncated level-2 block; the last three were recorded
# from H's assembled rotations, before H was written from its layout
GOLDEN_NK = [(7, 7), (9, 7), (12, 7), (18, 13), (20, 13), (22, 14), (40, 28),
             (61, 25), (300, 40), (2000, 100), (40000, 5000),
             (99999, 13), (100000, 13), (100000, 40)]


def planar_golden_cases():
    """(name, planar-rotation v1 text) for every pinned graph."""
    for i in (1, 2, 3, 4, 5, 6, 9, 10):
        t = moon_moser(i)
        yield f"T_{i}", encode_planar(t.graph, {"x": t.x, "y": t.y, "z": t.z})
    for n, k in GOLDEN_NK:
        yield f"H({n},{k})", encode_planar(build_construction(n, k).graph)
    h = build_construction(100, 13)
    yield "completion H(100,13)", encode_planar(complete_to_triangulation(h))


def test_planar_golden_digests():
    want = json.loads((DATA / "planar_sha256.json").read_text())
    got = {name: hashlib.sha256(text.encode()).hexdigest()
           for name, text in planar_golden_cases()}
    assert got == want


@pytest.mark.parametrize("n,k", GOLDEN_NK)
def test_layout_text_is_the_pinned_text_of_h(n, k):
    """H written from its layout, never assembled, hashes to the pin of
    encode_planar(build_construction(n, k).graph)."""
    want = json.loads((DATA / "planar_sha256.json").read_text())[f"H({n},{k})"]
    digest = hashlib.sha256()
    for chunk in layout_planar_lines(layout(n, k, limit=MAX_VERTICES)):
        digest.update(chunk.encode())
    assert digest.hexdigest() == want


def per_line_text(g, labels):
    """planar-rotation text one f-string per line, as the writer made it
    before it filled templates."""
    return "".join([
        "planar-rotation v1\n", f"n {g.n}\n",
        *(f"v {v}: {' '.join(map(str, rot))}\n" for v, rot in enumerate(g.rotations)),
        f"outer {g.outer_edge[0]} {g.outer_edge[1]}\n",
        *(f"label {name} {labels[name]}\n" for name in sorted(labels)),
    ])


@pytest.mark.parametrize("g,labels", [
    (EmbeddedGraph(((),), (0, 0)), {}),  # an empty rotation keeps its space: "v 0: "
    (moon_moser(1).graph, {"x": 0}),
    (moon_moser(7).graph, {"x": 0, "y": 1, "z": 2}),  # first runs of more than _CHUNK_IDS ids
    (build_construction(300, 40).graph, {"y": 1, "x": 0}),
    (EmbeddedGraph(tuple(((v - 1) % 40, (v + 1) % 40) for v in range(40)), (0, 1)), {}),
])
def test_templates_write_what_one_line_at_a_time_wrote(g, labels):
    chunks = list(planar_lines(g, labels))
    assert "".join(chunks) == per_line_text(g, labels)
    # every chunk is whole lines, at most _CHUNK of them
    assert all(c.endswith("\n") and c.count("\n") <= codec._CHUNK for c in chunks)


def test_graph6_refuses_graphs_above_the_size_limit():
    with pytest.raises(ResourceError, match=f"limited to {MAX_GRAPH6_VERTICES} vertices"):
        encode_graph6(EmbeddedGraph(((),) * (MAX_GRAPH6_VERTICES + 1), (0, 0)))
    assert MAX_GRAPH6_VERTICES >= moon_moser_order(8)  # T_8, the largest graph6 graph in use


@pytest.mark.parametrize("make", [
    lambda: moon_moser(9).graph,
    lambda: build_construction(20000, 13, validate=False).graph,
], ids=["T_9", "H(20000,13)"])
def test_parse_peak_stays_below_2_2_graph_sizes(monkeypatch, make):
    g = make()
    text = encode_planar(g, {"x": 0, "y": 1})
    monkeypatch.setattr(EmbeddedGraph, "validate", lambda self: None)  # the parse alone
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        decoded, labels = decode_planar(text)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert decoded == g and labels == {"x": 0, "y": 1}
    # about 1.8 with the lines split a block at a time and an int-keyed
    # memo; a list of all the lines and a memo keyed by token took 2.7
    assert peak < 2.2 * retained_size(decoded), (peak, retained_size(decoded))


def mixed_line_ends():
    """(name, planar text) with the line breaks splitlines() knows mixed in,
    blank and comment lines, and one malformed record or none."""
    base = encode_planar(moon_moser(2).graph, {"x": 0, "y": 1, "z": 2})
    crlf = base.replace("\n", "\r\n")
    mixed = (base.replace("\nv 2:", "\r\nv 2:").replace("\nv 4:", "\x0cv 4:")
             .replace("\nv 5:", "\rv 5:").replace("\nouter", "\n\n# a comment\r\n  \x0c\nouter"))
    yield "crlf", crlf
    yield "mixed", mixed
    yield "mixed, no final newline", mixed.rstrip("\n")
    yield "crlf, malformed", crlf.replace("v 5: ", "v 5: 1 bad ")
    yield "mixed, malformed", mixed.replace("v 5: ", "v 5: 1 bad ")
    yield "mixed, malformed last line", mixed + "label bad\r\n"
    yield "no header", "\r\n" + mixed


def decoded_or_error(text):
    try:
        return decode_planar(text)
    except ParseError as exc:
        return str(exc)


@pytest.mark.parametrize("name", [name for name, _ in mixed_line_ends()])
def test_small_blocks_read_the_lines_that_splitlines_gives(monkeypatch, name):
    text = dict(mixed_line_ends())[name]
    want = decoded_or_error(text)
    if "malformed" in name:  # the line number counts the lines of text.splitlines()
        lines = text.splitlines()
        bad = next(i for i, line in enumerate(lines) if "bad" in line)
        assert want == f"line {bad + 1}: malformed record: {lines[bad]!r}"
    elif name == "no header":
        assert want == "missing 'planar-rotation v1' header line"
    else:
        assert want == (moon_moser(2).graph, {"x": 0, "y": 1, "z": 2})
    for block in (1, 2, 3, 5, 8, 13):
        monkeypatch.setattr(codec, "_BLOCK", block)
        assert decoded_or_error(text) == want, block
