"""Graph serialization: graph6 for abstract graphs, a rotation-preserving
text format for embedded graphs, and DOT export.

The rotation format ("planar-rotation v1") is line oriented:

    planar-rotation v1
    n <vertex count>
    v <id>: <neighbor ids in rotation order>
    outer <u> <v>
    label <name> <id>

One `v` line per vertex, in id order.  `outer` names the directed edge on
the unbounded face.  `label` lines are optional and carry the distinguished
vertex names (x, y, w1, z1, ...).
"""

from __future__ import annotations

import binascii
import re
from functools import cache
from itertools import chain, count, islice
from math import isqrt
from typing import Iterable, Iterator, Mapping

from .construction import Layout, ResourceError
from .embedding import EmbeddedGraph, GraphStructureError


class ParseError(ValueError):
    """Malformed codec input; carries the offending byte offset or line."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)


# -- graph6 ------------------------------------------------------------------

# graph6 packs the upper adjacency triangle column by column (bit
# p = j(j-1)/2 + i for the edge i < j) into 6-bit groups, each written as
# chr(63 + value).  Base64 does the same grouping of a big-endian byte string,
# so the codec maps its alphabet onto chr(63)..chr(126) and back.
_B64_ALPHABET = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6_ALPHABET = bytes(range(63, 127))
_B64_TO_G6 = bytes.maketrans(_B64_ALPHABET, _G6_ALPHABET)
_G6_TO_B64 = bytes.maketrans(_G6_ALPHABET, _B64_ALPHABET)
_G6_OUT_OF_RANGE = re.compile(r"[^?-~]")
_NONZERO_BYTE = re.compile(rb"[^\x00]")
# graph6 text holds the whole adjacency triangle, n(n-1)/2 bits (16 MiB here)
MAX_GRAPH6_VERTICES = 16_384


def graph6_order(n: int) -> int:
    """n, refused above MAX_GRAPH6_VERTICES, before a graph of n vertices is built."""
    if n > MAX_GRAPH6_VERTICES:
        raise ResourceError(f"graph6 output is limited to {MAX_GRAPH6_VERTICES} vertices, got {n}")
    return n


def encode_graph6(g: EmbeddedGraph) -> str:
    """graph6 text of a labeled simple graph (embedding is not carried).
    Raises GraphStructureError on a neighbor id out of range or an edge
    listed at one end only; a repeated neighbor or a loop is dropped."""
    n = graph6_order(g.n)
    # size header: one character up to n = 62, else "~" and three
    header = chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    nbits = n * (n - 1) // 2
    bits = bytearray(-(-nbits // 24) * 3)  # whole 4-character base64 groups
    # the bit of each edge u < v, read from both ends: an unvalidated graph
    # may hold any id, and an edge listed at one end only
    rots = g.rotations
    up = {v * (v - 1) // 2 + u for u, rot in enumerate(rots) for v in rot if u < v}
    down = {u * (u - 1) // 2 + v for u, rot in enumerate(rots) for v in rot if v < u}
    if up != down or min(chain.from_iterable(rots), default=0) < 0:
        u, v = next((u, v) for u, rot in enumerate(rots) for v in rot
                     if not (0 <= v < n and u in rots[v]))
        raise GraphStructureError(f"bad edge ({u},{v})")
    for p in up:
        bits[p >> 3] |= 0x80 >> (p & 7)
    body = binascii.b2a_base64(bits, newline=False).translate(_B64_TO_G6)[: (nbits + 5) // 6]
    return header + body.decode("ascii")


def _graph6_bits(text: str) -> tuple[int, bytes]:
    """(n, the adjacency triangle's bytes) of graph6 text; bit p of the
    bytes, most significant first, is the edge p = j(j-1)/2 + i."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ParseError("empty graph6 input", 0)
    bad = _G6_OUT_OF_RANGE.search(s)
    if bad:
        raise ParseError(f"character {bad.group()!r} outside graph6 range", bad.start())
    # size header: one character, "~" and three, or "~~" and six
    pos, width = (0, 1) if s[0] != "~" else (1, 3) if s[1:2] != "~" else (2, 6)
    if len(s) < pos + width:
        raise ParseError("truncated extended size header", len(s))
    n = 0
    for ch in s[pos:pos + width]:
        n = n << 6 | (ord(ch) - 63)
    pos += width
    nbits = n * (n - 1) // 2
    expected = pos + (nbits + 5) // 6
    if len(s) != expected:
        raise ParseError(
            f"graph6 body for n={n} must be {expected} bytes, got {len(s)}",
            min(len(s), expected),
        )
    pad = 6 * (expected - pos) - nbits
    if (ord(s[-1]) - 63) & ((1 << pad) - 1):
        raise ParseError("nonzero graph6 padding bits", len(s) - 1)
    body = s[pos:].encode("ascii").translate(_G6_TO_B64)
    return n, binascii.a2b_base64(body + b"A" * (-len(body) % 4))


def _graph6_edges(bits: bytes) -> Iterator[tuple[int, int]]:
    """The edges (i, j), i < j, of the set bits, by j and then i."""
    for m in _NONZERO_BYTE.finditer(bits):
        byte, base = m.group()[0], m.start() * 8
        for bit in range(8):
            if byte & (0x80 >> bit):
                p = base + bit
                j = (1 + isqrt(1 + 8 * p)) // 2
                yield p - j * (j - 1) // 2, j


def decode_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    """(n, sorted edge list) from graph6 text."""
    n, bits = _graph6_bits(text)
    return n, sorted(_graph6_edges(bits))


def graph6_graph(text: str) -> EmbeddedGraph:
    """The graph of graph6 text, embedded by ascending rotations, which is
    enough for a search.  More edges than 3n - 6, which no simple planar
    graph on n >= 3 vertices has, are refused before any edge is listed."""
    n, bits = _graph6_bits(text)
    m = int.from_bytes(bits, "big").bit_count()
    if n >= 3 and m > 3 * n - 6:
        raise GraphStructureError(
            f"graph6 input has {m} edges; a planar graph on {n} vertices has at most {3 * n - 6}"
        )
    rot: list[list[int]] = [[] for _ in range(n)]
    for u, v in _graph6_edges(bits):
        rot[u].append(v)
        rot[v].append(u)
    return EmbeddedGraph(tuple(map(tuple, rot)), (0, rot[0][0]) if n and rot[0] else (0, 0))


# -- rotation format ---------------------------------------------------------

ROTATION_FORMAT_HEADER = "planar-rotation v1"
# labels: a name -> id map, or its (name, id) pairs
Labels = Mapping[str, int] | Iterable[tuple[str, int]]


# Vertex lines are written 16 at a time, from a template and the ids that
# fill it: more at once would hold more of a tower's text.  A run of 16
# lines with more ids than _CHUNK_IDS, as at a tower's first vertices, goes
# a line at a time.
_CHUNK = 16
_CHUNK_IDS = 1024
# A shape's templates take about twice the text of one of its blocks.  They
# are kept when at least this many blocks share them, which holds them below
# a third of the text written, and made again for each block otherwise.
_KEPT_BLOCKS = 8


@cache
def _line(degree: int) -> str:
    """The template of one vertex line: its id, then its rotation."""
    return "v %d: " + " ".join(["%d"] * degree) + "\n"


def _chunks(rotations: Iterable[tuple[int, ...]], first: int) -> Iterator[tuple[str, tuple[int, ...]]]:
    """(template, ids) for each run of the lines of vertices first, first +
    1, ... of the rotations, which are read a run at a time, so that they
    may come from a generator: `template % ids` is the text of the run.  A
    neighbor below `first`, a hub when the rotations are a shape's, is
    written into the template rather than left to fill, so that adding one
    offset to the ids renumbers all the others."""
    runs = islice(rotations, first, None)
    for start in count(first, _CHUNK):
        # a list: a tuple of unknown length is grown by resizing, so a freed
        # one would wait on the free list of its final size, never reused
        run = list(islice(runs, _CHUNK))
        if not run:
            return
        step = _CHUNK if sum(map(len, run)) <= _CHUNK_IDS else 1
        for i in range(0, len(run), step):
            part, v = run[i:i + step], start + i
            if not first or min(chain.from_iterable(part), default=first) >= first:
                ids = chain.from_iterable(map(chain, zip(count(v)), part))
                yield "".join(map(_line, map(len, part))), tuple(ids)
                continue
            lines, ids = [], []
            for v, rot in enumerate(part, v):
                if min(rot, default=first) < first:
                    lines.append("v %d: " + " ".join("%d" if u >= first else str(u) for u in rot) + "\n")
                    rot = [u for u in rot if u >= first]
                else:
                    lines.append(_line(len(rot)))
                ids.append(v)
                ids += rot
            yield "".join(lines), tuple(ids)


def _planar_text(n: int, vertex_text: Iterable[str], outer: tuple[int, int],
                 labels: Iterable[tuple[str, int]]) -> Iterator[str]:
    """The text of the records, with the (name, id) label pairs in name order."""
    yield f"{ROTATION_FORMAT_HEADER}\n"
    yield f"n {n}\n"
    yield from vertex_text
    yield f"outer {outer[0]} {outer[1]}\n"
    for name, v in labels:
        yield f"label {name} {v}\n"


def rotation_lines(n: int, rotations: Iterable[tuple[int, ...]], outer: tuple[int, int],
                   labels: Labels | None = None) -> Iterator[str]:
    """The planar-rotation text of the graph on n vertices with these
    rotations, in id order, in chunks of whole lines: a writer holds one
    chunk and never the whole text, and the rotations are read a run at a
    time, so that a generator of them is never held whole either."""
    text = (template % ids for template, ids in _chunks(rotations, 0))
    return _planar_text(n, text, outer, sorted(dict(labels or ()).items()))


def layout_planar_lines(h: Layout, labels: Iterable[tuple[str, int]] = ()) -> Iterator[str]:
    """rotation_lines of H(n, k) from its layout, in chunks, with none of
    H's rotations assembled.

    The lines of a shape's non-hub vertices are made into templates, with
    the hub ids written in, and filled for each of its blocks j with the
    other ids plus j * (b - 2), which is `vertex(j, v)`.  A hub's line is
    written a block at a time from the shapes' hub rotations, in the order
    `build_construction` glues them: blocks s-1..0 at x and 0..s-1 at y,
    then the other hub.  The (name, id) label pairs must come in name order,
    and are written as they are read.
    """
    half = h.plan.block_size - 2

    def hub_line(hub: int, other: int, order) -> Iterator[str]:
        yield "v %d:" % hub
        for _, js, m in order(h.shapes):
            rot = m.rotations[hub]  # lists no hub: the shape lacks the edge xy
            template = " %d" * len(rot)
            for j in order(js):
                yield template % tuple(map((j * half).__add__, rot))
        yield " %d\n" % other

    def vertex_text() -> Iterator[str]:
        yield from hub_line(h.x, h.y, reversed)
        yield from hub_line(h.y, h.x, iter)
        for _, js, m in h.shapes:
            kept = list(_chunks(m.rotations, 2)) if len(js) >= _KEPT_BLOCKS else None
            for j in js:
                shift = (j * half).__add__
                for template, ids in kept or _chunks(m.rotations, 2):
                    yield template % tuple(map(shift, ids))

    return _planar_text(h.plan.n, vertex_text(), (h.x, h.y), labels)


def encode_planar(g: EmbeddedGraph, labels: Labels | None = None) -> str:
    return "".join(rotation_lines(g.n, g.rotations, g.outer_edge, labels))


# decode_planar splits its text into lines this many characters at a time
_BLOCK = 1 << 16


def _blocks(text: str) -> Iterator[str]:
    """text in blocks of whole lines, each at least _BLOCK characters but
    the last: a block ends with a "\\n", so it never splits the "\\r\\n"
    of a line end, and its splitlines() are the lines of text.splitlines()."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK) + 1 or len(text)
        yield text[start:end]
        start = end


class _Shared(dict):
    """The first int object read for each id, so that every rotation shares
    one int per vertex.  Keyed by the int: a memo keyed by the token, such
    as `cache(int)`, would keep each token's string alive."""

    __slots__ = ()

    def __missing__(self, v: int) -> int:
        self[v] = v
        return v


def decode_planar(text: str) -> tuple[EmbeddedGraph, dict[str, int]]:
    """The graph and labels of planar-rotation text, which is split into
    lines a block at a time: no list of all its lines is held."""
    lines = chain.from_iterable(map(str.splitlines, _blocks(text)))
    if next(lines, "").strip() != ROTATION_FORMAT_HEADER:
        raise ParseError(f"missing '{ROTATION_FORMAT_HEADER}' header line")

    def fail(lineno: int, msg: str):
        raise ParseError(f"line {lineno + 1}: {msg}")

    n = None
    # the rotations of vertices 0, 1, ... while the records come in id order,
    # and of every record from the first one out of order on
    records: list[tuple[int, ...]] = []
    later: dict[int, tuple[int, ...]] = {}
    outer = None
    labels: dict[str, int] = {}
    share = _Shared().__getitem__
    for ln, raw in enumerate(lines, start=1):
        parts = raw.split()  # a blank line has no parts, and a comment starts with "#"
        if not parts or parts[0][0] == "#":
            continue
        try:
            if parts[0] == "v":  # the one record of each vertex, so tested first
                v = int(parts[1].rstrip(":"))
                if v == len(records) and not later:
                    records.append(tuple(map(share, map(int, parts[2:]))))
                elif v in later or 0 <= v < len(records):
                    fail(ln, f"duplicate record for vertex {v}")
                else:
                    later[share(v)] = tuple(map(share, map(int, parts[2:])))
            elif parts[0] == "n":
                if n is not None:
                    fail(ln, "duplicate 'n' record")
                _, vertex_count = parts
                n = int(vertex_count)
                if n < 0:
                    fail(ln, f"negative vertex count {n}")
            elif parts[0] == "outer":
                if outer is not None:
                    fail(ln, "duplicate 'outer' record")
                _, u, v = parts
                outer = (int(u), int(v))
            elif parts[0] == "label":
                _, name, v = parts
                if name in labels:
                    fail(ln, f"duplicate label {name!r}")
                labels[name] = int(v)
            else:
                fail(ln, f"unknown record {parts[0]!r}")
        except (ValueError, IndexError) as exc:
            if isinstance(exc, ParseError):
                raise
            fail(ln, f"malformed record: {raw!r}")
    del lines, share  # neither is needed while the graph is validated
    if n is None:
        raise ParseError("missing 'n' record")
    if outer is None:
        raise ParseError("missing 'outer' record")
    # checked before anything of size n is allocated
    if len(records) + len(later) != n:
        raise ParseError(f"'n {n}' but {len(records) + len(later)} vertex records")
    rest = range(len(records), n)
    if not all(map(later.__contains__, rest)):
        raise ParseError("vertex records do not cover 0..n-1 exactly")
    records += map(later.__getitem__, rest)
    g = EmbeddedGraph(tuple(records), outer)
    del records, later
    try:
        g.validate()
    except GraphStructureError as exc:
        raise ParseError(f"inconsistent embedding: {exc}")
    for name, v in labels.items():
        if not 0 <= v < n:
            raise ParseError(f"label {name} points at missing vertex {v}")
    return g, labels


# -- DOT ----------------------------------------------------------------------


def export_dot(g: EmbeddedGraph, labels: Labels | None = None) -> str:
    """Deterministic DOT text; hub vertices x and y are double circled."""
    by_vertex: dict[int, list[str]] = {}
    for name, v in dict(labels or ()).items():
        by_vertex.setdefault(v, []).append(name)
    lines = ["graph H {", "  node [shape=circle];"]
    for v in range(g.n):
        names = sorted(by_vertex.get(v, []))
        attrs = []
        if names:
            attrs.append(f'label="{v}:{",".join(names)}"')
        if any(nm in ("x", "y") for nm in names):
            attrs.append("shape=doublecircle")
        lines.append(f"  {v}" + (f" [{', '.join(attrs)}]" if attrs else "") + ";")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
