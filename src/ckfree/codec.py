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
from itertools import islice
from math import isqrt
from typing import Iterable, Mapping

from .construction import ResourceError
from .embedding import EmbeddedGraph, GraphStructureError


class ParseError(ValueError):
    """Malformed codec input; carries the offending byte offset or line."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte {offset})"
        super().__init__(message)


# -- graph6 ------------------------------------------------------------------


def _g6_size_header(n: int) -> str:
    if n < 0:
        raise GraphStructureError("negative vertex count")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    if n <= 68719476735:
        return "~~" + "".join(
            chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0)
        )
    raise GraphStructureError(f"n={n} too large for graph6")


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


def encode_graph6(g: EmbeddedGraph | tuple[int, Iterable[tuple[int, int]]]) -> str:
    """graph6 text of a labeled simple graph (embedding is not carried)."""
    n = g.n if isinstance(g, EmbeddedGraph) else g[0]
    header = _g6_size_header(n)
    if n > MAX_GRAPH6_VERTICES:
        raise ResourceError(
            f"graph6 output is limited to {MAX_GRAPH6_VERTICES} vertices, got {n}"
        )
    edges = g.edges() if isinstance(g, EmbeddedGraph) else g[1]
    nbits = n * (n - 1) // 2
    bits = bytearray(-(-nbits // 24) * 3)  # whole 4-character base64 groups
    for u, v in edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise GraphStructureError(f"bad edge ({u},{v})")
        if u > v:
            u, v = v, u
        p = v * (v - 1) // 2 + u
        bits[p >> 3] |= 0x80 >> (p & 7)
    body = binascii.b2a_base64(bits, newline=False).translate(_B64_TO_G6)[: (nbits + 5) // 6]
    return header + body.decode("ascii")


def decode_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    """(n, sorted edge list) from graph6 text."""
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
    bits = binascii.a2b_base64(body + b"A" * (-len(body) % 4))
    edges = []
    for m in _NONZERO_BYTE.finditer(bits):
        byte, base = m.group()[0], m.start() * 8
        for bit in range(8):
            if byte & (0x80 >> bit):
                p = base + bit
                j = (1 + isqrt(1 + 8 * p)) // 2
                edges.append((p - j * (j - 1) // 2, j))
    return n, sorted(edges)


# -- rotation format ---------------------------------------------------------

ROTATION_FORMAT_HEADER = "planar-rotation v1"


def encode_planar(g: EmbeddedGraph, labels: Mapping[str, int] | None = None) -> str:
    lines = [ROTATION_FORMAT_HEADER, f"n {g.n}"]
    for v, rot in enumerate(g.rotations):
        lines.append(f"v {v}: " + " ".join(map(str, rot)))
    lines.append(f"outer {g.outer_edge[0]} {g.outer_edge[1]}")
    for name in sorted(labels or {}):
        lines.append(f"label {name} {labels[name]}")
    lines.append("")  # the trailing newline, without a second copy of the text
    return "\n".join(lines)


def decode_planar(text: str) -> tuple[EmbeddedGraph, dict[str, int]]:
    lines = text.splitlines()
    if not lines or lines[0].strip() != ROTATION_FORMAT_HEADER:
        raise ParseError(f"missing '{ROTATION_FORMAT_HEADER}' header line")

    def fail(lineno: int, msg: str):
        raise ParseError(f"line {lineno + 1}: {msg}")

    n = None
    rotations: dict[int, tuple[int, ...]] = {}
    outer = None
    labels: dict[str, int] = {}
    for ln, raw in enumerate(islice(lines, 1, None), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "n":
                if n is not None:
                    fail(ln, "duplicate 'n' record")
                _, count = parts
                n = int(count)
                if n < 0:
                    fail(ln, f"negative vertex count {n}")
            elif parts[0] == "v":
                v = int(parts[1].rstrip(":"))
                if v in rotations:
                    fail(ln, f"duplicate record for vertex {v}")
                rotations[v] = tuple(map(int, parts[2:]))
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
    del lines  # the parsed text is not needed while the graph is validated
    if n is None:
        raise ParseError("missing 'n' record")
    if outer is None:
        raise ParseError("missing 'outer' record")
    # checked before anything of size n is allocated
    if len(rotations) != n:
        raise ParseError(f"'n {n}' but {len(rotations)} vertex records")
    if sorted(rotations) != list(range(n)):
        raise ParseError("vertex records do not cover 0..n-1 exactly")
    g = EmbeddedGraph(tuple(rotations[v] for v in range(n)), outer)
    del rotations
    try:
        g.validate()
    except GraphStructureError as exc:
        raise ParseError(f"inconsistent embedding: {exc}")
    for name, v in labels.items():
        if not 0 <= v < n:
            raise ParseError(f"label {name} points at missing vertex {v}")
    return g, labels


# -- DOT ----------------------------------------------------------------------


def export_dot(g: EmbeddedGraph, labels: Mapping[str, int] | None = None) -> str:
    """Deterministic DOT text; hub vertices x and y are double circled."""
    by_vertex: dict[int, list[str]] = {}
    for name, v in (labels or {}).items():
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
