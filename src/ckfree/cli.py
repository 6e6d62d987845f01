"""Command-line interface.

Subcommands: gen-t, gen-h, verify, circumference, bounds, lemma-check.

gen-h writes its block plan to `<out>.plan.json`, or to stderr when the
graph goes to stdout; its planar text is written from H's layout, and only
`--format g6|dot` assembles H.  `verify --n` certifies H(n, k) by the DP of
its blocks and checks the witness against the layout, so n may exceed
MAX_VERTICES, up to MAX_LAYOUT_VERTICES.

`verify --input` and `circumference` read a graph file, graph6 when its
text is one line of graph6 characters and planar-rotation otherwise, and
solve it through `certify.circumference`: by the insertion-tree DP when it
is stacked triangulations glued at one edge's ends, and by the search
otherwise.  verify's JSON "mode" says which ran; on a false verdict its
"k_cycle" is the longest-cycle witness when the circumference equals k, and
else the k-cycle that the exact-k search found.

Exit codes: 0 success / verdict true; 1 verdict false; 2 domain or usage
error, an unreadable input or unwritable output included; 3 parse error; 4
inconclusive (a budget ran out and left the answer unsettled); 5 internal
error (an unexpected exception, reported on one stderr line).
`--node-limit` and `--time-limit` are the only source of a search budget and
apply to each search; `verify --n` and `lemma-check` check them but run no
search.

`main` may be called repeatedly in one process.  It builds its parser once,
on the first call rather than at import, and reuses it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

from . import bounds as bounds_mod
from . import codec
from .certify import (
    DEFAULT_BUDGET,
    SearchBudget,
    block_values,
    certify_ck_free_structural,
    certify_graph,
    circumference,
    lemma_values,
)
from .construction import (
    MAX_VERTICES,
    DomainError,
    ResourceError,
    block_plan,
    build_construction,
    choose_level,
    layout,
    level_order,
    moon_moser,
    moon_moser_order,
    tower_rotations,
)
from .embedding import EmbeddedGraph, GraphStructureError

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_DOMAIN = 2
EXIT_PARSE = 3
EXIT_INCONCLUSIVE = 4
EXIT_INTERNAL = 5


def _budget(args: argparse.Namespace) -> SearchBudget:
    return SearchBudget(args.node_limit, args.time_limit)


def _write(path: str | None, chunks: Iterable[str]) -> None:
    """Write the text chunks in turn to the file `path`, or to stdout."""
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
    else:
        try:
            with open(path, "w") as f:
                f.writelines(chunks)
        except OSError as exc:
            raise DomainError(f"cannot write {path}: {exc.strerror}") from None


def _emit_graph(g: EmbeddedGraph, labels: codec.Labels, fmt: str, out: str | None) -> None:
    if fmt == "g6":
        _write(out, [codec.encode_graph6(g), "\n"])
    else:  # dot: gen-t and gen-h write planar text themselves
        _write(out, [codec.export_dot(g, labels)])


def _load_graph(path: str) -> EmbeddedGraph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror}") from None
    # graph6 is one line of "?".."~"; a planar header holds a space and a "-"
    if not re.fullmatch(r"\s*(>>graph6<<)?[?-~]+\s*", text):
        return codec.decode_planar(text)[0]
    return codec.graph6_graph(text)


def _lexicographic(m: int) -> Iterator[int]:
    """1..m in the order of their decimal strings: 1, 10, 100, ..., 2, 20, ..."""
    j = 1
    for _ in range(m):
        yield j
        if j * 10 <= m:
            j *= 10
        else:
            while j % 10 == 9 or j == m:  # the last string with this prefix
                j //= 10
            j += 1


def _h_labels(h) -> Iterator[tuple[str, int]]:
    """H's labels (name, id) in name order, with no list of them: the apexes
    w1, w10, ..., the hubs x and y, then the outer vertices z1, z10, ...
    w_j and z_j are block j - 1's first neighbors at x and at y
    (`Layout.first_neighbors`), read from its shape: the full blocks' for
    j up to their count, else the last block's.  A 3-vertex block, only ever
    the last, has no apex."""
    half = h.plan.block_size - 2
    full = h.shapes[0][1].stop  # the blocks of the first shape, 0..full-1

    def named(prefix: str, hub: int, count: int) -> Iterator[tuple[str, int]]:
        # block j - 1's first neighbor at the hub is u + (j - 1) * half, with
        # u its shape's: the first shape's, or else the last block's
        first, last = (m.rotations[hub][0] - half for _, _, m in (h.shapes[0], h.shapes[-1]))
        for j in _lexicographic(count):
            yield f"{prefix}{j}", (first if j <= full else last) + j * half

    yield from named("w", h.x, h.plan.s - (h.plan.v_s == 3))
    yield from (("x", h.x), ("y", h.y))
    yield from named("z", h.y, h.plan.s)


def cmd_gen_t(args) -> int:
    labels = {"x": 0, "y": 1, "z": 2}  # the outer triangle, as in MoonMoserGraph
    if args.format == "planar":  # each rotation written as it is read, T never held
        rotations = tower_rotations(args.level)  # grown, or refused, before the output opens
        _write(args.out, codec.rotation_lines(level_order(args.level), rotations, (0, 1), labels))
        return EXIT_OK
    if args.format == "g6":  # refused before T is grown
        codec.graph6_order(level_order(args.level))
    _emit_graph(moon_moser(args.level).graph, labels, args.format, args.out)
    return EXIT_OK


def cmd_gen_h(args) -> int:
    if args.format == "planar":  # written from the shapes, H never assembled
        h = layout(args.n, args.k, limit=MAX_VERTICES)
        _write(args.out, codec.layout_planar_lines(h, _h_labels(h)))
    else:
        if args.format == "g6":  # refused before H is assembled, once the plan is valid
            codec.graph6_order(block_plan(args.n, args.k).n)
        h = build_construction(args.n, args.k)
        _emit_graph(h.graph, _h_labels(h), args.format, args.out)
    plan = {
        "n": h.plan.n,
        "k": h.plan.k,
        "i": h.plan.i,
        "s": h.plan.s,
        "v_s": h.plan.v_s,
        "edges": h.edge_count,
    }
    if args.out not in (None, "-"):
        _write(args.out + ".plan.json", [json.dumps(plan, indent=2), "\n"])
    else:  # the graph went to stdout, which must stay one readable file
        sys.stderr.write(json.dumps(plan) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    budget = _budget(args)
    if args.input is not None:
        if args.k is None:
            raise DomainError("--k is required with --input")
        if args.n is not None:
            raise DomainError("--n cannot be given with --input, which fixes the graph")
        g = _load_graph(args.input)
        r = certify_graph(g, args.k, budget)
        report = {"mode": r.mode}
    else:
        if args.n is None or args.k is None:
            raise DomainError("need either --input or both --n and --k")
        r = certify_ck_free_structural(layout(args.n, args.k))
        report = {"mode": r.mode, "n": args.n}
    report.update(
        k=r.k,
        circumference=r.circumference,
        circumference_conclusive=r.circumference_conclusive,
        verdict=r.verdict,
        conclusive=r.conclusive,
        witness=list(r.witness.vertices) if r.witness else None,
    )
    if r.k_cycle is not None:
        report["k_cycle"] = list(r.k_cycle.vertices)
    # a k-cycle or a true verdict is settled even when the circumference search ran out
    code = EXIT_FALSE if r.k_cycle is not None else EXIT_OK if r.verdict else EXIT_INCONCLUSIVE
    if args.json:
        print(json.dumps(report))
    else:
        state = {EXIT_FALSE: "NOT C_k-free", EXIT_OK: "C_k-free"}.get(code, "inconclusive")
        at = "=" if r.circumference_conclusive else ">="
        print(f"k={r.k} circumference{at}{r.circumference} -> {state}")
    return code


def cmd_circumference(args) -> int:
    g = _load_graph(args.input)
    _, out = circumference(g, _budget(args))
    if out.certificate is None:
        print("no cycle found" + ("" if out.conclusive else " (inconclusive)"))
    else:
        flag = "" if out.conclusive else " (inconclusive lower bound)"
        print(f"circumference {out.length}{flag}")
        print("cycle: " + " ".join(str(v) for v in out.certificate.vertices))
    return EXIT_OK if out.conclusive else EXIT_INCONCLUSIVE


def cmd_bounds(args) -> int:
    if args.k_min > args.k_max:
        raise DomainError(f"empty k range: --k-min {args.k_min} > --k-max {args.k_max}")
    if not args.n and (args.n_min is None or args.n_max is None):
        raise DomainError("give --n values or an --n-min/--n-max range")
    if args.n and (args.n_min is not None or args.n_max is not None):
        raise DomainError("--n cannot be given with --n-min or --n-max")
    # checked before any list is built; log_spaced gives at most max(count, 1) values
    n_count = len(args.n) if args.n else max(args.n_count, 1)
    row_count = (args.k_max - args.k_min + 1) * n_count
    if row_count > bounds_mod.MAX_BOUNDS_ROWS:
        raise ResourceError(
            f"the table would have up to {row_count} rows, limit is {bounds_mod.MAX_BOUNDS_ROWS}"
        )
    n_values = args.n or bounds_mod.log_spaced(args.n_min, args.n_max, args.n_count)
    # refused before the header: k >= 7 and the float range hold over the
    # whole grid when they hold at its corners
    choose_level(args.k_min)
    bounds_mod._check_float_range(max(n_values), args.k_max)
    skip = len(bounds_mod.CSV_HEADER) + 1
    # one k at a time, so no more than one k's rows are ever held
    tables = (bounds_mod.bounds_csv(bounds_mod.bounds_table([k], n_values))[skip:]
              for k in range(args.k_min, args.k_max + 1))
    _write(args.out, chain([bounds_mod.CSV_HEADER + "\n"], tables))
    return EXIT_OK


def cmd_lemma_check(args) -> int:
    if not 1 <= args.i_min <= args.i_max:
        raise DomainError(f"need 1 <= --i-min <= --i-max, got {args.i_min} and {args.i_max}")
    _budget(args)  # unused by the DP, but refused when no search could meet it
    if level_order(args.i_max) > MAX_VERTICES:
        raise ResourceError(f"level {args.i_max} needs more than {MAX_VERTICES} vertices")
    ok = True
    print("level  vertices  cycle  expect  path  expect  status")
    for i in range(args.i_min, args.i_max + 1):
        order = moon_moser_order(i)
        want_cycle, want_path = lemma_values(i)
        cyc, pat = block_values(i)
        status = "PASS" if (cyc.length, pat.length) == (want_cycle, want_path) else "FAIL"
        ok = ok and status == "PASS"
        print(
            f"{i:5d}  {order:8d}  {cyc.length:5d}  {want_cycle:6d}"
            f"  {pat.length:4d}  {want_path:6d}  {status}"
        )
    return EXIT_OK if ok else EXIT_FALSE


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--node-limit", type=int, default=DEFAULT_BUDGET.node_limit,
                   help="search node budget, >= 1")
    p.add_argument("--time-limit", type=float, default=DEFAULT_BUDGET.time_limit,
                   help="search seconds budget, > 0 (inf: no limit)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one definition of the `ckfree` grammar, built on the first call.

    Every later call returns the same parser, shared by all `main` calls in
    the process: parse with it, never mutate it.  It binds no handler; `main`
    looks up `cmd_<command>` when it runs.
    """
    ap = argparse.ArgumentParser(
        prog="ckfree",
        description="Build and certify cycle-free extremal planar graphs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-t", help="emit the level-i recursive triangulation")
    p.add_argument("--level", "-i", type=int, required=True)
    p.add_argument("--out", "-o", default=None)
    p.add_argument("--format", "-f", choices=("g6", "planar", "dot"), default="planar")

    p = sub.add_parser("gen-h", help="emit the glued construction H(n, k)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", "-o", default=None)
    p.add_argument("--format", "-f", choices=("g6", "planar", "dot"), default="planar")

    p = sub.add_parser("verify", help="certify absence of k-cycles")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--input", default=None,
                   help="graph file, graph6 or planar-rotation, instead of --n")
    p.add_argument("--json", action="store_true")
    _add_budget_flags(p)

    p = sub.add_parser("circumference", help="exact longest cycle of a graph file")
    p.add_argument("--input", required=True, help="graph file, graph6 or planar-rotation")
    _add_budget_flags(p)

    p = sub.add_parser("bounds", help="emit the bound-comparison CSV table")
    p.add_argument("--k-min", type=int, default=7)
    p.add_argument("--k-max", type=int, default=14)
    p.add_argument("--n", type=int, action="append", default=None,
                   help="explicit n value (repeatable)")
    p.add_argument("--n-min", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--n-count", type=int, default=50,
                   help="log-spaced sample count for the n range")
    p.add_argument("--out", "-o", default=None)

    p = sub.add_parser("lemma-check", help="compute block cycle/path values by the DP")
    p.add_argument("--i-min", type=int, default=2)
    p.add_argument("--i-max", type=int, default=3)
    _add_budget_flags(p)  # checked and unused: the DP does not search

    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = globals()["cmd_" + args.command.replace("-", "_")](args)
        sys.stdout.flush()  # a failed write to stdout shows here, not at exit
        return code
    except (codec.ParseError, UnicodeDecodeError) as exc:  # the input is read as UTF-8
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DomainError, ResourceError, GraphStructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:  # files report their own errors: this is stdout
        if sys.stdout is sys.__stdout__:  # so that the flush at exit goes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write standard output: {exc.strerror}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception as exc:  # a bug, never a verdict: keep it off codes 0 and 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
