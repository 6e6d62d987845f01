"""Command-line interface.

Subcommands: gen-t, gen-h, verify, circumference, bounds, lemma-check.

`verify --input` and `circumference` read a graph file, graph6 when its
text is one line of graph6 characters and planar-rotation otherwise, and
solve it through `certify.circumference`: by the insertion-tree DP when it
is stacked triangulations glued at one edge's ends, and by the search
otherwise.  verify's JSON "mode" says which ran; on a false verdict its
"k_cycle" is the longest-cycle witness when the circumference equals k, and
else the k-cycle that the exact-k search found.

Exit codes: 0 success / verdict true; 1 verdict false; 2 domain or usage
error, an unreadable input or unwritable output included; 3 parse error; 4
inconclusive (budget exhausted); 5 internal error (an unexpected exception,
reported on one stderr line).  Default search budgets can be overridden
with the CKFREE_NODE_LIMIT and CKFREE_TIME_LIMIT environment variables.

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
from pathlib import Path

from . import bounds as bounds_mod
from . import codec
from .certify import (
    DEFAULT_BUDGET,
    SearchBudget,
    block_values,
    certify_ck_free_brute,
    certify_ck_free_structural,
    certify_graph,
    circumference,
    lemma_values,
)
from .construction import (
    MAX_VERTICES,
    DomainError,
    ResourceError,
    build_construction,
    moon_moser,
    moon_moser_order,
)
from .embedding import EmbeddedGraph, GraphStructureError

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_DOMAIN = 2
EXIT_PARSE = 3
EXIT_INCONCLUSIVE = 4
EXIT_INTERNAL = 5


def _env(name: str, kind: type, default):
    text = os.environ.get(name)
    try:
        return default if text is None else kind(text)
    except ValueError:
        raise DomainError(f"{name} must be {kind.__name__}, got {text!r}") from None


def _budget(args: argparse.Namespace) -> SearchBudget:
    nodes = args.node_limit
    seconds = args.time_limit
    if nodes is None:
        nodes = _env("CKFREE_NODE_LIMIT", int, DEFAULT_BUDGET.node_limit)
    if seconds is None:
        seconds = _env("CKFREE_TIME_LIMIT", float, DEFAULT_BUDGET.time_limit)
    return SearchBudget(node_limit=nodes, time_limit=seconds)


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            Path(path).write_text(text)
        except OSError as exc:
            raise DomainError(f"cannot write {path}: {exc.strerror}") from None


def _emit_graph(g: EmbeddedGraph, labels: dict[str, int], fmt: str, out: str | None) -> None:
    if fmt == "g6":
        _write(out, codec.encode_graph6(g) + "\n")
    elif fmt == "planar":
        _write(out, codec.encode_planar(g, labels))
    elif fmt == "dot":
        _write(out, codec.export_dot(g, labels))
    else:
        raise DomainError(f"unknown format {fmt!r}")


def _load_graph(path: str) -> EmbeddedGraph:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror}") from None
    # graph6 is one line of "?".."~"; a planar header holds a space and a "-"
    if not re.fullmatch(r"(>>graph6<<)?[?-~]+", text.strip()):
        return codec.decode_planar(text)[0]
    n, edges = codec.decode_graph6(text)
    # rebuild an arbitrary rotation system; fine for abstract-graph searches
    rot: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        rot[u].append(v)
        rot[v].append(u)
    outer = (0, rot[0][0]) if n and rot[0] else (0, 0)
    return EmbeddedGraph(tuple(tuple(r) for r in rot), outer)


def _h_labels(h) -> dict[str, int]:
    labels = {"x": h.x, "y": h.y}
    for j, (wj, zj) in enumerate(zip(h.w, h.z), start=1):
        if wj is not None:
            labels[f"w{j}"] = wj
        labels[f"z{j}"] = zj
    return labels


def cmd_gen_t(args) -> int:
    t = moon_moser(args.level)
    _emit_graph(t.graph, {"x": t.x, "y": t.y, "z": t.z}, args.format, args.out)
    return EXIT_OK


def cmd_gen_h(args) -> int:
    h = build_construction(args.n, args.k)
    _emit_graph(h.graph, _h_labels(h), args.format, args.out)
    plan = {
        "n": h.plan.n,
        "k": h.plan.k,
        "i": h.plan.i,
        "s": h.plan.s,
        "v_s": h.plan.v_s,
        "edges": h.graph.edge_count,
    }
    sidecar = args.plan_out
    if sidecar is None and args.out not in (None, "-"):
        sidecar = args.out + ".plan.json"
    if sidecar is not None:
        _write(sidecar, json.dumps(plan, indent=2) + "\n")
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
        r = certify_graph(g, args.k, budget, args.mode)
        report = {"mode": r.mode}
    else:
        if args.n is None or args.k is None:
            raise DomainError("need either --input or both --n and --k")
        h = build_construction(args.n, args.k)
        if args.mode == "brute":
            r = certify_ck_free_brute(h, budget)
        else:
            r = certify_ck_free_structural(h)
        report = {"mode": r.mode, "n": args.n}
    report.update(
        k=r.k,
        circumference=r.circumference,
        verdict=r.verdict,
        conclusive=r.conclusive,
        witness=list(r.witness.vertices) if r.witness else None,
    )
    if r.k_cycle is not None:
        report["k_cycle"] = list(r.k_cycle.vertices)
    if args.json:
        print(json.dumps(report))
    else:
        state = "inconclusive" if not r.conclusive else ("C_k-free" if r.verdict else "NOT C_k-free")
        print(f"k={r.k} circumference={r.circumference} -> {state}")
    if not r.conclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK if r.verdict else EXIT_FALSE


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
    # checked before any list is built; log_spaced gives at most max(count, 1) values
    n_count = len(args.n) if args.n else max(args.n_count, 1)
    row_count = (args.k_max - args.k_min + 1) * n_count
    if row_count > bounds_mod.MAX_BOUNDS_ROWS:
        raise ResourceError(
            f"the table would have up to {row_count} rows, limit is {bounds_mod.MAX_BOUNDS_ROWS}"
        )
    k_values = range(args.k_min, args.k_max + 1)
    n_values = args.n or bounds_mod.log_spaced(args.n_min, args.n_max, args.n_count)
    rows = bounds_mod.bounds_table(k_values, n_values)
    _write(args.out, bounds_mod.bounds_csv(rows))
    return EXIT_OK


def cmd_lemma_check(args) -> int:
    if not 1 <= args.i_min <= args.i_max:
        raise DomainError(f"need 1 <= --i-min <= --i-max, got {args.i_min} and {args.i_max}")
    _budget(args)  # unused by the DP, but refused when no search could meet it
    # 3**i > 2**i, so capping i at the limit's bit length keeps the power small
    if moon_moser_order(min(args.i_max, MAX_VERTICES.bit_length())) > MAX_VERTICES:
        raise ResourceError(f"level {args.i_max} needs more than {MAX_VERTICES} vertices")
    ok = True
    print("level  vertices  cycle  expect  path  expect  status")
    for i in range(args.i_min, args.i_max + 1):
        order = moon_moser_order(i)
        want_cycle, want_path = lemma_values(i)
        cyc, pat = block_values(i, order)
        status = "PASS" if (cyc.length, pat.length) == (want_cycle, want_path) else "FAIL"
        ok = ok and status == "PASS"
        print(
            f"{i:5d}  {order:8d}  {cyc.length:5d}  {want_cycle:6d}"
            f"  {pat.length:4d}  {want_path:6d}  {status}"
        )
    return EXIT_OK if ok else EXIT_FALSE


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--node-limit", type=int, default=None, help="search node budget, >= 1")
    p.add_argument("--time-limit", type=float, default=None,
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
    p.add_argument("--plan-out", default=None, help="sidecar JSON path for the block plan")

    p = sub.add_parser("verify", help="certify absence of k-cycles")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--input", default=None,
                   help="graph file, graph6 or planar-rotation, instead of --n")
    p.add_argument("--mode", choices=("structural", "brute"), default=None,
                   help="default: structural, falling back to brute for an --input "
                        "graph that is not glued stacked triangulations")
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
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except codec.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DomainError, ResourceError, GraphStructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception as exc:  # a bug, never a verdict: keep it off codes 0 and 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
