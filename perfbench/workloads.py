"""The three workloads: each a fixed list of operations run as whole rounds.

An operation is a `ckfree` subcommand run in process through
`ckfree.cli.main`, with explicit search budgets so that CKFREE_* variables
cannot change the work, or, where no subcommand exists, one public library
call.  `setup` imports the package afresh and makes the inputs; `ops` lists
one round; `check` tests the first round's outputs with `checks`.  The
evidence handed to `check` holds only operations that succeeded.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import checks

# Conclusive searches get budgets no operation here comes near, so the work
# is fixed by the inputs alone.
BIG_NODES = str(10**8)
BIG_SECONDS = str(10**5)

MODULES = ("ckfree", "ckfree.embedding", "ckfree.construction", "ckfree.certify",
           "ckfree.codec", "ckfree.bounds", "ckfree.cli")


@dataclass
class Op:
    label: str
    kind: str  # groups operations into the named figures of the results file
    call: Callable[..., Any]
    # reduces a result, outside the timed region, to what the checks need
    evidence: Callable[[Any], Any] = lambda r: r
    work: float = 0.0  # kvertices, rows or points per operation, for rate figures
    known_fault: str | None = None  # why the operation fails today
    # when set, the Op stands for one operation call(*args) per entry, each
    # timed on its own; this keeps 300 000 chain points from costing an Op each
    batch: list[tuple] | None = None


@dataclass(frozen=True)
class CliResult:
    rc: int
    out: str
    err: str


def succeeded(result: Any) -> bool:
    return not isinstance(result, CliResult) or result.rc == 0


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    name = ""
    rounds = 1  # rounds whose mean times are the metrics

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def import_package(self) -> None:
        for key in [k for k in sys.modules if k == "ckfree" or k.startswith("ckfree.")]:
            del sys.modules[key]
        for name in MODULES:
            importlib.import_module(name)
        self.ck = sys.modules["ckfree"]
        self.cli = sys.modules["ckfree.cli"]

    def setup(self) -> None:
        """Import the package afresh and make the inputs from the seed."""
        self.rng = random.Random(self.seed)
        self.import_package()

    def cli_op(self, argv: list[str]) -> Callable[[], CliResult]:
        def call() -> CliResult:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
            return CliResult(rc, out.getvalue(), err.getvalue())

        return call

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self, ev: dict[str, Any]) -> list[str]:
        raise NotImplementedError

    def figures(self, times: dict[str, float], ops: list[Op]) -> dict[str, tuple[float, str]]:
        """The per-operation-class figures of one round, from per-Op seconds."""
        raise NotImplementedError


def _seconds(times: dict[str, float], ops: list[Op], kind: str) -> float:
    return sum(times[o.label] for o in ops if o.kind == kind)


def _rate(times: dict[str, float], ops: list[Op], kind: str) -> float:
    work = sum(o.work * (len(o.batch) if o.batch else 1) for o in ops if o.kind == kind)
    return work / _seconds(times, ops, kind)


def _attempt(fails: list[str], what: str, check: Callable[[], None]) -> None:
    # a malformed output (bad JSON, a missing field or line) fails its check
    try:
        check()
    except (checks.CheckError, ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
        fails.append(f"{what}: {type(exc).__name__}: {exc}")


# -- construct-large ------------------------------------------------------------

LARGE_N = 100_000
# k = 13: 20 000 seven-vertex blocks, hubs of degree ~40 000; k = 40: level-3
# blocks, the structural search's path case; k = 5000: four level-10 blocks.
LARGE_KS = (13, 40, 5000)
STRUCTURAL_K_MAX = 48  # up to level 3 the block searches finish
TOWER_LEVEL = 12
GRAPH6_LEVEL = 8


class ConstructLarge(Workload):
    name = "construct-large"

    def setup(self) -> None:
        super().setup()
        self.t8 = self.ck.moon_moser(GRAPH6_LEVEL).graph
        self.groups = list(LARGE_KS) + ["gen-t", "graph6"]
        self.rng.shuffle(self.groups)

    def ops(self) -> list[Op]:
        ck, n = self.ck, LARGE_N
        ops: list[Op] = []
        for group in self.groups:
            if group == "gen-t":
                path = self.workdir / "t12.txt"
                ops.append(Op(f"gen-t level={TOWER_LEVEL}", "gen_t",
                              self.cli_op(["gen-t", "--level", str(TOWER_LEVEL), "-o", str(path)]),
                              lambda r, p=path: (r, file_digest(p))))
            elif group == "graph6":
                def roundtrip(g=self.t8):
                    text = ck.encode_graph6(g)
                    return text, ck.decode_graph6(text)
                ops.append(Op(f"graph6 round trip T_{GRAPH6_LEVEL}", "graph6", roundtrip))
            else:
                ops += self._instance_ops(group, n)
        return ops

    def _instance_ops(self, k: int, n: int) -> list[Op]:
        ck = self.ck
        path = self.workdir / f"h_{k}.txt"
        ops = [Op(f"gen-h k={k}", "gen_h",
                  self.cli_op(["gen-h", "--n", str(n), "--k", str(k), "-o", str(path)]),
                  lambda r: (r, file_digest(path), Path(f"{path}.plan.json").read_text()),
                  work=n / 1e3)]
        if k <= STRUCTURAL_K_MAX:
            ops.append(Op(f"verify structural k={k}", "verify_structural",
                          self.cli_op(["verify", "--n", str(n), "--k", str(k), "--json",
                                       "--node-limit", BIG_NODES, "--time-limit", BIG_SECONDS]),
                          work=n / 1e3))

        def completion():
            h = ck.build_construction(n, k, validate=False)
            return h, ck.verify_completion(h)

        ops += [
            Op(f"reload k={k}", "load_planar", lambda: ck.decode_planar(path.read_text()),
               lambda r: checks.rotation_digest(r[0].rotations, r[0].outer_edge, r[1]),
               work=n / 1e3),
            Op(f"completion k={k}", "completion", completion,
               lambda r: (r[1], list(ck.completion_edges(r[0]).edges),
                          checks.rotation_digest(r[0].graph.rotations, r[0].graph.outer_edge)),
               work=n / 1e3),
        ]
        return ops

    def check(self, ev: dict[str, Any]) -> list[str]:
        fails: list[str] = []
        n = LARGE_N
        for k in LARGE_KS:
            if f"gen-h k={k}" not in ev:
                continue  # counted as failed; nothing was written to check
            path = self.workdir / f"h_{k}.txt"

            def instance(k=k, path=path):
                facts = checks.check_h(path.read_text(), n, k, ev[f"gen-h k={k}"][2])
                if f"verify structural k={k}" in ev:
                    checks.check_structural_report(ev[f"verify structural k={k}"].out, facts, n, k)
                if f"reload k={k}" in ev:
                    checks.require(ev[f"reload k={k}"] == facts.digest, "reload differs from the written H")
                if f"completion k={k}" in ev:
                    checks.check_completion(facts, *ev[f"completion k={k}"])

            _attempt(fails, f"H({n},{k})", instance)
        if f"gen-t level={TOWER_LEVEL}" in ev:
            _attempt(fails, f"T_{TOWER_LEVEL}",
                     lambda: checks.check_tower((self.workdir / "t12.txt").read_text(), TOWER_LEVEL))

        def graph6():
            g6, decoded = ev[f"graph6 round trip T_{GRAPH6_LEVEL}"]
            edges = {(min(u, v), max(u, v)) for u, r in enumerate(self.t8.rotations) for v in r}
            checks.require(len(self.t8.rotations) == checks.block_order(GRAPH6_LEVEL), "T_8 input order")
            checks.require(len(edges) == 3 * len(self.t8.rotations) - 6, "T_8 input edge count")
            checks.check_graph6(g6, decoded, len(self.t8.rotations), edges)

        if f"graph6 round trip T_{GRAPH6_LEVEL}" in ev:
            _attempt(fails, "graph6", graph6)
        return fails

    def figures(self, times, ops):
        f = {f"{kind}_kvertex_per_s": (_rate(times, ops, kind), "kvertex/s")
             for kind in ("gen_h", "verify_structural", "load_planar", "completion")}
        f["gen_t_s"] = (_seconds(times, ops, "gen_t"), "s")
        f["graph6_roundtrip_s"] = (_seconds(times, ops, "graph6"), "s")
        return f


# -- search-desk ----------------------------------------------------------------

DESK_N_MAX = 22
DESK_KS = range(7, 15)
DEEP = ((30, 28), (40, 28))  # two and three level-3 blocks: ~2.2 M nodes each
PROBE_LEVEL = 4
PROBE_NODES = 200_000
CYCLE_LEN = 1500  # deeper than the interpreter's default recursion limit of 1000
FAULT_N, FAULT_K, FAULT_NODES = 200, 49, 50_000  # level-4 blocks


class SearchDesk(Workload):
    name = "search-desk"

    def setup(self) -> None:
        super().setup()
        pairs = [(n, k) for k in DESK_KS
                 for n in range(checks.block_order(checks.level_for(k)), DESK_N_MAX + 1)]
        self.paths = {}
        for n, k in pairs + list(DEEP):
            path = self.workdir / f"h_{n}_{k}.txt"
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.cli.main(["gen-h", "--n", str(n), "--k", str(k), "-o", str(path)])
            if rc != 0:
                raise RuntimeError(f"gen-h could not make input H({n},{k}): exit {rc}")
            self.paths[n, k] = path
        lines = ["planar-rotation v1", f"n {CYCLE_LEN}"]
        lines += [f"v {v}: {(v - 1) % CYCLE_LEN} {(v + 1) % CYCLE_LEN}" for v in range(CYCLE_LEN)]
        self.cycle_path = self.workdir / "cycle.txt"
        self.cycle_path.write_text("\n".join(lines + ["outer 0 1", ""]))
        self.t4 = self.ck.moon_moser(PROBE_LEVEL)

    def ops(self) -> list[Op]:
        ck, t4 = self.ck, self.t4
        budget = ["--node-limit", BIG_NODES, "--time-limit", BIG_SECONDS]
        ops = [Op(f"verify input n={n} k={k}", "verify_input",
                  self.cli_op(["verify", "--input", str(path), "--k", str(k), "--json"] + budget))
               for (n, k), path in self.paths.items()]
        ops += [Op(f"circumference n={DESK_N_MAX} k={k}", "verify_input",
                   self.cli_op(["circumference", "--input", str(self.paths[DESK_N_MAX, k])] + budget))
                for k in DESK_KS]
        probe = ck.SearchBudget(node_limit=PROBE_NODES, time_limit=float(BIG_SECONDS))
        ops += [
            Op("lemma-check levels 2-3", "verify_input",
               self.cli_op(["lemma-check", "--i-min", "2", "--i-max", "3"] + budget)),
            Op(f"probe longest_cycle T_{PROBE_LEVEL}", "budget_probe",
               lambda: ck.longest_cycle(t4.graph, probe)),
            Op(f"probe longest_path_between T_{PROBE_LEVEL}", "budget_probe",
               lambda: ck.longest_path_between(t4.graph, t4.x, t4.y, probe)),
            Op(f"circumference C_{CYCLE_LEN}", "known_fault",
               self.cli_op(["circumference", "--input", str(self.cycle_path)] + budget),
               known_fault="the recursive longest_cycle raises RecursionError"),
            Op(f"verify structural n={FAULT_N} k={FAULT_K}", "known_fault",
               self.cli_op(["verify", "--n", str(FAULT_N), "--k", str(FAULT_K), "--json",
                            "--node-limit", str(FAULT_NODES), "--time-limit", BIG_SECONDS]),
               known_fault="branch-and-bound cannot finish a level-4 block: inconclusive"),
        ]
        self.rng.shuffle(ops)
        return ops

    def check(self, ev: dict[str, Any]) -> list[str]:
        fails: list[str] = []
        for (n, k), path in self.paths.items():
            if f"verify input n={n} k={k}" in ev:
                _attempt(fails, f"H({n},{k})", lambda n=n, k=k, path=path: self._check_input(ev, n, k, path))
        if "lemma-check levels 2-3" in ev:
            _attempt(fails, "lemma-check",
                     lambda: checks.check_lemma_table(ev["lemma-check levels 2-3"].out, range(2, 4)))
        _attempt(fails, "probes", lambda: self._check_probes(ev))
        _attempt(fails, "known faults", lambda: self._check_known_faults(ev))
        return fails

    def _check_input(self, ev, n: int, k: int, path: Path) -> None:
        g = checks.parse_rotation(path.read_text())
        checks.require(g.n == n, f"input has {g.n} vertices")
        checks.require(checks.simple_edge_count(g.rot) == checks.expected_edges(n, k), "input edge count")
        report = ev[f"verify input n={n} k={k}"].out
        if (n, k) in DEEP:
            # too many cycles for networkx: compare with the paper's values
            r = json.loads(report)
            want = checks.paper_circumference(checks.level_for(k))
            checks.require(r["circumference"] == want, f"circumference {r['circumference']} != {want}")
            checks.require(r["verdict"] is True and r["conclusive"] is True, "not certified C_k-free")
            return
        checks.check_embedding_nx(g.rot)
        adj = [set(r) for r in g.rot]
        lengths = checks.cycle_lengths(adj, k)
        checks.check_brute_report(report, lengths, k)
        label = f"circumference n={n} k={k}"
        if label in ev:
            checks.check_circumference_output(ev[label].out, adj, max(lengths))

    def _check_probes(self, ev) -> None:
        t4 = self.t4
        v = len(t4.graph.rotations)
        adj = [set(r) for r in t4.graph.rotations]
        checks.require(v == checks.block_order(PROBE_LEVEL), "T_4 input order")
        checks.require(sum(map(len, adj)) // 2 == 3 * v - 6, "T_4 input edge count")
        for label, limit in ((f"probe longest_cycle T_{PROBE_LEVEL}", 7 * 2 ** (PROBE_LEVEL - 2)),
                             (f"probe longest_path_between T_{PROBE_LEVEL}", 3 * 2 ** (PROBE_LEVEL - 1))):
            if label not in ev:
                continue
            o = ev[label]
            checks.require(o.certificate is not None, f"{label}: no certificate")
            vs = list(o.certificate.vertices)
            if "cycle" in label:
                checks.check_cycle(adj, vs, o.length)
            else:
                checks.check_path(adj, vs, t4.x, t4.y)
                checks.require(o.length == len(vs) - 1, "path length")
            checks.require(o.length <= limit, f"{label}: length {o.length} above {limit}")
            checks.require(o.conclusive or o.nodes == PROBE_NODES, f"{label}: stopped before its budget")

    def _check_known_faults(self, ev) -> None:
        """Checks for the two operations that fail today, for when they pass."""
        label = f"circumference C_{CYCLE_LEN}"
        if label in ev:
            adj = [{(v - 1) % CYCLE_LEN, (v + 1) % CYCLE_LEN} for v in range(CYCLE_LEN)]
            checks.check_circumference_output(ev[label].out, adj, CYCLE_LEN)
        label = f"verify structural n={FAULT_N} k={FAULT_K}"
        if label in ev:
            r = json.loads(ev[label].out)
            want = checks.paper_circumference(checks.level_for(FAULT_K))
            checks.require(r["circumference"] == want and r["verdict"] is True,
                           f"H({FAULT_N},{FAULT_K}): circumference {r['circumference']} != {want}")

    def figures(self, times, ops):
        return {
            "verify_input_s": (_seconds(times, ops, "verify_input"), "s"),
            "budget_probe_s": (_seconds(times, ops, "budget_probe"), "s"),
        }


# -- bounds-grid ----------------------------------------------------------------

GRID_KS = range(7, 1007)  # levels 1..8: every n of the grid is a valid order
GRID_N_COUNT = 300
GRID_LOG_N = (4, 9)  # n log-uniform in [10^4, 10^9], 10^9 always included
GRID_K_CHUNK = 50  # k values per `ckfree bounds` call


class BoundsGrid(Workload):
    name = "bounds-grid"
    # One round is ~8 s of calls of a few microseconds, which this machine's
    # drift moves most; three rounds average over a window like the others'.
    rounds = 3

    def setup(self) -> None:
        super().setup()
        ns = {10 ** GRID_LOG_N[1]}
        while len(ns) < GRID_N_COUNT:
            ns.add(round(10 ** self.rng.uniform(*GRID_LOG_N)))
        self.n_values = sorted(ns)

    def chunks(self) -> list[range]:
        return [range(k0, min(k0 + GRID_K_CHUNK, GRID_KS.stop))
                for k0 in range(GRID_KS.start, GRID_KS.stop, GRID_K_CHUNK)]

    def ops(self) -> list[Op]:
        n_args = [a for n in self.n_values for a in ("--n", str(n))]
        ops = []
        for ks in self.chunks():
            path = self.workdir / f"bounds_{ks.start}.csv"
            ops.append(Op(f"bounds k={ks.start}..{ks[-1]}", "bounds",
                          self.cli_op(["bounds", "--k-min", str(ks.start), "--k-max", str(ks[-1])]
                                      + n_args + ["-o", str(path)]),
                          lambda r, p=path: (r, file_digest(p)),
                          work=len(ks) * len(self.n_values)))
        chain = self.ck.verify_inequality_chain
        ops += [Op(f"chain k={k}", "chain", chain, lambda r: (r.exact_edges, r.ok), work=1,
                   batch=[(n, k) for n in self.n_values])
                for k in GRID_KS]
        return ops

    def check(self, ev: dict[str, Any]) -> list[str]:
        fails: list[str] = []
        for ks in self.chunks():
            if f"bounds k={ks.start}..{ks[-1]}" in ev:
                path = self.workdir / f"bounds_{ks.start}.csv"
                _attempt(fails, f"bounds k={ks.start}..{ks[-1]}",
                         lambda ks=ks, path=path: checks.check_bounds_csv(path.read_text(), list(ks), self.n_values))

        def chain():
            for k in GRID_KS:
                results = ev.get(f"chain k={k}")
                if results is None:
                    continue
                for n, point in zip(self.n_values, results):
                    if point is not None:  # None: the call failed and was counted
                        checks.check_chain_point(n, k, *point)

        _attempt(fails, "verify_inequality_chain", chain)
        return fails

    def figures(self, times, ops):
        return {
            "bounds_rows_per_s": (_rate(times, ops, "bounds"), "rows/s"),
            "chain_points_per_s": (_rate(times, ops, "chain"), "points/s"),
        }


WORKLOADS = {w.name: w for w in (ConstructLarge, SearchDesk, BoundsGrid)}
