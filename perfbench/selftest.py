"""Shows that each output check accepts a true output and rejects a corrupted one.

    python3 perfbench/selftest.py

The true outputs are made by the program on small instances; each corruption
is the kind of fault a check exists to catch.  Exits 0 when every check
behaves, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from ckfree import cli, encode_graph6, decode_graph6, moon_moser  # noqa: E402


def run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"ckfree {' '.join(argv)} exited {rc}")
    return out.getvalue()


def add_edge(text: str, u: int, v: int) -> str:
    """Rotation text with the extra edge u-v appended to both rotations."""
    lines = text.split("\n")
    for a, b in ((u, v), (v, u)):
        i = next(j for j, line in enumerate(lines) if line.startswith(f"v {a}:"))
        lines[i] += f" {b}"
    return "\n".join(lines)


def flip_first_chain_ok(csv: str) -> str:
    lines = csv.split("\n")
    i = next(j for j, line in enumerate(lines) if line.endswith(",true"))
    lines[i] = lines[i][: -len("true")] + "false"
    return "\n".join(lines)


def tamper_graph6(g6: str) -> str:
    """Toggle the lowest bit of the last body byte: one adjacency bit flips."""
    return g6[:-1] + chr(((ord(g6[-1]) - 63) ^ 1) + 63)


def cases(tmp: Path):
    n, k = 100, 13
    h_path = tmp / "h.txt"
    run_cli(["gen-h", "--n", str(n), "--k", str(k), "-o", str(h_path)])
    h_text = h_path.read_text()
    plan = Path(f"{h_path}.plan.json").read_text()
    facts = checks.check_h(h_text, n, k, plan)
    g = checks.parse_rotation(h_text)
    far = next(v for v in range(n) if v not in facts.adj[2] and v != 2)

    yield "H: extra edge", lambda: checks.check_h(add_edge(h_text, 2, far), n, k, plan), \
        lambda: checks.check_h(h_text, n, k, plan)
    wrong_plan = json.dumps({**json.loads(plan), "s": json.loads(plan)["s"] + 1})
    yield "H: plan sidecar with a wrong s", lambda: checks.check_h(h_text, n, k, wrong_plan), None

    report = run_cli(["verify", "--n", str(n), "--k", str(k), "--json"])
    r = json.loads(report)
    yield "structural verify: wrong circumference", \
        lambda: checks.check_structural_report(json.dumps({**r, "circumference": r["circumference"] - 1}), facts, n, k), \
        lambda: checks.check_structural_report(report, facts, n, k)
    w = r["witness"]
    stranger = next(v for v in range(n) if v not in w and v not in facts.adj[w[0]])
    bad_witness = [w[0], stranger] + w[2:]
    yield "structural verify: witness with a non-edge", \
        lambda: checks.check_structural_report(json.dumps({**r, "witness": bad_witness}), facts, n, k), None

    small = tmp / "s.txt"
    run_cli(["gen-h", "--n", "12", "--k", "9", "-o", str(small)])
    adj = [set(x) for x in checks.parse_rotation(small.read_text()).rot]
    lengths = checks.cycle_lengths(adj, 9)
    brute = run_cli(["verify", "--input", str(small), "--k", "9", "--json"])
    b = json.loads(brute)
    yield "brute verify: wrong circumference", \
        lambda: checks.check_brute_report(json.dumps({**b, "circumference": b["circumference"] + 1}), lengths, 9), \
        lambda: checks.check_brute_report(brute, lengths, 9)
    yield "brute verify: wrong verdict", \
        lambda: checks.check_brute_report(json.dumps({**b, "verdict": not b["verdict"]}), lengths, 9), None
    circ = run_cli(["circumference", "--input", str(small)])
    yield "circumference: wrong length", \
        lambda: checks.check_circumference_output(circ, adj, max(lengths) + 1), \
        lambda: checks.check_circumference_output(circ, adj, max(lengths))

    yield "embedding: rotation that is not planar", \
        lambda: checks.check_embedding_nx([list(reversed(x)) if v == 0 else list(x) for v, x in enumerate(g.rot)]), \
        lambda: checks.check_embedding_nx(g.rot)

    lemma = run_cli(["lemma-check", "--i-min", "2", "--i-max", "3"])
    yield "lemma-check: wrong cycle value", \
        lambda: checks.check_lemma_table(lemma.replace("    14      14", "    13      14"), range(2, 4)), \
        lambda: checks.check_lemma_table(lemma, range(2, 4))

    csv_path = tmp / "b.csv"
    ns = [10**4, 123_457, 10**9]
    run_cli(["bounds", "--k-min", "7", "--k-max", "40"] + [a for x in ns for a in ("--n", str(x))]
            + ["-o", str(csv_path)])
    csv = csv_path.read_text()
    yield "bounds CSV: flipped chain_ok", \
        lambda: checks.check_bounds_csv(flip_first_chain_ok(csv), list(range(7, 41)), ns), \
        lambda: checks.check_bounds_csv(csv, list(range(7, 41)), ns)
    yield "chain point: flipped verdict", lambda: checks.check_chain_point(10**9, 13, checks.expected_edges(10**9, 13), False), \
        lambda: checks.check_chain_point(10**9, 13, checks.expected_edges(10**9, 13), True)

    t3 = moon_moser(3).graph
    edges = set(t3.edges())
    g6 = encode_graph6(t3)
    yield "graph6: tampered string", lambda: checks.check_graph6(tamper_graph6(g6), decode_graph6(g6), t3.n, edges), \
        lambda: checks.check_graph6(g6, decode_graph6(g6), t3.n, edges)

    t_text = run_cli(["gen-t", "--level", "3"])
    t_rot = checks.parse_rotation(t_text).rot
    t_far = next(v for v in range(len(t_rot)) if v not in t_rot[0] and v != 0)
    yield "tower: extra edge", lambda: checks.check_tower(add_edge(t_text, 0, t_far), 3), \
        lambda: checks.check_tower(t_text, 3)


def main() -> int:
    bad = 0
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        for name, corrupted, pristine in cases(Path(tmp)):
            if pristine is not None:
                try:
                    pristine()
                except checks.CheckError as exc:
                    print(f"FAIL  {name}: the true output was rejected: {exc}")
                    bad += 1
                    continue
            try:
                corrupted()
            except checks.CheckError as exc:
                print(f"ok    {name}: rejected ({exc})")
            else:
                print(f"FAIL  {name}: the corrupted output was accepted")
                bad += 1
    print("selftest", "passed" if not bad else f"failed: {bad}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
