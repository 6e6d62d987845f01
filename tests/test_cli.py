import argparse
import errno
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ckfree import (
    EmbeddedGraph,
    bounds_csv,
    bounds_table,
    build_construction,
    certify,
    cli,
    codec,
    construction,
    decode_graph6,
    decode_planar,
    delete_edge,
    encode_planar,
    export_dot,
    moon_moser,
    triangle,
)
from ckfree.bounds import log_spaced
from ckfree.cli import (
    EXIT_DOMAIN,
    EXIT_FALSE,
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_PARSE,
    build_parser,
    main,
)
from planar3trees import nx_rotations, retained_size, stacked_triangulation
from test_bounds import golden_grid_n

README = Path(__file__).parent.parent / "README.md"


def test_gen_t_planar(tmp_path, capsys):
    out = tmp_path / "t2.planar"
    assert main(["gen-t", "--level", "2", "--out", str(out)]) == EXIT_OK
    g, labels = decode_planar(out.read_text())
    assert g.n == 7
    assert labels == {"x": 0, "y": 1, "z": 2}


def test_gen_t_g6(tmp_path):
    out = tmp_path / "t1.g6"
    assert main(["gen-t", "-i", "1", "-f", "g6", "-o", str(out)]) == EXIT_OK
    assert out.read_text().strip() == "C~"


def test_gen_h_with_plan_sidecar(tmp_path):
    out = tmp_path / "h.planar"
    assert main(["gen-h", "--n", "20", "--k", "13", "--out", str(out)]) == EXIT_OK
    g, labels = decode_planar(out.read_text())
    assert g.n == 20 and g.edge_count == 51
    assert labels["x"] == 0 and "w1" in labels and "z4" in labels
    plan = json.loads((tmp_path / "h.planar.plan.json").read_text())
    assert plan == {"n": 20, "k": 13, "i": 2, "s": 4, "v_s": 5, "edges": 51}


@pytest.mark.parametrize("fmt", ["planar", "g6"])
def test_gen_h_to_stdout_reads_back_through_verify(tmp_path, capsys, fmt):
    assert main(["gen-h", "--n", "10", "--k", "7", "--format", fmt]) == EXIT_OK
    captured = capsys.readouterr()
    assert json.loads(captured.err) == {"n": 10, "k": 7, "i": 1, "s": 4, "v_s": 4, "edges": 21}
    f = tmp_path / f"h.{fmt}"
    f.write_text(captured.out)
    assert main(["verify", "--input", str(f), "--k", "7", "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["circumference"] == 6


PLANAR_PINS = json.loads((Path(__file__).parent / "data" / "planar_sha256.json").read_text())
# the whole text of one H, its label lines included: the H pins of
# planar_sha256.json hash the graph without them
LABELED_PINS = {"H(2000,13) labeled": "d730f488f9f49057293325e99cf51e20f58cb3d48800fd03e9557074c897ee73"}


def tower_text(level, encode=encode_planar):
    t = moon_moser(level)
    return encode(t.graph, {"x": t.x, "y": t.y, "z": t.z})


def h_text(n, k, encode=encode_planar):
    h = build_construction(n, k)
    return encode(h.graph, cli._h_labels(h))


@pytest.mark.parametrize("argv,pin,text", [
    (["gen-t", "--level", "9"], "T_9", lambda: tower_text(9)),
    (["gen-h", "--n", "2000", "--k", "100"], "H(2000,100)", lambda: h_text(2000, 100)),
    *((["gen-t", "--level", str(i)], f"T_{i}", lambda i=i: tower_text(i)) for i in (1, 2, 5)),
    # 400 blocks: the labels w1, w10, w100, w101, ... and z1, z10, ... in name order
    (["gen-h", "--n", "2000", "--k", "13"], "H(2000,13) labeled", lambda: h_text(2000, 13)),
])
@pytest.mark.parametrize("to_file", [True, False])
def test_streamed_planar_output_is_encode_planar_and_the_pin(tmp_path, capsys, argv, pin, text, to_file):
    out = tmp_path / "g.planar"
    assert main(argv + (["-o", str(out)] if to_file else [])) == EXIT_OK
    written = out.read_text() if to_file else capsys.readouterr().out
    assert written == text()
    if pin in LABELED_PINS:
        assert hashlib.sha256(written.encode()).hexdigest() == LABELED_PINS[pin]
        return
    if pin.startswith("H"):  # the H pins hash the graph without its label lines
        written = "".join(line for line in written.splitlines(keepends=True) if not line.startswith("label "))
    assert hashlib.sha256(written.encode()).hexdigest() == PLANAR_PINS[pin]


@pytest.mark.parametrize("argv,text", [
    (["gen-t", "--level", "3"], lambda: tower_text(3, export_dot)),
    (["gen-h", "--n", "40", "--k", "13"], lambda: h_text(40, 13, export_dot)),
], ids=["gen-t", "gen-h"])
@pytest.mark.parametrize("to_file", [True, False])
def test_dot_output_is_export_dot(tmp_path, capsys, argv, text, to_file):
    out = tmp_path / "g.dot"
    assert main(argv + ["--format", "dot"] + (["-o", str(out)] if to_file else [])) == EXIT_OK
    assert (out.read_text() if to_file else capsys.readouterr().out) == text()


def test_gen_h_to_an_unwritable_graph_path_exits_2_with_one_line(tmp_path, capsys):
    out = tmp_path / "missing" / "h.planar"
    assert main(["gen-h", "--n", "20", "--k", "13", "-o", str(out)]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: cannot write {out}: No such file or directory\n"
    assert not out.parent.exists()


def test_writing_a_tower_to_a_file_holds_no_list_of_lines(tmp_path, monkeypatch):
    t = moon_moser(9)
    # grown outside the trace, so that the writer alone is measured
    monkeypatch.setattr(cli, "tower_rotations", lambda level: iter(t.graph.rotations))
    out = tmp_path / "t9.planar"
    argv = ["gen-t", "--level", "9", "-o", str(out)]
    assert main(argv) == EXIT_OK  # the parser is built on the first call
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    # the file's buffers take some 64 kB; one string per vertex line, or the
    # joined text, would hold more than the 333 kB written
    assert size > 300_000 and peak < size / 3, (peak, size)


def test_gen_t_grows_and_writes_a_tower_in_less_than_its_graph(tmp_path):
    out = tmp_path / "t9.planar"
    argv = ["gen-t", "--level", "9", "-o", str(out)]
    assert main(argv) == EXIT_OK  # the parser is built on the first call
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # the dart arrays, with T_9's rotation tuples made one at a time as they
    # are written: about 0.96 times the graph; building the graph first and
    # then writing it took 1.35 times
    size = retained_size(moon_moser(9).graph)
    assert peak < 1.2 * size, (peak, size)


def test_gen_t_above_the_vertex_limit_exits_2_and_writes_no_file(tmp_path, capsys):
    out = tmp_path / "t15.planar"
    assert construction.moon_moser_order(15) == 7_174_456 > construction.MAX_VERTICES
    assert main(["gen-t", "--level", "15", "-o", str(out)]) == EXIT_DOMAIN
    assert capsys.readouterr().err == (
        f"error: level 15 needs 7174456 vertices, limit is {construction.MAX_VERTICES}\n")
    assert not out.exists()


def test_writing_h_with_its_labels_holds_no_list_of_them(tmp_path):
    out = tmp_path / "h.planar"
    argv = ["gen-h", "--n", "200000", "--k", "13", "-o", str(out)]
    assert main(argv) == EXIT_OK
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main(argv) == EXIT_OK  # the layout, its 80 000 labels and the text
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    # one dict of the labels, sorted for the writer, took more than the
    # 8.6 MB written
    assert size > 8_000_000 and peak < size / 3, (peak, size)


def test_verify_structural(capsys):
    assert main(["verify", "--n", "20", "--k", "13", "--json"]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["circumference"] == 12 and rep["verdict"] and rep["conclusive"]


def test_verify_file_input_with_cycle(tmp_path, capsys):
    f = tmp_path / "t2.g6"
    main(["gen-t", "-i", "2", "-f", "g6", "-o", str(f)])
    # T_2 is Hamiltonian on 7 vertices, so it does contain a 7-cycle
    assert main(["verify", "--input", str(f), "--k", "7"]) == EXIT_FALSE
    assert main(["verify", "--input", str(f), "--k", "8"]) == EXIT_OK


def hubs_not_adjacent(tmp_path):
    """H(30, 25) minus its edge xy: not recognised, so it goes to the search."""
    f = tmp_path / "hubs_not_adjacent.planar"
    f.write_text(encode_planar(delete_edge(build_construction(30, 25).graph, 0, 1)))
    return f


def test_verify_inconclusive_budget(tmp_path, capsys):
    argv = ["verify", "--input", str(hubs_not_adjacent(tmp_path)), "--k", "25"]
    assert main(argv + ["--node-limit", "50", "--json"]) == EXIT_INCONCLUSIVE
    # the structural path solves the blocks exactly and takes no budget
    assert main(["verify", "--n", "30", "--k", "25", "--node-limit", "50"]) == EXIT_OK


def test_verify_domain_errors(tmp_path, capsys):
    assert main(["verify", "--n", "20", "--k", "6"]) == EXIT_DOMAIN
    assert main(["verify", "--k", "13"]) == EXIT_DOMAIN
    assert main(["verify", "--input", "x.g6"]) == EXIT_DOMAIN  # no --k
    f = tmp_path / "h.planar"
    main(["gen-h", "--n", "20", "--k", "13", "--out", str(f)])
    capsys.readouterr()
    assert main(["verify", "--input", str(f), "--k", "13", "--n", "20"]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "--n cannot be given with --input" in captured.err


def test_verify_input_errors_exit_2_with_one_line(tmp_path, capsys):
    missing = tmp_path / "missing.planar"
    assert main(["verify", "--input", str(missing), "--k", "13"]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {missing}: ") and err.count("\n") == 1
    f = tmp_path / "h.txt"
    f.write_text(encode_planar(build_construction(20, 13).graph))
    assert main(["verify", "--input", str(f), "--k", "2"]) == EXIT_DOMAIN
    assert capsys.readouterr().err == "error: cycle length must be >= 3, got 2\n"


def test_circumference_command(tmp_path, capsys):
    f = tmp_path / "t3.planar"
    main(["gen-t", "-i", "3", "-o", str(f)])
    assert main(["circumference", "--input", str(f)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "circumference 14" in out
    assert "cycle:" in out


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.g6"
    bad.write_text("C")
    assert main(["circumference", "--input", str(bad)]) == EXIT_PARSE


def test_comments_and_blank_lines_in_a_planar_file_are_skipped(tmp_path, capsys):
    f = tmp_path / "t3.planar"
    main(["gen-t", "-i", "3", "-o", str(f)])
    assert main(["circumference", "--input", str(f)]) == EXIT_OK
    plain = capsys.readouterr().out
    f.write_text(f.read_text().replace("\nv ", "\n# a comment\n\n   \nv ").replace("outer", "  # x\nouter"))
    assert main(["circumference", "--input", str(f)]) == EXIT_OK
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize("mangle,message", [
    (lambda t: t.replace("outer 0 1", "edge 0 1\nouter 0 1"), "line 7: unknown record 'edge'"),
    (lambda t: t.replace("n 4\n", ""), "missing 'n' record"),
    (lambda t: t.replace("label x 0", "label x 4"), "label x points at missing vertex 4"),
], ids=["unknown record", "no n record", "label out of range"])
def test_malformed_planar_files_exit_3_with_one_line(tmp_path, capsys, mangle, message):
    f = tmp_path / "k4.planar"
    main(["gen-t", "-i", "1", "-o", str(f)])
    f.write_text(mangle(f.read_text()))
    assert main(["circumference", "--input", str(f)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"parse error: {message}\n"


@pytest.mark.parametrize("command", ["verify", "circumference"])
def test_input_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, command):
    f = tmp_path / "bytes"
    f.write_bytes(b"\xff\xfe\x00")
    argv = [command, "--input", str(f)] + (["--k", "7"] if command == "verify" else [])
    assert main(argv) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("parse error: 'utf-8' codec can't decode byte 0xff in position 0:"
                            " invalid start byte\n")


@pytest.mark.parametrize("outer", ["99 0", "-1 0"])
def test_an_outer_edge_out_of_range_is_a_parse_error(tmp_path, capsys, outer):
    f = tmp_path / "k4.planar"  # -1 would alias vertex 3, a neighbour of 0
    main(["gen-t", "-i", "1", "-o", str(f)])
    f.write_text(f.read_text().replace("outer 0 1", f"outer {outer}"))
    assert main(["circumference", "--input", str(f)]) == EXIT_PARSE
    assert "outer-face edge is not an edge" in capsys.readouterr().err


def write_planar_path_or_cycle(path, n, closed):
    """planar-rotation text of the cycle C_n, or of the path on n vertices."""
    lines = ["planar-rotation v1", f"n {n}"]
    for v in range(n):
        nbrs = [u % n for u in (v - 1, v + 1) if closed or 0 <= u < n]
        lines.append(f"v {v}: " + " ".join(map(str, nbrs)))
    path.write_text("\n".join(lines + ["outer 0 1", ""]))


def test_circumference_of_a_long_cycle(tmp_path, capsys):
    f = tmp_path / "c1500.planar"
    write_planar_path_or_cycle(f, 1500, closed=True)
    assert main(["circumference", "--input", str(f)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("circumference 1500\n")


def test_circumference_above_the_search_limit_is_a_domain_error(tmp_path, capsys):
    f = tmp_path / "path.planar"
    write_planar_path_or_cycle(f, certify.MAX_SEARCH_VERTICES + 1, closed=False)
    assert main(["circumference", "--input", str(f)]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_circumference_of_one_vertex(tmp_path, capsys):
    f = tmp_path / "one.planar"
    f.write_text("planar-rotation v1\nn 1\nv 0:\nouter 0 0\n")
    assert main(["circumference", "--input", str(f)]) == EXIT_OK
    assert capsys.readouterr().out == "no cycle found\n"


def test_graph6_padding_bits_are_a_parse_error(tmp_path, capsys):
    f = tmp_path / "x.g6"
    f.write_text("A`\n")
    assert main(["circumference", "--input", str(f)]) == EXIT_PARSE
    assert "padding bits (at byte 1)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen-t", "gen-h", "bounds"])
def test_unwritable_output_is_a_domain_error(tmp_path, capsys, command):
    missing = tmp_path / "missing"
    (tmp_path / "h.planar.plan.json").mkdir()  # the gen-h sidecar's path is a directory
    argv = {
        "gen-t": ["gen-t", "--level", "2", "-o", str(tmp_path)],  # a directory
        "gen-h": ["gen-h", "--n", "20", "--k", "13", "-o", str(tmp_path / "h.planar")],
        "bounds": ["bounds", "--k-min", "7", "--k-max", "8", "--n", "100",
                   "-o", str(missing / "b.csv")],
    }[command]
    assert main(argv) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


SRC = Path(__file__).parent.parent / "src"


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["gen-t", "--level", "9"],  # more than a pipe holds, by writelines
    ["verify", "--n", "20", "--k", "13"],  # one line, by print
], ids=["gen-t", "verify"])
def test_a_closed_stdout_pipe_exits_2_with_one_line(argv, buffered):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    os.close(r)  # no reader: every write to the pipe fails
    try:
        run = subprocess.run([sys.executable, "-B", "-m", "ckfree.cli", *argv], stdout=w,
                             stderr=subprocess.PIPE, env=env, text=True, timeout=300)
    finally:
        os.close(w)
    assert run.returncode == EXIT_DOMAIN
    assert run.stderr == f"error: cannot write standard output: {os.strerror(errno.EPIPE)}\n"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    code = "import sys, ckfree.cli, ckfree.stacked; print({'dataclasses', 'inspect'} & set(sys.modules))"
    run = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert (run.returncode, run.stdout, run.stderr) == (0, "set()\n", "")


class FullStdout(io.StringIO):
    """Standard output on a full disk."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("argv", [
    ["gen-t", "--level", "2"],
    ["bounds", "--n", "100"],
    ["verify", "--n", "20", "--k", "13"],
    ["lemma-check"],
], ids=["gen-t", "bounds", "verify", "lemma-check"])
def test_a_full_stdout_exits_2_with_one_line(capsys, monkeypatch, argv):
    with monkeypatch.context() as m:
        m.setattr(sys, "stdout", FullStdout())
        code = main(argv)
    assert code == EXIT_DOMAIN
    assert capsys.readouterr().err == f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("header", ["", ">>graph6<<"])
def test_petersen_graph6_file_reports_the_k_cycle_of_a_false_verdict(tmp_path, capsys, header):
    G = nx.petersen_graph()  # cycles of lengths 5, 6, 8 and 9
    f = tmp_path / "petersen"  # graph6 text, told by its content, not its name
    f.write_text(header + nx.to_graph6_bytes(G, header=False).decode())
    code, rep = verify_json(capsys, ["verify", "--input", str(f), "--k", "7"])
    assert code == EXIT_OK and rep["mode"] == "brute" and "k_cycle" not in rep
    assert rep["verdict"] and rep["conclusive"] and rep["circumference"] == 9
    code, rep = verify_json(capsys, ["verify", "--input", str(f), "--k", "8"])
    assert code == EXIT_FALSE and not rep["verdict"] and rep["conclusive"]
    assert len(rep["witness"]) == 9
    cycle = rep["k_cycle"]
    assert len(cycle) == len(set(cycle)) == 8
    assert all(G.has_edge(u, cycle[i - 1]) for i, u in enumerate(cycle))


def graph6_file(tmp_path, G):
    f = tmp_path / "g.g6"
    f.write_text(nx.to_graph6_bytes(G, header=False).decode())
    return f


def test_a_k_cycle_settles_verify_when_the_circumference_search_runs_out(tmp_path, capsys):
    argv = ["verify", "--input", str(graph6_file(tmp_path, nx.petersen_graph())),
            "--k", "5", "--node-limit", "20"]
    code, rep = verify_json(capsys, argv)
    assert code == EXIT_FALSE and not rep["verdict"] and not rep["conclusive"]
    assert rep["k_cycle"] == [0, 1, 2, 3, 4]
    assert main(argv) == EXIT_FALSE
    assert capsys.readouterr().out == f"k=5 circumference>={rep['circumference']} -> NOT C_k-free\n"


def test_a_true_verdict_settles_verify_when_the_circumference_search_runs_out(tmp_path, capsys):
    grid = nx.convert_node_labels_to_integers(nx.grid_2d_graph(9, 11))  # bipartite: no C_5
    f = graph6_file(tmp_path, grid)
    argv = ["verify", "--input", str(f), "--k", "5", "--node-limit", "100000"]
    code, rep = verify_json(capsys, argv)
    assert code == EXIT_OK and rep["verdict"] and not rep["conclusive"] and "k_cycle" not in rep
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == f"k=5 circumference>={rep['circumference']} -> C_k-free\n"
    # neither search settles k = 51 within a second: the circumference is
    # only the lower bound the search reached
    assert main(["verify", "--input", str(f), "--k", "51", "--time-limit", "1"]) == EXIT_INCONCLUSIVE
    assert re.fullmatch(r"k=51 circumference>=\d+ -> inconclusive\n", capsys.readouterr().out)


def test_a_settled_circumference_prints_exact_when_only_the_k_search_runs_out(tmp_path, capsys):
    f = tmp_path / "t3.txt"
    assert main(["gen-t", "--level", "3", "-o", str(f)]) == EXIT_OK
    argv = ["verify", "--input", str(f), "--k", "10", "--node-limit", "1"]
    code, rep = verify_json(capsys, argv)  # the DP settles 14; the search for a 10-cycle runs out
    assert code == EXIT_INCONCLUSIVE and rep["circumference"] == 14 and not rep["conclusive"]
    assert main(argv) == EXIT_INCONCLUSIVE
    assert capsys.readouterr().out == "k=10 circumference=14 -> inconclusive\n"


@pytest.mark.parametrize("command", ["verify", "circumference"])
def test_a_graph6_file_denser_than_a_planar_graph_is_refused_before_its_edges_are_listed(
    tmp_path, capsys, command
):
    f = graph6_file(tmp_path, nx.complete_graph(200))
    argv = [command, "--input", str(f)] + (["--k", "7"] if command == "verify" else [])
    build_parser()  # built once per process, so kept out of the measurement
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_DOMAIN
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: graph6 input has 19900 edges; a planar graph on 200 vertices has at most 594\n"
    assert peak < 256 * 1024, peak  # the 19 900 listed edges took 2.3 MiB


def test_bounds_csv(tmp_path):
    out = tmp_path / "b.csv"
    assert main(
        ["bounds", "--k-min", "7", "--k-max", "14", "--n", "100", "-o", str(out)]
    ) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,k,i,s,exact_edges,thm2_lower,conj1,lan_song_slope,chain_ok"
    assert len(lines) == 9
    assert all(line.endswith("true") for line in lines[1:])


def test_bounds_csv_across_slope_and_level_changes(tmp_path):
    # k = 11 is the first k with a slope; the level changes at k = 13, 25 and 49
    ns = golden_grid_n()
    n_args = [a for n in ns for a in ("--n", str(n))]

    def run(k_min, k_max):
        out = tmp_path / f"b{k_min}.csv"
        argv = ["bounds", "--k-min", str(k_min), "--k-max", str(k_max), *n_args, "-o", str(out)]
        assert main(argv) == EXIT_OK
        return out.read_text()

    whole = run(7, 60)
    assert whole == bounds_csv(bounds_table(range(7, 61), ns))
    assert whole == run(7, 30) + run(31, 60).split("\n", 1)[1]


def test_bounds_log_grid(tmp_path):
    out = tmp_path / "b.csv"
    assert main(
        ["bounds", "--k-min", "13", "--k-max", "13",
         "--n-min", "10", "--n-max", "10000", "--n-count", "12", "-o", str(out)]
    ) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert len(lines) > 5


@pytest.mark.parametrize("argv,needle", [
    (["--n-min", "0", "--n-max", "100"], "n >= 1"),
    (["--n-min", "10", "--n-max", "-1"], "n >= 1"),
    (["--k-min", "3", "--k-max", "6", "--n", "100"], "got 3"),
    (["--k-min", "6", "--k-max", "8", "--n", "100"], "got 6"),
    ([], "give --n values or an --n-min/--n-max range"),
    (["--n", "100", "--n-min", "10", "--n-max", "1000"], "--n cannot be given with"),
    (["--k-min", "13", "--k-max", "14", "--n", "1" + "0" * 400], "float range"),
    (["--n-min", "10", "--n-max", "5"], "empty n range: 10 > 5"),
])
def test_bounds_hostile_ranges_are_domain_errors(argv, needle, capsys):
    assert main(["bounds"] + argv) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert needle in captured.err


def test_bounds_to_a_file_holds_one_k_of_rows_at_a_time(tmp_path):
    out = tmp_path / "b.csv"
    argv = ["bounds", "--k-min", "7", "--k-max", "106", "--n-min", "1000", "--n-max", str(10**9),
            "--n-count", "100", "-o", str(out)]
    assert main(argv) == EXIT_OK  # the parser is built on the first call
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    text = out.read_text()
    assert text.count("\n") == 1 + 100 * 100
    # 100 k of 100 rows: the whole table, or its CSV text, would hold more
    # than the 0.7 MB written
    assert peak < len(text) / 3, (peak, len(text))


def test_bounds_skips_n_below_the_block_order(capsys):
    assert main(["bounds", "--k-min", "13", "--k-max", "13", "--n", "5", "--n", "7"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["7"]


def test_bounds_link2_equality_point(capsys):
    assert main(["bounds", "--k-min", "12", "--k-max", "12", "--n", "9146220569123689"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1].endswith(",true")


def test_lemma_check(capsys):
    assert main(["lemma-check", "--i-min", "2", "--i-max", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") == 2
    assert " 7 " in out.splitlines()[1]


def test_unknown_flag_is_hard_error():
    for argv in (
        ["gen-t", "--level", "2", "--frobnicate"],
        ["verify", "--n", "12", "--k", "7", "--mode", "brute"],
        ["gen-h", "--n", "20", "--k", "13", "--plan-out", "p.json"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_DOMAIN


def test_env_budget(tmp_path, monkeypatch, capsys):
    # the flags are the only budget source: the variable sets no budget
    monkeypatch.setenv("CKFREE_NODE_LIMIT", "1")
    argv = ["verify", "--input", str(hubs_not_adjacent(tmp_path)), "--k", "25", "--json"]
    assert main(argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["conclusive"]


@pytest.mark.parametrize(
    "flag,name,value",
    [
        ("--time-limit", "CKFREE_TIME_LIMIT", "nan"),
        ("--time-limit", "CKFREE_TIME_LIMIT", "0"),
        ("--time-limit", "CKFREE_TIME_LIMIT", "-1"),
        ("--node-limit", "CKFREE_NODE_LIMIT", "0"),
        ("--node-limit", "CKFREE_NODE_LIMIT", "-3"),
    ],
)
def test_budget_no_search_could_meet_is_a_domain_error(
    tmp_path, monkeypatch, capsys, flag, name, value
):
    f = tmp_path / "c5.planar"
    write_planar_path_or_cycle(f, 5, closed=True)
    runs = [
        ["verify", "--n", "30", "--k", "28"],
        ["verify", "--input", str(f), "--k", "5"],
        ["circumference", "--input", str(f)],
        ["lemma-check", "--i-min", "2", "--i-max", "2"],
    ]

    def assert_refused(argv):
        assert main(argv) == EXIT_DOMAIN
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: search ") and err.count("\n") == 1

    for argv in runs:
        assert_refused(argv + [flag, value])
    monkeypatch.setenv(name, value)  # no longer a budget source, so never refused
    for argv in runs:
        assert main(argv) != EXIT_DOMAIN


def test_unbounded_time_limit_is_accepted(tmp_path, capsys):
    argv = ["verify", "--input", str(hubs_not_adjacent(tmp_path)), "--k", "25", "--node-limit", "50"]
    assert main(argv + ["--time-limit", "inf"]) == EXIT_INCONCLUSIVE


def test_verify_input_skips_exact_search_below_k(tmp_path, monkeypatch, capsys):
    f = tmp_path / "h.planar"
    main(["gen-h", "--n", "20", "--k", "13", "--out", str(f)])

    def exact_search(*args):
        raise AssertionError("circumference 12 < 13 already settles the verdict")

    monkeypatch.setattr(certify, "has_cycle_of_length", exact_search)
    capsys.readouterr()
    assert main(["verify", "--input", str(f), "--k", "13", "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "mode": "structural", "k": 13, "circumference": 12,
        "verdict": True, "conclusive": True,
        "witness": [0, 4, 3, 5, 2, 6, 1, 11, 7, 10, 8, 9],
    }


def test_verify_at_k_equal_to_the_circumference_keeps_the_witness(tmp_path, capsys):
    f = tmp_path / "t7.planar"
    assert main(["gen-t", "--level", "7", "-o", str(f)]) == EXIT_OK
    argv = ["verify", "--input", str(f), "--k", "224", "--node-limit", "1"]
    code, rep = verify_json(capsys, argv)  # one node: the exact-k search cannot run
    assert code == EXIT_FALSE and rep["mode"] == "structural"
    assert not rep["verdict"] and rep["conclusive"] and rep["circumference"] == 224
    assert rep["k_cycle"] == rep["witness"] and len(rep["witness"]) == 224


def test_repeated_bounds_calls_keep_no_n_values(capsys):
    grid = ["--n-min", "10", "--n-max", "10000", "--n-count", "12"]
    assert main(["bounds", "--k-min", "13", "--k-max", "13", "--n", "100", "--n", "200"]) == EXIT_OK
    assert [line.split(",")[0] for line in capsys.readouterr().out.splitlines()[1:]] == ["100", "200"]
    assert main(["bounds", "--k-min", "13", "--k-max", "13"] + grid) == EXIT_OK
    want = bounds_csv(bounds_table([13], log_spaced(10, 10000, 12)))
    assert capsys.readouterr().out == want


def test_verify_json_does_not_carry_over_to_the_next_call(capsys):
    argv = ["verify", "--n", "20", "--k", "13"]
    assert main(argv + ["--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["verdict"]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == "k=13 circumference=12 -> C_k-free\n"


def test_a_second_call_builds_no_parser(monkeypatch, capsys):
    argv = ["lemma-check", "--i-min", "1", "--i-max", "1"]
    assert main(argv) == EXIT_OK
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(argv) == EXIT_OK
    assert built == []


def test_unexpected_exception_exits_internal(monkeypatch, capsys):
    def boom(args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "cmd_gen_t", boom)
    assert main(["gen-t", "--level", "2"]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err == "internal error: RecursionError: maximum recursion depth exceeded\n"


def readme_cli_examples():
    text = README.read_text()
    block = text[text.index("## Command line"):]
    block = block[block.index("```sh") + len("```sh"):]
    block = block[: block.index("```")]
    return [line.split("#")[0].strip() for line in block.splitlines() if line.startswith("ckfree ")]


def test_readme_examples_parse():
    examples = readme_cli_examples()
    assert examples
    for line in examples:
        argv = shlex.split(line)[1:]
        build_parser().parse_args(argv)  # exits with code 2 on a stale flag
    # a flag named in the prose must exist too, and no variable sets a budget
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {flag for p in sub.choices.values() for flag in p._option_string_actions}
    text = README.read_text()
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    named = {flag for span in re.findall(r"`([^`\n]+)`", prose)
             for flag in re.findall(r"--[a-z][a-z0-9-]*", span)}
    assert named and named <= flags, named - flags
    assert re.search(r"CKFREE_\w*", text) is None


def test_lemma_check_level_one(capsys):
    assert main(["lemma-check", "--i-min", "1", "--i-max", "1"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1].split() == ["1", "4", "4", "4", "3", "3", "PASS"]


def test_bounds_n_beyond_the_float_range_is_a_domain_error(capsys):
    assert main(["bounds", "--k-min", "13", "--k-max", "13", "--n", "1" + "0" * 400]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "float range" in err and err.count("\n") == 1


def test_gen_h_graph6_above_the_size_limit_is_a_domain_error(tmp_path, capsys):
    out = tmp_path / "h.g6"
    n = codec.MAX_GRAPH6_VERTICES + 1
    assert main(["gen-h", "--n", str(n), "--k", "13", "-f", "g6", "-o", str(out)]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("error: graph6 output is limited to") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv, builder, n", [
    (["gen-h", "--n", "4000000", "--k", "13"], "build_construction", 4_000_000),
    (["gen-t", "--level", "12"], "moon_moser", 265_723),
], ids=["gen-h", "gen-t"])
def test_graph6_above_the_size_limit_is_refused_before_building(tmp_path, monkeypatch, capsys,
                                                                 argv, builder, n):
    def never_build(*args):
        raise AssertionError("the graph6 size check must come before the graph is built")

    monkeypatch.setattr(cli, builder, never_build)
    out = tmp_path / "g.g6"
    assert main([*argv, "-f", "g6", "-o", str(out)]) == EXIT_DOMAIN
    assert capsys.readouterr().err == f"error: graph6 output is limited to 16384 vertices, got {n}\n"
    assert not out.exists()


def test_gen_h_above_the_vertex_limit_is_a_domain_error(tmp_path, monkeypatch, capsys):
    def never_build(*args):
        raise AssertionError("the size check must come before any block is built")

    monkeypatch.setattr(construction, "block_shape", never_build)
    out = tmp_path / "h.planar"
    n = construction.MAX_VERTICES + 1
    assert main(["gen-h", "--n", str(n), "--k", "13", "-o", str(out)]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err == f"error: H({n}, 13) needs {n} vertices, limit is {construction.MAX_VERTICES}\n"
    assert not out.exists()


def test_circumference_under_a_budget(tmp_path, capsys):
    h = build_construction(30, 25).graph
    whole, cut = tmp_path / "h.planar", tmp_path / "hubs_not_adjacent.planar"
    whole.write_text(encode_planar(h))
    cut.write_text(encode_planar(delete_edge(h, 0, 1)))
    # the search runs out of budget on the unrecognised file ...
    assert main(["circumference", "--input", str(cut), "--node-limit", "50"]) == EXIT_INCONCLUSIVE
    assert capsys.readouterr().out.startswith("circumference 8 (inconclusive lower bound)\n")
    # ... while the DP solves H itself and takes no budget
    assert main(["circumference", "--input", str(whole), "--node-limit", "50"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("circumference 24\n")


def planar_text(G):
    """planar-rotation text of a planar networkx graph on 0..n-1."""
    return encode_planar(EmbeddedGraph(tuple(nx_rotations(G)), next(iter(G.edges()))))


def glue(pieces):
    """Pieces with outer face (0, 1, 2) glued at 0 and 1, as H(n, k) is."""
    hub_x, hub_y, rots = [], [], [(), ()]
    for p in pieces:
        minus = delete_edge(p, 0, 1)
        ids = (0, 1, *range(len(rots), len(rots) + p.n - 2))
        shifted = [tuple(ids[u] for u in r) for r in minus.rotations]
        hub_x.append(shifted[0])
        hub_y.append(shifted[1])
        rots += shifted[2:]
    rots[0] = sum(reversed(hub_x), ()) + (1,)
    rots[1] = sum(hub_y, ()) + (0,)
    return EmbeddedGraph(tuple(rots), (0, 1))


def nx_circumference(g):
    return max((len(c) for c in nx.simple_cycles(nx.Graph(g.edges()))), default=0)


def verify_json(capsys, argv):
    capsys.readouterr()
    code = main(argv + ["--json"])
    return code, json.loads(capsys.readouterr().out)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.lists(st.none() | st.lists(st.integers(0, 10**6), max_size=3), min_size=2, max_size=4),
    st.integers(3, 16),
)
def test_glued_files_are_solved_by_the_dp(tmp_path_factory, capsys, pieces, k):
    g = glue([triangle() if p is None else stacked_triangulation(p) for p in pieces])
    f = tmp_path_factory.mktemp("glued") / "g.planar"
    f.write_text(encode_planar(g))
    want = nx_circumference(g)
    code, rep = verify_json(capsys, ["verify", "--input", str(f), "--k", str(k)])
    assert rep["mode"] == "structural" and rep["circumference"] == want
    has_k = k in {len(c) for c in nx.simple_cycles(nx.Graph(g.edges()), length_bound=k)}
    assert rep["verdict"] is (not has_k) and code == (EXIT_FALSE if has_k else EXIT_OK)
    cycle = rep["witness"]
    assert len(cycle) == want and all(g.has_edge(u, cycle[i - 1]) for i, u in enumerate(cycle))
    assert main(["circumference", "--input", str(f)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"circumference {want}"
    assert len(lines[1].split()) == want + 1


def test_verify_input_matches_the_structural_path(tmp_path, capsys):
    for n, k in ((200, 49), (44, 40), (41, 13)):
        f = tmp_path / f"h_{n}_{k}.planar"
        assert main(["gen-h", "--n", str(n), "--k", str(k), "--out", str(f)]) == EXIT_OK
        _, from_file = verify_json(capsys, ["verify", "--input", str(f), "--k", str(k)])
        _, from_plan = verify_json(capsys, ["verify", "--n", str(n), "--k", str(k)])
        assert from_file.pop("mode") == from_plan.pop("mode") == "structural"
        assert from_plan.pop("n") == n
        assert from_file == from_plan


@pytest.mark.parametrize("name", ["octahedron", "hubs not adjacent", "three apices g6"])
def test_unrecognised_inputs_fall_back_to_the_search(tmp_path, capsys, name):
    if name == "octahedron":
        g = nx.octahedral_graph()
        f = tmp_path / "g.planar"
        f.write_text(planar_text(g))
    elif name == "hubs not adjacent":
        h = delete_edge(build_construction(12, 7).graph, 0, 1)
        g = nx.Graph(h.edges())
        f = tmp_path / "g.planar"
        f.write_text(encode_planar(h))
    else:
        g = nx.Graph([(0, 1), (1, 2), (2, 0)] + [(a, c) for a in (3, 4, 5) for c in (0, 1, 2)])
        f = tmp_path / "g.g6"
        f.write_text(nx.to_graph6_bytes(g, header=False).decode())
    want = max(len(c) for c in nx.simple_cycles(g))
    for k in (want, want + 1):
        code, rep = verify_json(capsys, ["verify", "--input", str(f), "--k", str(k)])
        assert rep["mode"] == "brute" and rep["circumference"] == want
        assert code == (EXIT_FALSE if k == want else EXIT_OK)
    assert main(["circumference", "--input", str(f)]) == EXIT_OK
    assert capsys.readouterr().out.startswith(f"circumference {want}\n")


def test_verify_of_a_long_cycle_falls_back_to_the_search(tmp_path, capsys):
    f = tmp_path / "c1500.planar"
    write_planar_path_or_cycle(f, 1500, closed=True)
    code, rep = verify_json(capsys, ["verify", "--input", str(f), "--k", "1501"])
    assert code == EXIT_OK and rep["mode"] == "brute" and rep["circumference"] == 1500


def test_structural_verify_beyond_the_search_limit(capsys):
    # four level-10 blocks of 29 527 vertices, above MAX_SEARCH_VERTICES
    code, rep = verify_json(capsys, ["verify", "--n", "100000", "--k", "5000"])
    assert code == EXIT_OK and rep["circumference"] == 6 * 2**9 and rep["verdict"]
    h = build_construction(100_000, 5000)
    assert len(rep["witness"]) == rep["circumference"]
    assert all(h.graph.has_edge(u, rep["witness"][i - 1]) for i, u in enumerate(rep["witness"]))


@pytest.mark.parametrize("k,small_n,circumference", [(13, 20_000, 12), (5000, 100_000, 3072)])
def test_verify_n_above_the_vertex_limit(capsys, k, small_n, circumference):
    """Nothing of size n is built, so H(10^9, k) is certified; its witness
    crosses blocks 0 and 1, full blocks as at a small n, so it is the small
    H's witness, checked here against the small H's assembled rotations."""
    n = 10**9
    assert n > construction.MAX_VERTICES
    code, rep = verify_json(capsys, ["verify", "--n", str(n), "--k", str(k)])
    assert code == EXIT_OK and rep["n"] == n and rep["verdict"] and rep["conclusive"]
    assert rep["circumference"] == len(rep["witness"]) == circumference
    _, small = verify_json(capsys, ["verify", "--n", str(small_n), "--k", str(k)])
    assert rep["witness"] == small["witness"]
    g = build_construction(small_n, k).graph
    assert all(g.has_edge(u, rep["witness"][i - 1]) for i, u in enumerate(rep["witness"]))


def test_verify_n_above_the_layout_limit_is_a_domain_error(monkeypatch, capsys):
    def never_build(*args):
        raise AssertionError("the size check must come before any shape is grown")

    monkeypatch.setattr(construction, "block_shape", never_build)
    n = construction.MAX_LAYOUT_VERTICES + 1
    assert main(["verify", "--n", str(n), "--k", "13", "--json"]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: H({n}, 13) needs {n} vertices, limit is {construction.MAX_LAYOUT_VERTICES}\n"


def test_a_structural_circumference_of_k_is_an_internal_error(monkeypatch, capsys):
    """choose_level keeps H's circumference below k; were the DP to find k
    or more, no search could follow on a layout, and verify exits 5."""
    from ckfree import stacked

    monkeypatch.setattr(stacked, "glue", lambda *args: certify.CycleCertificate(tuple(range(13))))
    assert main(["verify", "--n", "20", "--k", "13", "--json"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: CertificateError: internal: H(20, 13) has a 13-cycle")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("n,k", [(20_000, 13), (100_000, 5000)])
def test_gen_h_planar_and_verify_n_never_assemble_h(monkeypatch, tmp_path, capsys, n, k):
    def never_assemble(*args, **kwargs):
        raise AssertionError("H's rotations must not be assembled")

    want = h_text(n, k)
    monkeypatch.setattr(construction, "build_construction", never_assemble)
    monkeypatch.setattr(cli, "build_construction", never_assemble)
    out = tmp_path / "h.planar"
    assert main(["gen-h", "--n", str(n), "--k", str(k), "-o", str(out)]) == EXIT_OK
    assert out.read_text() == want
    capsys.readouterr()
    assert main(["gen-h", "--n", str(n), "--k", str(k)]) == EXIT_OK
    assert capsys.readouterr().out == want
    assert main(["verify", "--n", str(n), "--k", str(k)]) == EXIT_OK
    assert capsys.readouterr().out.endswith("-> C_k-free\n")


# 3 999 seven-vertex blocks and 12 level-8 blocks, whose templates are
# kept; a level-10 block and a truncated one, whose templates are made for
# each block
@pytest.mark.parametrize("n,k", [(20_000, 13), (40_000, 1000), (40_000, 5000)])
def test_writing_h_to_a_file_holds_no_list_of_lines(tmp_path, monkeypatch, n, k):
    h = construction.layout(n, k)
    labels = cli._h_labels(h)
    # the layout and its labels are built outside the trace, as the tower is
    monkeypatch.setattr(cli, "layout", lambda n, k, limit: h)
    monkeypatch.setattr(cli, "_h_labels", lambda h: labels)
    out = tmp_path / "h.planar"
    argv = ["gen-h", "--n", str(n), "--k", str(k), "-o", str(out)]
    assert main(argv) == EXIT_OK
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert size > 500_000 and peak < size / 3, (peak, size)


def test_lemma_check_levels_1_to_9(capsys):
    assert main(["lemma-check", "--i-min", "1", "--i-max", "9", "--node-limit", "1"]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [r.split()[-1] for r in rows] == ["PASS"] * 9


def test_bounds_inverted_k_range_is_a_domain_error(capsys):
    assert main(["bounds", "--k-min", "20", "--k-max", "10", "--n", "100"]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: empty k range") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--k-max", str(10**12), "--n", "100"],
    ["--k-min", "13", "--k-max", "13", "--n-min", "10", "--n-max", "100", "--n-count", str(10**12)],
])
def test_bounds_table_above_the_row_limit_is_refused(argv, tmp_path, capsys):
    out = tmp_path / "b.csv"
    assert main(["bounds"] + argv + ["-o", str(out)]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the table would have") and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("i_min,i_max", [(5, 3), (0, 2), (-1, -1)])
def test_lemma_check_bad_level_range_is_a_domain_error(capsys, i_min, i_max):
    assert main(["lemma-check", "--i-min", str(i_min), "--i-max", str(i_max)]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: need 1 <= --i-min <= --i-max") and captured.err.count("\n") == 1


HUGE = str(10**4000)  # a block order of this k has over 6000 digits


@pytest.mark.parametrize("argv", [
    ["gen-t", "--level", "10000"],
    ["gen-t", "--level", "100000000"],
    ["lemma-check", "--i-min", "1", "--i-max", "100000000"],
    ["gen-h", "--n", "10", "--k", HUGE],
    ["verify", "--n", "10", "--k", HUGE],
    ["gen-t", "--level", "0"],  # and one too small
])
def test_huge_level_or_k_is_a_domain_error(argv, monkeypatch, capsys):
    order = construction.moon_moser_order

    def small_power(i):  # 3**i takes seconds at i = 10**8
        assert i < 20_000, f"3**{i} computed"
        return order(i)

    monkeypatch.setattr(construction, "moon_moser_order", small_power)
    assert main(argv) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("i_min,i_max", [(15, 15), (1, 15), (1, 10**9)])
def test_lemma_check_level_above_the_vertex_limit_fails_before_output(capsys, i_min, i_max):
    assert main(["lemma-check", "--i-min", str(i_min), "--i-max", str(i_max)]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: level {i_max} needs more than") and captured.err.count("\n") == 1
