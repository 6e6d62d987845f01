import argparse
import json
import shlex
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
    encode_graph6,
    encode_planar,
    longest_cycle,
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
from planar3trees import nx_rotations, stacked_triangulation

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


def test_verify_structural(capsys):
    assert main(["verify", "--n", "20", "--k", "13", "--json"]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["circumference"] == 12 and rep["verdict"] and rep["conclusive"]


def test_verify_brute(capsys):
    assert main(["verify", "--n", "12", "--k", "7", "--mode", "brute"]) == EXIT_OK


def test_verify_file_input_with_cycle(tmp_path, capsys):
    f = tmp_path / "t2.g6"
    main(["gen-t", "-i", "2", "-f", "g6", "-o", str(f)])
    # T_2 is Hamiltonian on 7 vertices, so it does contain a 7-cycle
    assert main(["verify", "--input", str(f), "--k", "7"]) == EXIT_FALSE
    assert main(["verify", "--input", str(f), "--k", "8"]) == EXIT_OK


def test_verify_inconclusive_budget(capsys):
    code = main(
        ["verify", "--n", "30", "--k", "25", "--mode", "brute", "--node-limit", "50", "--json"]
    )
    assert code == EXIT_INCONCLUSIVE
    # the structural path solves the blocks exactly and takes no budget
    assert main(["verify", "--n", "30", "--k", "25", "--node-limit", "50"]) == EXIT_OK


def test_verify_domain_errors(tmp_path, capsys):
    assert main(["verify", "--n", "20", "--k", "6"]) == EXIT_DOMAIN
    assert main(["verify", "--k", "13"]) == EXIT_DOMAIN
    assert main(["verify", "--input", "x.g6", "--k", "7", "--mode", "structural"]) == EXIT_DOMAIN
    f = tmp_path / "h.planar"
    main(["gen-h", "--n", "20", "--k", "13", "--out", str(f)])
    capsys.readouterr()
    assert main(["verify", "--input", str(f), "--k", "13", "--n", "20"]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "--n cannot be given with --input" in captured.err


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
    argv = {
        "gen-t": ["gen-t", "--level", "2", "-o", str(tmp_path)],  # a directory
        "gen-h": ["gen-h", "--n", "20", "--k", "13", "-o", str(tmp_path / "h.planar"),
                  "--plan-out", str(missing / "p.json")],
        "bounds": ["bounds", "--k-min", "7", "--k-max", "8", "--n", "100",
                   "-o", str(missing / "b.csv")],
    }[command]
    assert main(argv) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


@pytest.mark.parametrize("header", ["", ">>graph6<<"])
def test_petersen_graph6_file_reports_the_k_cycle_of_a_false_verdict(tmp_path, capsys, header):
    G = nx.petersen_graph()  # cycles of lengths 5, 6, 8 and 9
    f = tmp_path / "petersen"  # graph6 text, told by its content, not its name
    f.write_text(header + encode_graph6((10, list(G.edges()))) + "\n")
    code, rep = verify_json(capsys, ["verify", "--input", str(f), "--k", "7"])
    assert code == EXIT_OK and rep["mode"] == "brute" and "k_cycle" not in rep
    assert rep["verdict"] and rep["conclusive"] and rep["circumference"] == 9
    code, rep = verify_json(capsys, ["verify", "--input", str(f), "--k", "8"])
    assert code == EXIT_FALSE and not rep["verdict"] and rep["conclusive"]
    assert len(rep["witness"]) == 9
    cycle = rep["k_cycle"]
    assert len(cycle) == len(set(cycle)) == 8
    assert all(G.has_edge(u, cycle[i - 1]) for i, u in enumerate(cycle))


def test_bounds_csv(tmp_path):
    out = tmp_path / "b.csv"
    assert main(
        ["bounds", "--k-min", "7", "--k-max", "14", "--n", "100", "-o", str(out)]
    ) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,k,i,s,exact_edges,thm2_lower,conj1,lan_song_slope,chain_ok"
    assert len(lines) == 9
    assert all(line.endswith("true") for line in lines[1:])


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
])
def test_bounds_hostile_ranges_are_domain_errors(argv, needle, capsys):
    assert main(["bounds"] + argv) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert needle in captured.err


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
    with pytest.raises(SystemExit):
        main(["gen-t", "--level", "2", "--frobnicate"])


def test_env_budget(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CKFREE_NODE_LIMIT", "50")
    assert main(["verify", "--n", "30", "--k", "25", "--mode", "brute"]) == EXIT_INCONCLUSIVE
    f = tmp_path / "hubs_not_adjacent.planar"
    f.write_text(encode_planar(delete_edge(build_construction(30, 25).graph, 0, 1)))
    assert main(["verify", "--input", str(f), "--k", "25"]) == EXIT_INCONCLUSIVE


@pytest.mark.parametrize("name,value", [("CKFREE_NODE_LIMIT", "abc"), ("CKFREE_TIME_LIMIT", "1s")])
def test_malformed_env_budget_is_a_domain_error(tmp_path, monkeypatch, capsys, name, value):
    f = tmp_path / "h.planar"
    main(["gen-h", "--n", "20", "--k", "13", "--out", str(f)])
    monkeypatch.setenv(name, value)
    for argv in (["verify", "--n", "20", "--k", "13"], ["circumference", "--input", str(f)]):
        assert main(argv) == EXIT_DOMAIN
        assert capsys.readouterr().err.startswith(f"error: {name} must be ")


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
        ["verify", "--n", "30", "--k", "28", "--mode", "brute"],
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
    monkeypatch.setenv(name, value)
    for argv in runs:
        assert_refused(argv)


def test_unbounded_time_limit_is_accepted(monkeypatch, capsys):
    argv = ["verify", "--n", "30", "--k", "25", "--mode", "brute", "--node-limit", "50"]
    assert main(argv + ["--time-limit", "inf"]) == EXIT_INCONCLUSIVE
    monkeypatch.setenv("CKFREE_TIME_LIMIT", "inf")
    assert main(argv) == EXIT_INCONCLUSIVE


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


def test_gen_h_above_the_vertex_limit_is_a_domain_error(tmp_path, monkeypatch, capsys):
    def never_build(*args):
        raise AssertionError("the size check must come before any block is built")

    monkeypatch.setattr(construction, "block_pieces", never_build)
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
        f.write_text(encode_graph6((6, list(g.edges()))) + "\n")
    want = max(len(c) for c in nx.simple_cycles(g))
    for k in (want, want + 1):
        code, rep = verify_json(capsys, ["verify", "--input", str(f), "--k", str(k)])
        assert rep["mode"] == "brute" and rep["circumference"] == want
        assert code == (EXIT_FALSE if k == want else EXIT_OK)
    assert main(["circumference", "--input", str(f)]) == EXIT_OK
    assert capsys.readouterr().out.startswith(f"circumference {want}\n")
    assert main(["verify", "--input", str(f), "--k", "7", "--mode", "structural"]) == EXIT_DOMAIN
    assert "not stacked triangulations" in capsys.readouterr().err


def test_verify_of_a_long_cycle_falls_back_to_the_search(tmp_path, capsys):
    f = tmp_path / "c1500.planar"
    write_planar_path_or_cycle(f, 1500, closed=True)
    code, rep = verify_json(capsys, ["verify", "--input", str(f), "--k", "1501"])
    assert code == EXIT_OK and rep["mode"] == "brute" and rep["circumference"] == 1500


def test_mode_brute_forces_the_search_on_a_recognised_file(tmp_path, capsys):
    f = tmp_path / "h.planar"
    main(["gen-h", "--n", "20", "--k", "13", "--out", str(f)])
    code, rep = verify_json(capsys, ["verify", "--input", str(f), "--k", "13", "--mode", "brute"])
    assert code == EXIT_OK and rep["mode"] == "brute" and rep["circumference"] == 12
    h = build_construction(20, 13)
    assert rep["witness"] == list(longest_cycle(h.graph).certificate.vertices)


def test_structural_verify_beyond_the_search_limit(capsys):
    # four level-10 blocks of 29 527 vertices, above MAX_SEARCH_VERTICES
    code, rep = verify_json(capsys, ["verify", "--n", "100000", "--k", "5000"])
    assert code == EXIT_OK and rep["circumference"] == 6 * 2**9 and rep["verdict"]
    h = build_construction(100_000, 5000)
    assert len(rep["witness"]) == rep["circumference"]
    assert all(h.graph.has_edge(u, rep["witness"][i - 1]) for i, u in enumerate(rep["witness"]))


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


@pytest.mark.parametrize("i_min,i_max", [(15, 15), (1, 15), (1, 10**9)])
def test_lemma_check_level_above_the_vertex_limit_fails_before_output(capsys, i_min, i_max):
    assert main(["lemma-check", "--i-min", str(i_min), "--i-max", str(i_max)]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: level {i_max} needs more than") and captured.err.count("\n") == 1
