import json
import shlex
from pathlib import Path

import pytest

from ckfree import certify, cli, codec, decode_planar, decode_graph6
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
        ["verify", "--n", "30", "--k", "25", "--node-limit", "50", "--json"]
    )
    assert code == EXIT_INCONCLUSIVE


def test_verify_domain_errors(capsys):
    assert main(["verify", "--n", "20", "--k", "6"]) == EXIT_DOMAIN
    assert main(["verify", "--k", "13"]) == EXIT_DOMAIN
    assert main(["verify", "--input", "x.g6", "--k", "7", "--mode", "structural"]) == EXIT_DOMAIN


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
    assert main(["verify", "--n", "30", "--k", "25"]) == EXIT_INCONCLUSIVE


def test_verify_input_skips_exact_search_below_k(tmp_path, monkeypatch, capsys):
    f = tmp_path / "h.planar"
    main(["gen-h", "--n", "20", "--k", "13", "--out", str(f)])

    def exact_search(*args):
        raise AssertionError("circumference 12 < 13 already settles the verdict")

    monkeypatch.setattr(certify, "has_cycle_of_length", exact_search)
    capsys.readouterr()
    assert main(["verify", "--input", str(f), "--k", "13", "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "mode": "brute", "k": 13, "circumference": 12,
        "verdict": True, "conclusive": True, "lemma_backed": False,
    }


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
