"""CLI surface tests: formats, exit codes, stdout/stderr split."""

import json

import pytest

from localchrom import cli, families, graphio, search, structure
from localchrom.cli import main
from localchrom.graphio import emit_graph, parse_graph
from localchrom.graphs import CertificateError, Graph, WeightedGraph, blow_up
from localchrom.homomorphism import is_homomorphism


@pytest.fixture
def h2_file(tmp_path):
    path = tmp_path / "h2.txt"
    path.write_text(emit_graph(families.h2()))
    return str(path)


@pytest.fixture
def c7bar_file(tmp_path):
    path = tmp_path / "c7bar.txt"
    path.write_text(emit_graph(families.c7bar()))
    return str(path)


def test_families_list(capsys):
    assert main(["families", "list"]) == 0
    out = capsys.readouterr().out
    assert "H2PLUS" in out and "DELTA" in out


def test_families_emit_round_trip(capsys):
    assert main(["families", "emit", "C7BAR"]) == 0
    out = capsys.readouterr().out
    assert parse_graph(out) == families.c7bar()


def test_families_emit_dot(capsys):
    assert main(["families", "emit", "H0", "--dot"]) == 0
    assert "graph H0 {" in capsys.readouterr().out


def test_families_emit_unknown(capsys):
    assert main(["families", "emit", "NOPE"]) == 2


def test_families_emit_unwritable_output_is_usage_error(capsys, tmp_path):
    assert main(["families", "emit", "H0", "-o", str(tmp_path / "missing" / "h0.txt")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_check_output(capsys, c7bar_file, tmp_path):
    assert main(["check", c7bar_file]) == 0
    out = capsys.readouterr().out
    assert "locally-bipartite: yes" in out
    assert "twin-free: yes" in out
    assert "edge-maximal: yes" in out

    wheel_file = tmp_path / "w7.txt"
    wheel_file.write_text(emit_graph(families.wheel(7)))
    assert main(["check", str(wheel_file)]) == 0
    out = capsys.readouterr().out
    assert "locally-bipartite: no" in out
    assert "centre:" in out and "rim:" in out


def test_check_colours_each_distinct_row_once(capsys, tmp_path, monkeypatch):
    # one NeighbourhoodSides table serves the odd-wheel and edge-maximality tests
    calls = []
    colouring = structure._two_colouring
    monkeypatch.setattr(structure, "_two_colouring", lambda adj, rows: calls.append(rows) or colouring(adj, rows))
    path = tmp_path / "blow.txt"
    path.write_text(emit_graph(blow_up(families.c7bar(), [40] * 7)))
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr().out == "locally-bipartite: yes\ntwin-free: no\nedge-maximal: yes\n"
    assert len(calls) == 7
    path.write_text(emit_graph(families.wheel(7)))
    assert main(["check", str(path)]) == 0
    out = "locally-bipartite: no\ncentre: 7 rim: 3,2,1,0,6,5,4\ntwin-free: yes\nedge-maximal: no\n"
    assert capsys.readouterr().out == out


def test_hom_yes_no(capsys, h2_file, c7bar_file):
    assert main(["hom", h2_file, c7bar_file]) == 0
    assert capsys.readouterr().out.startswith("YES map:")
    assert main(["hom", c7bar_file, h2_file]) == 1
    assert capsys.readouterr().out.strip() == "NO"


def test_hom_no_on_a_late_component(capsys, tmp_path, c7bar_file):
    # K_{6,6} + K4: the K4 has no map into C7BAR, and one search per component
    # stops there instead of retrying it under every map of the K_{6,6}
    pattern = tmp_path / "pattern.txt"
    edges = [(u, v) for u in range(6) for v in range(6, 12)]
    pattern.write_text(emit_graph(Graph(16, edges + [(u, v) for u in range(12, 16) for v in range(u + 1, 16)])))
    assert main(["hom", str(pattern), c7bar_file]) == 1
    assert capsys.readouterr().out == "NO\n"


def test_hom_iso(capsys, tmp_path, c7bar_file):
    delta2 = tmp_path / "delta2.txt"
    delta2.write_text(emit_graph(families.delta(2)))
    assert main(["hom", str(delta2), c7bar_file, "--iso"]) == 0
    assert capsys.readouterr().out.strip() == "YES"


def test_hom_iso_no(capsys, h2_file, c7bar_file):
    assert main(["hom", h2_file, c7bar_file, "--iso"]) == 1
    assert capsys.readouterr().out.strip() == "NO"


def test_hom_induced_map_validates(capsys, tmp_path, c7bar_file):
    c7bar, host = families.c7bar(), blow_up(families.c7bar(), [2] * 7)
    host_file = tmp_path / "host.txt"
    host_file.write_text(emit_graph(host))
    assert main(["hom", c7bar_file, str(host_file), "--induced"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("YES map: ")
    image = [int(x) for x in out[len("YES map: "):].split(",")]
    # injective, and edges and non-edges both preserved
    assert len(set(image)) == c7bar.n
    assert all(
        c7bar.has_edge(u, v) == host.has_edge(image[u], image[v])
        for u in range(c7bar.n)
        for v in range(u + 1, c7bar.n)
    )


def test_chi(capsys, c7bar_file):
    assert main(["chi", c7bar_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("chi=4 colouring: ")


def test_colour(capsys, c7bar_file):
    assert main(["colour", c7bar_file, "-k", "4"]) == 0
    assert capsys.readouterr().out.startswith("k=4 colouring:")
    assert main(["colour", c7bar_file, "-k", "3"]) == 1
    assert capsys.readouterr().out.startswith("NONE")


def test_colour_k_below_one_is_usage_error(capsys, c7bar_file):
    assert main(["colour", c7bar_file, "-k", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: k must be >= 1\n"


def test_weight(capsys, h2_file):
    assert main(["weight", h2_file, "--beats", "1/2"]) == 0
    out = capsys.readouterr().out
    assert "t*=6/11" in out and "BEATS 1/2" in out
    assert main(["weight", h2_file, "--beats", "6/11"]) == 1
    assert "DOES-NOT-BEAT 6/11" in capsys.readouterr().out


def test_weight_with_given_weighting(capsys, tmp_path, emit_weighted_graph):
    wg = WeightedGraph(families.h2(), families.H2_FIGURE_WEIGHTS)
    path = tmp_path / "h2w.txt"
    path.write_text(emit_weighted_graph(wg))
    assert main(["weight", str(path), "--beats", "1/2"]) == 0
    out = capsys.readouterr().out
    assert "GIVEN-WEIGHTING BEATS 1/2" in out


def test_weight_without_beats_warns_of_an_isolated_vertex(capsys, tmp_path):
    path = tmp_path / "isolated.txt"
    path.write_text("3 1\n0 1\n")
    assert main(["weight", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "t*=0 omega: 1/3,1/3,1/3\n"
    assert captured.err == "warning: isolated vertex forces t* = 0\n"


def test_search_cli(capsys, tmp_path):
    out_file = tmp_path / "found.txt"
    assert main(["search", "--n", "4", "--beats", "1/2", "-o", str(out_file)]) == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("n=3")


def test_search_unwritable_output_is_usage_error_before_searching(capsys, tmp_path):
    ckpt = tmp_path / "run.ckpt"
    argv = ["search", "--n", "4", "--beats", "1/2", "--checkpoint", str(ckpt)]
    assert main(argv + ["-o", str(tmp_path / "missing" / "found.txt")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not ckpt.exists()


def test_search_cli_reports_levels_on_stderr(capsys):
    assert main(["search", "--n", "4", "--beats", "1/2"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["n=3 m=3 edges=0-1,0-2,1-2 t*=2/3 chi=3"]
    lines = captured.err.splitlines()
    assert [line.split(":")[0] for line in lines[:3]] == ["level 2", "level 3", "level 4"]
    assert lines[2].startswith("level 4: 4 parents, 20 masks tried, 19 locally bipartite children")
    assert "10 classes" in lines[2]
    assert all(line.endswith(" s in 1 process") for line in lines[:3])  # levels below the split size
    assert lines[3] == "searched n<=4 beating 1/2: 1 graphs"


def _digested(state):
    return dict(state, digest=search._digest(state))


@pytest.mark.parametrize(
    "state",
    [
        [],
        _digested({"version": 2, "c": "1/2", "graphs": [[0]], "found": []}),
        _digested({"version": 2, "c": "1/2", "level": 1, "graphs": [["0"]], "found": []}),
        _digested(
            {"version": 2, "c": "1/2", "level": 1, "graphs": [[0]], "found": [{"rows": [0]}]}
        ),
        _digested({"version": 2, "c": "1/0", "level": 1, "graphs": [[0]], "found": []}),
        _digested(
            {
                "version": 2,
                "c": "1/2",
                "level": 1,
                "graphs": [[0]],
                "found": [{"rows": [0], "t_star": "1/0", "chi": 1}],
            }
        ),
    ],
    ids=[
        "not-an-object",
        "no-level",
        "string-row",
        "found-without-scores",
        "zero-denominator-c",
        "zero-denominator-t_star",
    ],
)
def test_search_resume_rejects_malformed_checkpoint(capsys, tmp_path, state):
    path = tmp_path / "bad.ckpt"
    path.write_text(json.dumps(state))
    assert main(["search", "--n", "4", "--beats", "1/2", "--resume", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: checkpoint")


def test_search_refused_resume_keeps_the_earlier_output(capsys, tmp_path):
    path, out_file = tmp_path / "bad.ckpt", tmp_path / "prev.txt"
    path.write_text("{}")
    out_file.write_text("n=3 m=3 edges=0-1,0-2,1-2 t*=2/3 chi=3\n")
    argv = ["search", "--n", "4", "--beats", "1/2", "--resume", str(path), "-o", str(out_file)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: unrecognised checkpoint version\n"
    assert out_file.read_text() == "n=3 m=3 edges=0-1,0-2,1-2 t*=2/3 chi=3\n"
    # a search that succeeds replaces the content
    assert main(["search", "--n", "2", "--beats", "1/2", "-o", str(out_file)]) == 0
    assert out_file.read_text() == ""


def test_search_deeply_nested_checkpoint_is_usage_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert main(["search", "--n", "3", "--beats", "1/2", "--resume", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: checkpoint")


def test_decompose_cli(capsys, tmp_path):
    g = blow_up(families.c7bar(), [2] * 7)
    path = tmp_path / "blow.txt"
    path.write_text(emit_graph(g))
    assert main(["decompose", str(path)]) == 0
    out = capsys.readouterr().out
    assert "outcome HOM_C7BAR" in out
    assert "map " in out and "part D0" in out


def test_decompose_cli_failed_prints_reason(capsys, tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text(emit_graph(blow_up(Graph(3, [(0, 1), (0, 2), (1, 2)]), [5] * 3)))
    assert main(["decompose", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["outcome FAILED", "reason no H2PLUS copy"]


def test_verify_profile_cli(capsys, tmp_path):
    g = blow_up(families.h2(), [3, 1, 2, 1, 1, 2, 1])
    path = tmp_path / "h2blow.txt"
    path.write_text(emit_graph(g))
    assert main(["verify-profile", str(path)]) == 0
    out = capsys.readouterr().out
    assert "ratio 6/11" in out and "regime outside" in out


def test_verify_profile_cli_prints_target_and_map(capsys, tmp_path):
    g = blow_up(families.c7bar(), [3] * 7)
    path = tmp_path / "c7bar-m3.txt"
    path.write_text(emit_graph(g))
    assert main(["verify-profile", str(path)]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[:5] == ["n 21", "delta 12", "ratio 4/7", "regime above-6/11", "outcome HOM_C7BAR"]
    assert lines[5].startswith("colouring ") and lines[6] == "target C7BAR"
    assert lines[7].startswith("map ") and len(lines) == 8
    assert is_homomorphism(g, families.c7bar(), tuple(map(int, lines[7][4:].split(","))))
    assert captured.err == "homomorphism to C7BAR\n"


def test_verify_paper_filtered_json(capsys):
    assert main(["verify-paper", "--only", "H0-five-vertex", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 1
    assert data[0]["claim"] == "H0-five-vertex" and data[0]["status"] == "PASS"


def test_verify_paper_only_chi_selects_colouring_claims(capsys):
    assert main(["verify-paper", "--only", "chi"]) == 0
    out = capsys.readouterr().out
    assert "chi-families-4" in out and "chi-augmented-H2PLUS" in out
    assert "H2-weighted-6/11" not in out


def test_verify_paper_timeout_skips(capsys):
    assert main(["verify-paper", "--only", "weighted", "--timeout", "0"]) == 0
    out = capsys.readouterr().out
    assert "SKIP" in out and "FAIL" not in out


def test_verify_paper_only_matching_nothing_is_usage_error(capsys):
    for fmt in ("text", "json"):
        assert main(["verify-paper", "--only", "zzz", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: no claim id contains 'zzz'\n"


def test_timeout_zero_is_an_expired_budget(capsys, h2_file):
    assert main(["chi", h2_file, "--timeout", "0"]) == 2
    assert main(["colour", h2_file, "-k", "4", "--timeout", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: timeout\n" * 2
    assert main(["verify-paper", "--only", "chi", "--timeout", "0", "--format", "json"]) == 0
    assert {e["status"] for e in json.loads(capsys.readouterr().out)} == {"SKIP"}


def test_negative_or_nan_timeout_is_usage_error(capsys, h2_file):
    for argv in (["chi", h2_file], ["colour", h2_file, "-k", "4"], ["verify-paper"]):
        for value in ("-1", "nan"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--timeout", value])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"argument --timeout: not a non-negative number of seconds: '{value}'" in err
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--timeout", "soon"])
        assert exc.value.code == 2
        assert "argument --timeout: invalid seconds value: 'soon'" in capsys.readouterr().err


def test_missing_file_is_usage_error(capsys):
    assert main(["check", "/nonexistent/file.txt"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "command",
    [
        ["check"],
        ["hom"],
        ["chi"],
        ["colour", "-k", "3"],
        ["weight"],
        ["decompose"],
        ["verify-profile"],
    ],
    ids=lambda command: command[0],
)
@pytest.mark.parametrize("content", [None, "3 1\n0 3\n"], ids=["missing", "malformed"])
def test_input_errors_exit_2_with_one_error_line(capsys, tmp_path, c7bar_file, command, content):
    path = tmp_path / "input.txt"
    if content is not None:
        path.write_text(content)
    files = [str(path), c7bar_file] if command == ["hom"] else [str(path)]
    assert main([command[0], *files, *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_malformed_threshold_message_is_shared(capsys, h2_file):
    for argv in (["search", "--n", "3"], ["weight", h2_file]):
        assert main([*argv, "--beats", "1/0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: malformed threshold '1/0'\n"


def test_certificate_error_is_never_an_exit_code(monkeypatch, c7bar_file):
    def broken(g):
        raise CertificateError("planted")

    monkeypatch.setattr(cli, "decompose_auto", broken)
    with pytest.raises(CertificateError, match="planted"):
        main(["decompose", c7bar_file])


def test_weight_malformed_threshold_prints_nothing_on_stdout(capsys, h2_file):
    assert main(["weight", h2_file, "--beats", "abc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: malformed threshold 'abc'\n"


@pytest.mark.parametrize("beats", [[], ["--beats", "1/2"]], ids=["plain", "beats"])
def test_weight_empty_graph_is_usage_error(capsys, tmp_path, beats):
    path = tmp_path / "empty.txt"
    path.write_text("0 0\n")
    assert main(["weight", str(path), *beats]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: empty graph has no weighting\n"


def test_weight_all_zero_given_weights_is_usage_error(capsys, tmp_path, emit_weighted_graph):
    path = tmp_path / "zero.txt"
    path.write_text(emit_weighted_graph(WeightedGraph(Graph(2, [(0, 1)]), [0, 0])))
    assert main(["weight", str(path), "--beats", "1/2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: weighting must not be identically zero\n"


def test_weight_refuses_zero_given_weights_before_the_lp(capsys, monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(cli, "optimal_weighting", lambda g: calls.append(g))
    path = tmp_path / "zero.txt"
    path.write_text("2 1\n0 1\n0 0\n1 0\n")
    assert main(["weight", str(path), "--beats", "1/2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: weighting must not be identically zero\n"
    assert calls == []


@pytest.mark.parametrize(
    "text, message",
    [
        ("2 1\n0 1\n0 1/2\n1 -1/2\n", "negative weight at vertex 1"),
        ("2 1\n0 1\n0 1/2\n", "expected 2 weight lines, found 1"),
    ],
    ids=["negative", "missing"],
)
def test_weight_reports_the_weighted_parse_error(capsys, tmp_path, text, message):
    # lines follow the edges, so the file is weighted and its error stands
    path = tmp_path / "weighted.txt"
    path.write_text(text)
    assert main(["weight", str(path), "--beats", "1/2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_weight_parses_a_plain_file_once(capsys, monkeypatch, c7bar_file):
    texts = []
    parse_rows = graphio._parse_rows
    monkeypatch.setattr(graphio, "_parse_rows", lambda text: texts.append(text) or parse_rows(text))
    assert main(["weight", c7bar_file]) == 0
    assert capsys.readouterr().out.startswith("t*=4/7 ")
    assert len(texts) == 1


def test_malformed_threshold_is_usage_error(capsys, h2_file):
    assert main(["weight", h2_file, "--beats", "nonsense"]) == 2
    assert main(["search", "--n", "99", "--beats", "1/2"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
