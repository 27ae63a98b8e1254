import json

import pytest

from threshmax.cli import main
from threshmax.graphs import (
    complete_graph,
    cycle_graph,
    parse_graph,
    parse_hypergraph,
    serialize_graph,
    serialize_hypergraph,
    star_graph,
    Hypergraph,
)
from threshmax.threshold import is_threshold


@pytest.fixture
def k3_path(tmp_path):
    p = tmp_path / "k3.g"
    p.write_text(serialize_graph(complete_graph(3)))
    return str(p)


@pytest.fixture
def c4_path(tmp_path):
    p = tmp_path / "c4.g"
    p.write_text(serialize_graph(cycle_graph(4)))
    return str(p)


@pytest.fixture
def star_path(tmp_path):
    p = tmp_path / "star.g"
    p.write_text(serialize_graph(star_graph(2)))
    return str(p)


def test_count(capsys, k3_path):
    assert main(["count", k3_path, k3_path]) == 0
    assert capsys.readouterr().out.strip() == "6"
    assert main(["count", "--naive", k3_path, k3_path]) == 0
    assert capsys.readouterr().out.strip() == "6"
    assert main(["count", "--injective", k3_path, k3_path]) == 0
    assert capsys.readouterr().out.strip() == "6"
    assert main(["count", "--json", k3_path, k3_path]) == 0
    assert json.loads(capsys.readouterr().out) == {"hom": 6}


def test_density(capsys, k3_path):
    assert main(["density", k3_path, k3_path]) == 0
    assert capsys.readouterr().out.strip() == "2/9"


def test_is_threshold_exit_codes(capsys, k3_path, c4_path):
    assert main(["is-threshold", k3_path]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["is-threshold", c4_path]) == 1
    assert capsys.readouterr().out.strip() == "false"


def test_thresholdize(capsys, tmp_path, c4_path):
    log = tmp_path / "moves.log"
    assert main(["thresholdize", c4_path, "--log", str(log)]) == 0
    captured = capsys.readouterr()
    out = parse_graph(captured.out)
    assert is_threshold(out)
    assert out.m == 4
    assert "movement 1" in captured.err
    assert log.read_text().endswith("total 1 count 5\n")


def test_thresholdize_unwritable_log(capsys, tmp_path, c4_path):
    log = str(tmp_path / "missing" / "moves.log")
    assert main(["thresholdize", c4_path, "--log", log]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and log in err


def test_search_threshold(capsys, c4_path):
    assert main(["search-threshold", c4_path, "--n", "4", "--m", "4"]) == 0
    out = capsys.readouterr().out
    assert "best 28" in out and "witness 101" in out
    assert main(["search-threshold", c4_path, "--n", "4", "--m", "4", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["best"] == 28 and record["witness"] == "101" and record["explored"] == 8


def test_search_all(capsys, c4_path):
    assert main(["search-all", c4_path, "--n", "4", "--m", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("best 32")
    witness = parse_graph(out.split("\n", 1)[1])
    assert witness.m == 4


def test_limit_search(capsys, star_path):
    assert main(["limit-search", star_path, "--c", "0.5", "--parts", "2", "--grid", "0.1", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["best"] > 0
    assert record["witness"].count(":") >= 1
    assert main(["limit-search", star_path, "--c", "0.5", "--refine-tol", "0"]) == 2
    assert "refine_tol" in capsys.readouterr().err


def test_alpha_star_and_domexp(capsys, star_path, k3_path):
    assert main(["alpha-star", star_path]) == 0
    assert "alpha* 2" in capsys.readouterr().out
    assert main(["domexp", k3_path]) == 0
    assert capsys.readouterr().out.strip() == "3/2"


def test_janson_csv(capsys, star_path):
    assert main(["janson", star_path, "--n-grid", "8", "--m-grid", "16,20", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,m,best_hom,three_part_hom,bound,ratio"
    assert len(lines) == 3
    assert lines[1].startswith("8,16,")


def test_janson_range_grid(capsys, star_path):
    assert main(["janson", star_path, "--n-grid", "8-9", "--m-grid", "18", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert [r["n"] for r in record["rows"]] == [8, 9]


def test_two_star_eval_and_scan(capsys):
    base = ["two-star", "--c", "0.25", "--d", "1", "--mode", "0lead"]
    assert main(base + ["--beta", "0.5", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["fprime"] == 0.0
    assert record["f"] == pytest.approx(record["objective"], abs=1e-12)
    assert main(base) == 0
    out = capsys.readouterr().out
    assert "no_interior_max true" in out


def test_hyper_commands(capsys, tmp_path):
    hg = Hypergraph(4, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    path = tmp_path / "h.hg"
    path.write_text(serialize_hypergraph(hg))
    assert main(["hyper-count", str(path), str(path)]) == 0
    count = int(capsys.readouterr().out)
    assert count > 0
    rc = main(["hyper-is-threshold", str(path)])
    capsys.readouterr()
    assert rc in (0, 1)
    assert main(["hyper-thresholdize", str(path), "--pattern", str(path)]) == 0
    captured = capsys.readouterr()
    out = parse_hypergraph(captured.out)
    assert out.n == 4 and out.k == 3
    assert "loss_bound" in captured.err


def test_hyper_count_input_errors(capsys, tmp_path):
    good = tmp_path / "h.hg"
    good.write_text(serialize_hypergraph(Hypergraph(3, 2, [(0, 1)])))
    missing = str(tmp_path / "nope.hg")
    assert main(["hyper-count", missing, str(good)]) == 2
    assert "nope.hg" in capsys.readouterr().err
    bad = tmp_path / "bad.hg"
    bad.write_text("3 1 2\n0 0\n")
    assert main(["hyper-count", str(good), str(bad)]) == 2
    assert "bad.hg" in capsys.readouterr().err


def test_verify_single_suite(capsys):
    assert main(["verify", "c4-remark"]) == 0
    out = capsys.readouterr().out
    assert "c4-remark" in out and "PASS" in out


def test_usage_errors(capsys, tmp_path, k3_path):
    missing = str(tmp_path / "nope.g")
    assert main(["count", missing, k3_path]) == 2
    assert "nope.g" in capsys.readouterr().err
    bad = tmp_path / "bad.g"
    bad.write_text("3 1\n0 0\n")
    assert main(["count", str(bad), k3_path]) == 2
    assert "bad.g" in capsys.readouterr().err
    assert main(["search-threshold", k3_path, "--n", "40", "--m", "3"]) == 2
    assert "capped" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["verify", "not-a-suite"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_deterministic_output(capsys, star_path):
    argv = ["limit-search", star_path, "--c", "0.3", "--parts", "2", "--grid", "0.1"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
