import json

import pytest

import isobench.verify
from isobench.cli import EXIT_INTERNAL, main


@pytest.fixture
def s2_path(tmp_path):
    path = tmp_path / "s2.json"
    path.write_text(json.dumps({"n": 2, "edges": [[1], [2]]}))
    return str(path)


@pytest.fixture
def power2_path(tmp_path):
    doc = {"n": 2, "edges": [[], [1], [2], [1, 2]], "allow_empty_edge": True,
           "require_inclusion_free": False}
    path = tmp_path / "power2.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestCount:
    def test_basic_count(self, s2_path, capsys):
        assert main(["count", "--hypergraph", s2_path, "--M", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] == 6
        assert doc["per_layer"] == [4, 2, 0]
        assert doc["p"] == "2/3"

    def test_csv_format(self, s2_path, capsys):
        assert main(["count", "--hypergraph", s2_path, "--M", "2", "--format", "csv"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "n,M,total,layer1,p,q"
        assert out[1] == "2,2,2,2,1/2,2/3"

    def test_objective_flag(self, s2_path, capsys):
        code = main(
            ["count", "--hypergraph", s2_path, "--M", "2", "--objective", "explicit:1/2,2"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["total"] == 2

    def test_zero_allowed_flag(self, power2_path, capsys):
        code = main(
            [
                "count", "--hypergraph", power2_path, "--M", "2",
                "--objective", "explicit:0,1", "--zero-allowed",
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["total"] == 1

    def test_budget_exit_code(self, s2_path, capsys):
        assert main(["count", "--hypergraph", s2_path, "--M", "3", "--budget", "5"]) == 3

    def test_malformed_input_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["count", "--hypergraph", str(bad), "--M", "2"]) == 2

    def test_missing_flag_is_usage_error(self, capsys):
        assert main(["count", "--M", "2"]) == 2

    def test_out_file(self, s2_path, tmp_path):
        out = tmp_path / "report.json"
        assert main(["count", "--hypergraph", s2_path, "--M", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["total"] == 2

    def test_workers_flag(self, s2_path, capsys):
        assert main(["count", "--hypergraph", s2_path, "--M", "3", "--workers", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["total"] == 6


class TestVerify:
    def test_instance_mode(self, s2_path, capsys):
        assert main(["verify", "--hypergraph", s2_path, "--M", "2,3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] and doc["violations"] == []

    def test_grid_mode(self, capsys):
        assert main(["verify", "--n-max", "2", "--M", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"]

    def test_conflicting_flags(self, s2_path, capsys):
        assert main(["verify", "--hypergraph", s2_path, "--n-max", "2", "--M", "2"]) == 2

    def test_needs_some_mode(self, capsys):
        assert main(["verify", "--M", "2"]) == 2

    def test_failed_internal_check_exits_4(self, s2_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise AssertionError("injection image failed to isolate edge (1,) at weight (2, 2)")

        monkeypatch.setattr(isobench.verify, "tashma_injection", broken)
        assert main(["verify", "--hypergraph", s2_path, "--M", "2"]) == EXIT_INTERNAL == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: internal check failed: injection image failed to isolate"
            " edge (1,) at weight (2, 2)\n"
        )
        assert "Traceback" not in captured.err


class TestSearch:
    def test_small_search(self, capsys):
        assert main(["search", "--n-max", "2", "--M", "2", "--strategy", "presets"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["min_ratio_layer1"] == "1"
        assert doc["violations"] == []

    def test_byte_identical_reruns(self, capsys):
        argv = ["search", "--n-max", "2", "--M", "2,3", "--strategy", "random:2", "--seed", "5"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_unknown_strategy(self, capsys):
        assert main(["search", "--n-max", "2", "--M", "2", "--strategy", "mystery"]) == 2


class TestSample:
    def test_uniform(self, s2_path, capsys):
        code = main(
            ["sample", "--hypergraph", s2_path, "--M", "2", "--trials", "2000", "--seed", "7"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["exact"] == "1/2"
        assert abs(doc["estimate"] - 0.5) < 0.05

    def test_layer1(self, s2_path, capsys):
        code = main(
            [
                "sample", "--hypergraph", s2_path, "--M", "2",
                "--trials", "2000", "--seed", "7", "--layer1",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["exact"] == "2/3"
        assert doc["asymptotics"][0]["quantity"] == "q"

    def test_zero_trials_rejected(self, s2_path, capsys):
        code = main(
            ["sample", "--hypergraph", s2_path, "--M", "2", "--trials", "0", "--seed", "1"]
        )
        assert code == 2

    def test_csv(self, s2_path, capsys):
        code = main(
            [
                "sample", "--hypergraph", s2_path, "--M", "2",
                "--trials", "500", "--seed", "3", "--format", "csv",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("kind,n,M,trials,seed")
