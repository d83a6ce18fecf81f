import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isobench.search
import isobench.verify
import isobench.weights
from isobench import Hypergraph, count_isolating, generic_high_objective, generic_low_objective
from isobench import counting
from isobench.cli import EXIT_INTERNAL, build_parser, main


@pytest.fixture
def s2_path(tmp_path):
    path = tmp_path / "s2.json"
    path.write_text(json.dumps({"n": 2, "edges": [[1], [2]]}))
    return str(path)


@pytest.fixture
def h8_path(tmp_path):
    # 3^8 rows split into 3 prefixes of 3^7 suffixes, so --workers 2 splits
    path = tmp_path / "h8.json"
    edges = [[1, 2], [2, 3, 5], [4, 6, 7], [1, 8], [3, 6, 8]]
    path.write_text(json.dumps({"n": 8, "edges": edges}))
    return str(path)


@pytest.fixture
def c4_path(tmp_path):
    path = tmp_path / "c4.json"
    path.write_text(json.dumps({"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 4]]}))
    return str(path)


@pytest.fixture
def c8_path(tmp_path):
    path = tmp_path / "c8.json"
    path.write_text(json.dumps({"n": 8, "edges": [[i, i % 8 + 1] for i in range(1, 9)]}))
    return str(path)


@pytest.fixture
def h12_path(tmp_path):
    # 9 edges on 12 vertices: 2^12 and 3^12 rows fit a budget of 10^6, 4^12 does not
    edges = [[1, 2, 3], [3, 4, 5], [5, 6, 7], [7, 8, 9], [9, 10, 11], [1, 11, 12],
             [2, 6, 10], [4, 8, 12], [1, 5, 9]]
    path = tmp_path / "h12.json"
    path.write_text(json.dumps({"n": 12, "edges": edges}))
    return str(path)


# values near 2^200, four limbs of 58 bits on 8 vertices, with f(1) + f(3) = 2 f(2)
WIDE = (1 << 200) - 1, 3 << 199 | (1 << 149) - 1, (1 << 201) + (1 << 150) - 1
WIDE_SPEC = "explicit:" + ",".join(map(str, WIDE))

MINIMA = ("conjectured_Y", "conjectured_Y1")
BOUNDS = ("ta_shma_bound", "corollary_Y_bound", "main_theorem_bound", "bounded_edge_bound", *MINIMA)


def triple_bounds(monkeypatch, module, names=MINIMA):
    """Triple the bounds ``names``, both conjectured minima by default, as
    ``module`` reads them, so that most instances fall below them."""
    for name in names:
        bound = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, bound=bound: 3 * bound(*args))


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


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

    @pytest.mark.parametrize(
        "edges,message",
        [
            ([1, 2], "edge 1 is not a list of integers"),
            ([["a"]], "edge ['a'] is not a list of integers"),
            ([[1.5]], "edge [1.5] is not a list of integers"),
        ],
        ids=["int-edge", "str-vertex", "float-vertex"],
    )
    def test_malformed_edges_exit_code(self, tmp_path, capsys, edges, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 3, "edges": edges}))
        assert main(["count", "--hypergraph", str(bad), "--M", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: malformed hypergraph document: {message}\n"

    @pytest.mark.parametrize("command", ["count", "sample"])
    def test_zero_denominator_exit_code(self, s2_path, capsys, command):
        argv = [command, "--hypergraph", s2_path, "--M", "2", "--objective", "explicit:1/0,2"]
        if command == "sample":
            argv += ["--trials", "10", "--seed", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "",
            "error: objective spec 'explicit:1/0,2' has a zero denominator\n",
        )

    def test_missing_flag_is_usage_error(self, capsys):
        assert main(["count", "--M", "2"]) == 2

    @pytest.mark.parametrize(
        "spec,objective",
        [("generic_high", generic_high_objective), ("generic_low", generic_low_objective)],
    )
    def test_generic_objectives(self, spec, objective, h8_path, capsys):
        assert main(["count", "--hypergraph", h8_path, "--M", "3", "--objective", spec]) == 0
        doc = json.loads(capsys.readouterr().out)
        with open(h8_path, encoding="utf-8") as fh:
            H = Hypergraph.from_json_dict(json.load(fh))
        report = count_isolating(H, 3, objective(3, H.n))
        assert {k: v for k, v in doc.items() if k not in ("p", "q")} == json.loads(
            json.dumps(report.to_json_dict())
        )

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("explicit:1,2", "explicit objective has 2 values, expected M=3"),
            ("bogus", "unknown objective spec 'bogus'"),
        ],
    )
    def test_objective_spec_refused(self, spec, message, s2_path, capsys):
        assert main(["count", "--hypergraph", s2_path, "--M", "3", "--objective", spec]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_M_below_one_refused(self, s2_path, capsys):
        assert main(["count", "--hypergraph", s2_path, "--M", "0"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: M must be a positive integer\n")

    def test_out_file(self, s2_path, tmp_path):
        out = tmp_path / "report.json"
        assert main(["count", "--hypergraph", s2_path, "--M", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["total"] == 2

    def test_workers_flag(self, s2_path, capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert main(["count", "--hypergraph", s2_path, "--M", "3", "--workers", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["total"] == 6

    # sha256 of stdout on h8 at M = 3, recorded before the three scans were
    # folded into one block generator
    GOLDEN = {
        "": "c59a5e7e416984ffb4d87d0366b755d19627fc53299bb260fbd3d5fb23521d90",
        "--objective explicit:1000000000000000000,2000000000000000001,4000000000000000000": (
            "0c19e588f1ddd9c6fae3e5c6221feb7effd40d2edda3bb54b7f6291a7a627993"
        ),
        "--workers 2": "c59a5e7e416984ffb4d87d0366b755d19627fc53299bb260fbd3d5fb23521d90",
        "--format csv": "7790d2a4bdd98f80fd5a6dd2eadeb844ca3ee823a63cab32000d04706ccc1746",
        # recorded before the tables past 2^62 took int64 limbs
        f"--objective {WIDE_SPEC}": "da189944643c19d8a9da100174e46e7d318fec48aea86c7a11e068b3ef5d793c",
        f"--objective {WIDE_SPEC} --format csv": (
            "d1f684d19788e91e00b176d83496708d79add0b477efcee03830cce0c846abfd"
        ),
    }

    @pytest.mark.parametrize("flags", sorted(GOLDEN))
    def test_golden_outputs(self, flags, h8_path, capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert main(["count", "--hypergraph", h8_path, "--M", "3", *flags.split()]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN[flags]

    @pytest.mark.parametrize("workers", ["0", "-5", "3", "64"])
    def test_workers_outside_the_cpu_count_refused(self, workers, h8_path, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        argv = ["count", "--hypergraph", h8_path, "--M", "3", "--workers", workers]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "",
            f"error: --workers must be in 1..2, got {workers}\n",
        )

    def test_workers_default_ignores_the_environment(self, s2_path, monkeypatch):
        monkeypatch.setenv("ISOBENCH_WORKERS", "5")
        args = build_parser().parse_args(["count", "--hypergraph", s2_path, "--M", "2"])
        assert args.workers == 1

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"n": True, "edges": [[1]]}, "n must be an integer, not bool"),
            ({"n": 2.0, "edges": [[1]]}, "n must be an integer, not float"),
            (
                {"n": 2, "edges": [[1], [1, 2]], "require_inclusion_free": "no"},
                "require_inclusion_free must be boolean, not str",
            ),
            (
                {"n": 2, "edges": [[1]], "allow_empty_edge": 0},
                "allow_empty_edge must be boolean, not int",
            ),
        ],
        ids=["bool-n", "float-n", "str-flag", "int-flag"],
    )
    def test_strict_document_types(self, tmp_path, capsys, doc, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["count", "--hypergraph", str(bad), "--M", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: malformed hypergraph document: {message}\n"


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

    @pytest.mark.parametrize("n_max", ["0", "-1"])
    def test_n_max_below_one_refused(self, n_max, capsys):
        assert main(["verify", "--n-max", n_max, "--M", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n_max must be >= 1\n"

    def test_golden_grid_output(self, capsys):
        # sha256 of stdout, recorded before the scans were folded into one
        # block generator
        assert main(["verify", "--n-max", "4", "--M", "2,3"]) == 0
        out = capsys.readouterr().out
        digest = "87e9d18488ab0fd8fa082667f65163f20888debeee6ef0d8844118d817f90751"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_golden_grid_output_with_a_repeated_M(self, capsys):
        # sha256 of stdout, recorded before the grid's objectives became one
        # flat (M, f) list per walk: a repeated M is checked once per listing
        assert main(["verify", "--n-max", "3", "--M", "3,2,3"]) == 0
        out = capsys.readouterr().out
        digest = "2c8c6c7c065fd9e9da4bd3dc7f83c7881aff200cc1f7e15eea8109c19fe7cd32"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_golden_grid_output_at_M_1(self, capsys):
        # sha256 of stdout, recorded before the walk carried its plan: at
        # M = 1 nothing is constructed, and only the count checks run
        assert main(["verify", "--n-max", "3", "--M", "1,2"]) == 0
        out = capsys.readouterr().out
        digest = "facf12ae4b3f128cfdbebb4e65ef823b584f135cf976918169a0d758da80efb4"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_records_only_the_failed_checks(self, capsys, monkeypatch):
        """A passing check builds no record; a failed one builds one, kept
        in the report."""
        built = []

        class Counted(isobench.verify.CheckResult):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(isobench.verify, "CheckResult", Counted)
        argv = ["verify", "--n-max", "3", "--M", "2,3"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["ok"] and built == []
        triple_bounds(monkeypatch, isobench.verify, BOUNDS)
        assert main(argv) == 1
        doc = json.loads(capsys.readouterr().out)
        assert not doc["ok"] and len(doc["violations"]) == len(built) > 0

    def test_failed_internal_check_exits_4(self, s2_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise AssertionError("pivot descent failed to isolate edge (1,) at weight (1, 2)")

        monkeypatch.setattr(isobench.verify, "_witnesses", broken)
        assert main(["verify", "--hypergraph", s2_path, "--M", "2"]) == EXIT_INTERNAL == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: internal check failed: pivot descent failed to isolate"
            " edge (1,) at weight (1, 2)\n"
        )
        assert "Traceback" not in captured.err

    # sha256 of stdout in JSON and CSV, recorded before reports became
    # plain dataclasses rendered by the CLI
    GOLDEN = {
        "--hypergraph {c4} --M 2,3,4": (
            0,
            "9c0230d79a8337c040100c18daeb8e1187c9539ca2e99426d4d2e57ea67b5305",
            "5ee1d3751987e4fe15eeda9c8ae79266868c41d97f8c2b25218f8fbf23b0a041",
        ),
        "--n-max 3 --M 2,3 (tripled minima)": (
            1,
            "82d36ad767442112de153c0c9b66e6bf03453f42a7aa92c3682be396913c9152",
            "bfdf7577e1663be8b94bf0d28f72d5e02a8846f2b3e516848f169c7fe0fd0e70",
        ),
        # every bound the checks read tripled, so that theorem and
        # conjecture checks fail at several positions of one instance and
        # the order, kinds and texts of the failed checks are pinned;
        # recorded before the checks became one table of array comparisons
        "--n-max 3 --M 2,3 (tripled bounds)": (
            1,
            "363daa40e43dc3a8d86c92561fcce6905f1fffea7b56e3f88ed3bf65cccacd56",
            "a21749fc6c2b5fdcbaabc30ec87bc268b3ded2da2a476669762e5e1a0e56fc98",
        ),
        "--hypergraph {c4} --M 2,3,4 (tripled bounds)": (
            1,
            "53882beee51e4a49046f2b9836a78bc29d54fcb50be354b5b675f2a084805401",
            "013a98d3591087da057e865d0fc8ede289b6cdc1c6143c7be8a101e85259d17a",
        ),
        # generic_high on 2 vertices at M = 40, 3^40 > 2^62 / 2: constructions
        # on a table of two limbs; recorded before the tables past 2^62 took
        # int64 limbs
        "--n-max 2 --M 40": (
            0,
            "77b81742e38913635911719f7d7340ad82b6a7b10e81450ca3ea6d403430164b",
            "7d8bd21b35e3c5c53765a6d68e509df686fe9f639ad1fc32f5b9d53e6ef1fd91",
        ),
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_golden_outputs(self, case, c4_path, capsys, monkeypatch):
        argv, _, tripled = case.partition(" (tripled ")
        if tripled:
            names = BOUNDS if tripled == "bounds)" else MINIMA
            triple_bounds(monkeypatch, isobench.verify, names)
        code, *digests = self.GOLDEN[case]
        for fmt, digest in zip(("json", "csv"), digests):
            assert main(["verify", *argv.format(c4=c4_path).split(), "--format", fmt]) == code
            assert sha256(capsys.readouterr().out) == digest


class TestGridRefusals:
    @pytest.mark.parametrize(
        "argv,message",
        [
            ("verify --n-max 6 --M 2", "enumeration exceeds budget 1000000"),
            ("search --n-max 6 --M 2,3,4,5", "enumeration exceeds budget 1000000"),
            (
                "verify --n-max 5 --M 2,3 --budget 200",
                "3^5 = 243 weight evaluations exceed budget 200",
            ),
            # M = 2 and 3 fit the budget; the M = 4 scan refuses the run
            (
                "verify --hypergraph {h12} --M 2,3,4 --budget 1000000",
                "4^12 = 16777216 weight evaluations exceed budget 1000000",
            ),
            # 9^8 rows fit the default budget; one unchunked stack of
            # 2 * 8 * 8^7 left nodes times 8 columns does not
            (
                "verify --hypergraph {c8} --M 9",
                "the constructions of one hypergraph on 8 vertices at M = 9"
                " stack 268435456 cells, more than 4194304",
            ),
        ],
    )
    def test_refused_before_the_first_count(
        self, argv, message, h12_path, c8_path, capsys, monkeypatch
    ):
        def counted(*args, **kwargs):
            raise AssertionError("a refused grid was counted")

        monkeypatch.setattr(isobench.search, "_count_many", counted)
        monkeypatch.setattr(isobench.verify, "_walk_checks", counted)
        monkeypatch.setattr(isobench.verify, "_count_many", counted)
        assert main(argv.format(h12=h12_path, c8=c8_path).split()) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("verify --hypergraph {s2} --M 100000", "100000^2 = 10000000000"),
            ("search --n-max 2 --M 100000", "100000^2 = 10000000000"),
            ("count --hypergraph {s2} --M 100000", "100000^2 = 10000000000"),
            # M = 500 fits the budget at n = 1 and n = 2, where the objectives
            # would be built first under a walk-by-walk order
            ("search --n-max 3 --M 2,500", "500^3 = 125000000"),
            ("sample --hypergraph {s2} --M 2 --trials 100000001 --seed 1", "100000001"),
        ],
    )
    def test_refused_before_any_objective_is_built(self, argv, message, s2_path, capsys, monkeypatch):
        def built(*args, **kwargs):
            raise AssertionError("an objective was built")

        monkeypatch.setattr(isobench.weights.Objective, "__post_init__", built)
        assert main(argv.format(s2=s2_path).split()) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "",
            f"error: {message} weight evaluations exceed budget 100000000\n",
        )


class TestMList:
    @pytest.mark.parametrize("command", ["verify", "search"])
    @pytest.mark.parametrize("spec", ["", "2,,3", "x", "0", "-1", "2,0"])
    def test_only_positive_integers(self, command, spec, capsys):
        assert main([command, "--n-max", "2", "--M", spec]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "",
            f"error: expected comma-separated positive integers, got {spec!r}\n",
        )


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

    # sha256 of stdout, recorded from the per-instance sweep before the
    # sweep was batched across hypergraphs
    GOLDEN = {
        "--n-max 4 --M 2,3,4,5": (
            "40705a2f56c0cddb5787f628b7434b3ce093831f31d1afe3f14d3f0f808abe0c",
            "7e047ff9e806ba728885f427a1f7fc08bc463762a19c54727c5bb57dfc2b6c03",
        ),
        "--n-max 5 --M 2,3": (
            "235f7eed91982cccefa7daf656cc420c2a05d35305e269a4cfc4ae1b6d407b1d",
            "625328bf545bad344ea71c5189466445d39ee55736b5732bc959ffac911c5c54",
        ),
        "--n-max 5 --M 2,3 --prune": (
            "68133f4204ebbfe1e7ca464a9f94124fac26e3cb00a59ef09e222606b6489d7a",
            "f5e76a425abf88fcf1c1424035250778af778f10dcfad39729f675e54d0a17e3",
        ),
        "--n-max 4 --M 1,2,3 --strategy random:3 --seed 7": (
            "5793a7948b2c1caeb08b8d3fc7b710d5e580f7d05cab888c6f47a647c482305c",
            "d1eb6d33b2d72e149a283825ac9439e8fff6e128709137ae8f97d1962d0b8686",
        ),
        "--n-max 4 --M 2,3 --strategy integers:5": (
            "c142673a3fb4abf75a8e8431556b919a8c04a1ce5af919960212828e7c0bb2a8",
            "ed49be960d83b9c1c775fb1c78dd492e41fa0c1e4c25d81dae0e487f608568af",
        ),
        # a repeated, unsorted M list, recorded before the grid's objectives
        # became one flat (M, f) list per walk
        "--n-max 3 --M 3,1,3": (
            "845fb2dc5f6aaca6f2399f77d27b06e105005dbdc410f4ce82755b0bceb658f9",
            "c89b7568ed327fe9c7f7a88509bb3cd2bf14b86ec48b1ca2cc4d6edbc62fb2da",
        ),
        # the presets' tables mix kinds at one M on 3 vertices: int16, int32
        # and int16 at M = 12, int16, two int64 limbs and int16 at M = 32;
        # recorded before the objectives of one M were counted in one scan
        "--n-max 3 --M 2,12,32": (
            "16afe8537c5b5d8abfcf06c9577de65b20416d02759255963f36da803d793eaa",
            "f6501de1ce328bdea90424a9ebb949d9cd97a7c634bb644629e420c027c15080",
        ),
    }

    @pytest.mark.parametrize("grid", sorted(GOLDEN))
    def test_golden_outputs(self, grid, capsys):
        for fmt, digest in zip(("json", "csv"), self.GOLDEN[grid]):
            assert main(["search", *grid.split(), "--format", fmt]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_golden_violations(self, capsys, monkeypatch):
        # sha256 of stdout with both minima tripled, so that the report
        # lists violations; recorded before reports became plain dataclasses
        triple_bounds(monkeypatch, isobench.search)
        digests = (
            "716e119653e716029a1c2685a9bcfa188d1682a89ac0f4f970c12fe006c4414a",
            "fcf6e2fb12b269a25ba01f4190e0c8803420ec01bd79c27a18bd4617002065f6",
        )
        for fmt, digest in zip(("json", "csv"), digests):
            assert main(["search", "--n-max", "3", "--M", "2,3", "--format", fmt]) == 1
            assert sha256(capsys.readouterr().out) == digest

    @pytest.mark.parametrize(
        "argv,message",
        [
            ("--n-max 3 --M 2 --prune --budget 3", "2^3 = 8 weight evaluations exceed budget 3"),
            ("--n-max 3 --M 2,3 --budget 8", "3^2 = 9 weight evaluations exceed budget 8"),
            # n = 6 exceeds both budgets (2^6 = 64 > 40); the enumeration's
            # refusal comes before the walk, so before the count's
            ("--n-max 6 --M 2 --budget 40", "enumeration exceeds budget 1000000"),
        ],
    )
    def test_budget_errors(self, argv, message, capsys):
        assert main(["search", *argv.split()]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv,size",
        [
            # C(3000, 3) integer objectives, and 5 * 10^7 random ones
            ("--M 3 --strategy integers:3000", 4495501000),
            ("--M 2 --strategy random:50000000", 50000000),
        ],
    )
    def test_strategy_family_cap(self, argv, size, capsys, monkeypatch):
        def started(*args, **kwargs):
            raise AssertionError("the family was built or counted")

        monkeypatch.setattr(isobench.weights.Objective, "__post_init__", started)
        monkeypatch.setattr(isobench.search, "_count_many", started)
        assert main(["search", "--n-max", "1", *argv.split()]) == 3
        captured = capsys.readouterr()
        M = argv.split()[1]
        message = f"error: {size} objectives at M = {M} exceed budget 1000000\n"
        assert (captured.out, captured.err) == ("", message)

    def test_strategy_family_cap_boundary(self, capsys, monkeypatch):
        """C(5, 2) = 10 integer objectives at M = 2, 10 at M = 3."""
        monkeypatch.setattr(isobench.search, "_MAX_OBJECTIVES", 9)
        for spec in ("integers:5", "random:10"):
            assert main(["search", "--n-max", "2", "--M", "3,2", "--strategy", spec]) == 3
            captured = capsys.readouterr()
            message = "error: 10 objectives at M = 3 exceed budget 9\n"
            assert (captured.out, captured.err) == ("", message)
        monkeypatch.setattr(isobench.search, "_MAX_OBJECTIVES", 10)
        for spec in ("integers:5", "random:10"):
            assert main(["search", "--n-max", "2", "--M", "3,2", "--strategy", spec]) == 0
            # 10 objectives at each of 2 M on the 2 + 5 hypergraphs with n <= 2
            assert json.loads(capsys.readouterr().out)["instances"] == 2 * 10 * 7

    def test_missing_ratio_is_an_empty_cell(self, capsys):
        # the one pruned hypergraph, the triangle, under three objectives at
        # M = 1: both conjectured minima are 0 there, so neither ratio exists
        assert main(["search", "--n-max", "3", "--M", "1", "--prune", "--format", "csv"]) == 0
        assert capsys.readouterr().out == (
            "n_max,M_values,instances,min_ratio_total,min_ratio_layer1,violations\n3,1,3,,,0\n"
        )

    def test_unknown_strategy(self, capsys):
        assert main(["search", "--n-max", "2", "--M", "2", "--strategy", "mystery"]) == 2

    @pytest.mark.parametrize(
        "spec",
        ["integers:3:9", "random:2:x", "random:", "integers:", "random:x", "random: 2", "random:2.0"],
    )
    def test_strategy_takes_exactly_one_integer_field(self, spec, capsys):
        assert main(["search", "--n-max", "2", "--M", "2", "--strategy", spec]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: unknown strategy spec {spec!r}\n")

    @pytest.mark.parametrize(
        "spec,message",
        [
            ("random:0", "random_rational strategy needs count >= 1"),
            ("integers:-1", "exhaustive_integer strategy needs bound >= 1"),
        ],
    )
    def test_strategy_field_below_one_refused(self, spec, message, capsys):
        assert main(["search", "--n-max", "2", "--M", "2", "--strategy", spec]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestScans:
    """The work shape of the two sweeps: one scan (``counting._blocks``
    call) per walk and M, stacking that M's distinct objectives, and one
    plan per walk (``counting._build_plan``), which every scan and
    construction of the walk reads."""

    @pytest.mark.parametrize(
        "argv,stacks",
        [
            # the benchmark's sweep and verify grids: 4 walks times 4 and 2 M
            ("search --n-max 4 --M 2,3,4,5", [(M, 3) for _ in range(4) for M in (2, 3, 4, 5)]),
            ("verify --n-max 4 --M 2,3", [(M, 3) for _ in range(4) for M in (2, 3)]),
            # a repeated M is counted once: 3 objectives at M = 3, not 6
            ("search --n-max 3 --M 3,1,3", [(M, 3) for _ in range(3) for M in (3, 1)]),
            ("verify --n-max 3 --M 3,2,3", [(M, 3) for _ in range(3) for M in (3, 2)]),
        ],
    )
    def test_one_scan_per_walk_and_M(self, argv, stacks, capsys, monkeypatch):
        seen, plans = [], []
        blocks, build = counting._blocks, counting._build_plan

        def spy(plan, tables, M, *args, **kwargs):
            seen.append((M, tables.shape[1]))
            return blocks(plan, tables, M, *args, **kwargs)

        def plan_spy(Hs):
            plans.append(Hs[0].n)
            return build(Hs)

        monkeypatch.setattr(counting, "_blocks", spy)
        monkeypatch.setattr(counting, "_build_plan", plan_spy)
        assert main(argv.split()) == 0
        assert seen == stacks
        # one walk per vertex count up to --n-max
        assert plans == list(range(1, int(argv.split()[2]) + 1))


class TestSeed:
    @pytest.mark.parametrize(
        "argv",
        [
            "sample --hypergraph {s2} --M 2 --trials 10 --seed -1",
            "sample --hypergraph {s2} --M 2 --trials 10 --seed -1 --layer1",
            "search --n-max 2 --M 2 --strategy presets --seed -1",
            "search --n-max 2 --M 2 --strategy random:2 --seed -1",
            "search --n-max 2 --M 2 --strategy integers:3 --seed -1",
        ],
    )
    def test_negative_seed_refused(self, argv, s2_path, capsys):
        assert main(argv.format(s2=s2_path).split()) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: seed must be >= 0, got -1\n")


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

    @pytest.mark.parametrize("layer1", [[], ["--layer1"]], ids=["uniform", "layer1"])
    def test_budget_refuses_trials_before_drawing(self, s2_path, capsys, layer1):
        argv = ["sample", "--hypergraph", s2_path, "--M", "2", "--trials", "100000"]
        assert main([*argv, "--seed", "1", "--budget", "10", *layer1]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "",
            "error: 100000 weight evaluations exceed budget 10\n",
        )

    @pytest.mark.parametrize("budget,exact", [("100", None), ("10000", "1304/2187")])
    def test_exact_count_only_within_budget(self, h8_path, capsys, budget, exact):
        # 3^8 = 6,561 rows: the exact count is left out under a smaller budget
        argv = ["sample", "--hypergraph", h8_path, "--M", "3", "--trials", "10", "--seed", "1"]
        assert main([*argv, "--budget", budget]) == 0
        assert json.loads(capsys.readouterr().out)["exact"] == exact

    # sha256 of stdout on h8 at M = 3, whose exact value adds an asymptotics
    # row; recorded before reports became plain dataclasses
    GOLDEN = {
        ("", "json"): "b0cb748e8da951f1b1501b4a3e77ea9686f42e4899e67c848e22040f881211c5",
        ("", "csv"): "08dd892ec28523cc8906d8babc324038425a702ef0f437cc7253f51fae85b7a7",
        ("--layer1", "json"): "7eb85659bd2cefa462e28d126a7b94066242b2a9e2be6db46364fb31140302c7",
        ("--layer1", "csv"): "052b70f3e74ca5f6e9cffa2f3b28a624591d8bc8f73658acc31b12463577fb87",
    }

    @pytest.mark.parametrize("layer1,fmt", sorted(GOLDEN))
    def test_golden_outputs(self, layer1, fmt, h8_path, capsys):
        argv = ["sample", "--hypergraph", h8_path, "--M", "3", "--trials", "1000", "--seed", "1"]
        assert main([*argv, *layer1.split(), "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert "quantity" in out  # the asymptotics row
        assert sha256(out) == self.GOLDEN[layer1, fmt]

    # the same at 40,000 trials, which span three batches of 2^14 draws and
    # cut the last, so the digests pin the stream order across batches;
    # recorded before the samplers classified whole batches
    GOLDEN_BATCHES = {
        "": "be01b0cf416b5bdb50ea14bcd353c101adcde0cc3e2866680941ac8d32968c4f",
        "--layer1": "bbd924894339fcc5472bbe18c07752c6489f0711c1a9157c4d639a56b16dcc46",
    }

    @pytest.mark.parametrize("layer1", sorted(GOLDEN_BATCHES))
    def test_golden_across_batches(self, layer1, h8_path, capsys):
        argv = ["sample", "--hypergraph", h8_path, "--M", "3", "--trials", "40000", "--seed", "1"]
        assert main([*argv, *layer1.split()]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["draws"] == (3 << 14 if layer1 else 40000)
        assert sha256(out) == self.GOLDEN_BATCHES[layer1]

    def test_golden_at_a_low_layer1_share(self, h8_path, capsys):
        """At M = 40 a share 1 - (39/40)^8 = 0.18 of the draws is on layer
        1, below a quarter, so the rows holding a 1 are copied out of each
        batch; sha256 of stdout, recorded before the walk carried its plan."""
        argv = ["sample", "--hypergraph", h8_path, "--M", "40", "--trials", "1000", "--seed", "1"]
        assert main([*argv, "--layer1"]) == 0
        out = capsys.readouterr().out
        digest = "3665b8af8ab52e5067b7d79a798cbfae2f37f70b5698024fbe14ed61997eb1b2"
        assert sha256(out) == digest

    # the same at M = 40 under generic_high, 9^40 near 2^127: three limbs
    # of 58 bits on 8 vertices; recorded before the tables past 2^62 took
    # int64 limbs
    GOLDEN_WIDE = {
        ("", "json"): "91ce06068559be1138e876536a272464c752c755aba23be2cda22062eaa96e87",
        ("", "csv"): "864c6b2858df589883f4a235ed4f9085833f3166cc8ecad4d2f969cb1ed9b3ae",
        ("--layer1", "json"): "4230516c4bf1bd9d43d587849bdbbdfb8de149bd4946a8f1ac4ca8b26b32d7ba",
        ("--layer1", "csv"): "2209498f51a512ed0d100f20a1c3726bfa612f1c398b3bf97bf1d34feecfd00b",
    }

    @pytest.mark.parametrize("layer1,fmt", sorted(GOLDEN_WIDE))
    def test_golden_with_a_wide_table(self, layer1, fmt, h8_path, capsys):
        argv = ["sample", "--hypergraph", h8_path, "--M", "40", "--trials", "1000", "--seed", "1"]
        argv += ["--objective", "generic_high", *layer1.split(), "--format", fmt]
        assert counting._limbs(counting._table(generic_high_objective(40, 8), 8)) == 3
        assert main(argv) == 0
        assert sha256(capsys.readouterr().out) == self.GOLDEN_WIDE[layer1, fmt]

    def test_csv(self, s2_path, capsys):
        code = main(
            [
                "sample", "--hypergraph", s2_path, "--M", "2",
                "--trials", "500", "--seed", "3", "--format", "csv",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("kind,n,M,trials,seed")


# Imports isobench.cli in a fresh interpreter, then runs each argv given as
# JSON through cli.main and prints which modules that op imported.
STARTUP_PROBE = """
import contextlib, io, json, sys
import isobench.cli
heavy = [m for m in ("mpmath", "multiprocessing", "concurrent.futures") if m in sys.modules]
ops = {}
for argv in json.loads(sys.argv[1]):
    before = set(sys.modules)
    with contextlib.redirect_stdout(io.StringIO()):
        code = isobench.cli.main(argv)
    ops[argv[0]] = [code, sorted(set(sys.modules) - before)]
print(json.dumps({"heavy": heavy, "ops": ops}))
"""


class TestStartup:
    def test_cold_start_and_ops_import_nothing_extra(self, s2_path):
        """``import isobench.cli`` loads neither mpmath nor the process
        pool, and a tiny count, search and verify then import no module
        inside the op: argparse's gettext lookup needs ``locale``, which
        the CLI imports at start-up.  ``sample`` is left out: it imports
        ``numpy.random`` when it first draws, as numpy itself defers it."""
        argvs = [
            ["count", "--hypergraph", s2_path, "--M", "2"],
            ["search", "--n-max", "2", "--M", "2"],
            ["verify", "--n-max", "2", "--M", "2"],
        ]
        src = str(Path(isobench.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", STARTUP_PROBE, json.dumps(argvs)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout) == {
            "heavy": [],
            "ops": {"count": [0, []], "search": [0, []], "verify": [0, []]},
        }
