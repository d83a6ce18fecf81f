"""The correctness gate.  An op fails when it raises, exits with a code
other than 0, or prints output that fails one of these checks:

- the output's sha256 matches the digest in ``reference.json`` (seeded
  workloads only for the reference seed; the exhaustive grids always);
- the counts the op reports equal the benchmark's own expectations
  (2,316 ``sweep`` instances, 1,158 ``verify`` instances, sampler
  bookkeeping);
- the output is byte-identical to the same op's output in earlier passes;
- ``count`` ops agree with ``tests/oracle.py`` (ops of at most
  ``ORACLE_ROWS`` rows) or with ``independent_count`` (the larger ones).
  Each distinct output is checked once, outside any timed region.
"""

from __future__ import annotations

import importlib.util
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from workloads import Op, Workload

ORACLE_ROWS = 20_000
SEEDED = ("scan", "sample")
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def load_digests(name: str, seed: int, *, smoke: bool) -> Optional[list]:
    """Reference output digests of a workload's ops, or None where the
    reference does not apply (a seeded workload with another seed)."""
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if name in SEEDED and seed != reference["seed"]:
        return None
    return reference["smoke" if smoke else "full"][name]


def load_oracle(path: Path):
    """Import tests/oracle.py without writing bytecode next to it."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("isobench_test_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Gate:
    def __init__(self, workload: Workload, digests: Optional[list], oracle) -> None:
        self.workload = workload
        self.digests = digests
        self.oracle = oracle
        self.first_sha: dict[int, str] = {}
        self.verdicts: dict[str, list[str]] = {}

    def check(self, index: int, result: dict) -> list[str]:
        """Problems with one op's result; empty when the op passed."""
        if result["error"] is not None:
            return [f"raised {result['error']}"]
        if result["exit"] != 0:
            return [f"exit code {result['exit']}, expected 0"]
        problems = []
        sha = result["sha256"]
        first = self.first_sha.setdefault(index, sha)
        if sha != first:
            problems.append("output differs from an earlier pass")
        if self.digests is not None and sha != self.digests[index]:
            problems.append("output sha256 differs from the reference digest")
        if sha not in self.verdicts:
            self.verdicts[sha] = self._check_output(self.workload.ops[index], result["output"])
        return problems + self.verdicts[sha]

    def _check_output(self, op: Op, text: str) -> list[str]:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"]
        command = op.argv[0]
        if command == "count":
            return self._check_count(op, doc)
        if command == "sample":
            return _check_sample(op, doc)
        problems = []
        if doc.get("instances") != op.instances:
            problems.append(f"{doc.get('instances')} instances, expected {op.instances}")
        if command == "search" and doc.get("violations") != []:
            problems.append("conjecture sweep reported violations")
        if command == "verify" and doc.get("ok") is not True:
            problems.append("verify reported violations")
        return problems

    def _check_count(self, op: Op, doc: dict) -> list[str]:
        inst = op.instance
        n, M, edges = inst["n"], inst["M"], inst["edges"]
        values = [Fraction(v) for v in inst["values"]]
        total, per_layer = doc["total"], doc["per_layer"]
        per_edge = {tuple(item["edge"]): item["count"] for item in doc["per_edge"]}
        problems = []
        if (doc["n"], doc["M"]) != (n, M):
            problems.append("reported (n, M) differs from the input")
        if Fraction(doc["p"]) != Fraction(total, M**n):
            problems.append("p is not total / M^n")
        if Fraction(doc["q"]) != Fraction(per_layer[0], M**n - (M - 1) ** n):
            problems.append("q is not layer1 / (M^n - (M-1)^n)")
        if op.rows <= ORACLE_ROWS:
            expected, source = self.oracle.count_isolating(n, edges, M, values), "tests/oracle.py"
        else:
            expected, source = independent_count(n, edges, M, values), "the independent count"
        e_total, e_layers, e_edges = expected
        e_edges = {tuple(edges[k]): c for k, c in e_edges.items()}
        if (total, per_layer, per_edge) != (e_total, e_layers, e_edges):
            problems.append(f"counts disagree with {source}")
        return problems


def independent_count(n: int, edges, M: int, values, chunk: int = 1 << 18):
    """(total, per_layer, per_edge) by the definition, in the oracle's
    format: every row of [M]^n, edge weights as an incidence-matrix
    product of denominator-cleared values.  Shares no code with the
    package; for objectives whose scaled values fit int64."""
    denom = math.lcm(*(v.denominator for v in values))
    table = np.array([0] + [int(v * denom) for v in values], dtype=np.int64)
    assert int(table.max()) * n < 1 << 62
    incidence = np.zeros((n, len(edges)), dtype=np.int64)
    for k, edge in enumerate(edges):
        incidence[[v - 1 for v in edge], k] = 1
    place = M ** np.arange(n - 1, -1, -1, dtype=np.int64)
    total = 0
    per_layer = np.zeros(M + 1, dtype=np.int64)
    per_edge = np.zeros(len(edges), dtype=np.int64)
    for start in range(0, M**n, chunk):
        rank = np.arange(start, min(start + chunk, M**n), dtype=np.int64)
        w = rank[:, None] // place % M + 1
        sums = table[w] @ incidence
        at_min = sums == sums.min(axis=1, keepdims=True)
        iso = at_min.sum(axis=1) == 1
        total += int(iso.sum())
        per_layer += np.bincount(w.min(axis=1)[iso], minlength=M + 1)
        per_edge += np.bincount(at_min.argmax(axis=1)[iso], minlength=len(edges))
    return total, per_layer[1:].tolist(), {k: int(c) for k, c in enumerate(per_edge) if c}


def _check_sample(op: Op, doc: dict) -> list[str]:
    trials = op.rows
    layer1 = "--layer1" in op.argv
    problems = []
    if doc["kind"] != ("layer1" if layer1 else "uniform") or doc["trials"] != trials:
        problems.append("sampler kind or trial count differs from the request")
    if not 0 <= doc["successes"] <= trials:
        problems.append("successes outside 0..trials")
    if doc["estimate"] != doc["successes"] / trials:
        problems.append("estimate is not successes / trials")
    if (doc["draws"] < trials) if layer1 else (doc["draws"] != trials):
        problems.append("draw count inconsistent with the trials")
    if doc["exact"] is not None:
        problems.append("an exact count ran although M^n exceeds the exact budget")
    return problems
