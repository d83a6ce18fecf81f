"""The four benchmark workloads: seeded inputs, the CLI argument list of
every op, and the counts the correctness gate expects.

Inputs come from the benchmark's own numpy ``Generator``, never from the
package's generators, so a change to ``isobench.random_hypergraph`` cannot
change a workload.  Only the hypergraph files and objective specs reach the
program.  ``sweep`` and ``verify`` are exhaustive grids; the seed does not
touch them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

NAMES = ("scan", "sweep", "verify", "sample")

# Labeled inclusion-free hypergraphs on n vertices, as enumerate_hypergraphs
# yields them (antichains of nonempty subsets, the empty family included):
# Dedekind number minus one, n = 1..5.
INCLUSION_FREE = {1: 2, 2: 5, 3: 19, 4: 167, 5: 7580}
PRESETS = 3  # identity, generic_high, generic_low

# scan: (n, M, objective, edge cardinalities).  Shapes are fixed so every
# seed scans the same rows with the same gather widths; the seed only picks
# which vertices each edge holds.
SCAN_SHAPES = (
    (9, 4, "identity", (2, 3, 3, 4, 4, 5)),
    (8, 5, "generic_high", (2, 2, 3, 3, 4)),
    (7, 7, "generic_low", (3, 3, 3, 3)),
    (8, 6, "identity", (2, 3, 3, 4, 4)),
)
# The exact-object op: objective values near 10^18 overflow the int64 path.
EXACT_SHAPE = (6, 5, (2, 2, 3, 3))
SMOKE_SCAN_SHAPES = (
    (5, 3, "identity", (2, 3, 3)),
    (4, 4, "generic_high", (2, 2, 3)),
    (5, 3, "generic_low", (2, 2, 2)),
    (4, 3, "identity", (1, 2)),
)
SMOKE_EXACT_SHAPE = (5, 3, (2, 2, 3))

SAMPLE_SHAPE = (9, 6, (2, 3, 3, 4, 4))  # 6^9 > the samplers' exact budget
SAMPLE_TRIALS = 1_000_000
SMOKE_SAMPLE_TRIALS = 20_000

# The speed probe loops (see child.py) whose times track each workload's
# op times on a shared machine: the numpy loop for the counting kernel, the
# Python loop for the interpreter-bound grids, both for the samplers, whose
# draws and bookkeeping run in Python around numpy classification.
PROBES = {
    "scan": ("numpy",),
    "sweep": ("python",),
    "verify": ("python",),
    "sample": ("python", "numpy"),
}

SWEEP_GRID = (4, (2, 3, 4, 5))
VERIFY_GRID = (4, (2, 3))
SMOKE_SWEEP_GRID = (3, (2,))
SMOKE_VERIFY_GRID = (3, (2, 3))


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the work it stands for."""

    argv: tuple[str, ...]
    rows: int  # weight rows the op classifies
    instances: int  # (H, M, f) instances the op covers
    instance: Optional[dict] = None  # a count op's instance as plain data, for the gate


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    probes: tuple[str, ...] = ("python", "numpy")  # the probe loops that track its ops' speed

    @property
    def rows(self) -> int:
        return sum(op.rows for op in self.ops)

    @property
    def instances(self) -> int:
        return sum(op.instances for op in self.ops)


def _antichain(rng: np.random.Generator, n: int, sizes) -> list[list[int]]:
    """Distinct edges of the given cardinalities, none inside another, by
    redrawing the whole edge set until it is an antichain; sorted the way
    the package normalizes them."""
    while True:
        edges = [frozenset(int(v) + 1 for v in rng.choice(n, size=s, replace=False)) for s in sizes]
        if all(not (a <= b or b <= a) for i, a in enumerate(edges) for b in edges[i + 1 :]):
            return sorted(sorted(e) for e in edges)


def _write_hypergraph(workdir: Path, tag: str, n: int, edges) -> str:
    path = workdir / f"{tag}.json"
    path.write_text(json.dumps({"n": n, "edges": edges}), encoding="utf-8")
    return str(path)


def _huge_objective(rng: np.random.Generator, M: int, n: int) -> list[str]:
    """Strictly increasing integers topped by 10^18, so n * max exceeds
    2^62 and the count takes the exact-object fallback."""
    top = 10**18
    assert top * n >= 1 << 62
    while True:
        low = sorted({int(v) for v in rng.integers(1, top // 10, size=M - 1)})
        if len(low) == M - 1:
            return [str(v) for v in low + [top]]


def _grid(n_max: int, M_values) -> tuple[int, int]:
    """(instances, rows) of a preset-objective sweep over every
    inclusion-free hypergraph with at most n_max vertices."""
    instances = sum(INCLUSION_FREE[n] for n in range(1, n_max + 1)) * len(M_values) * PRESETS
    rows = sum(
        INCLUSION_FREE[n] * PRESETS * M**n for n in range(1, n_max + 1) for M in M_values
    )
    return instances, rows


def _objective_values(objective: str, M: int, n: int) -> list[str]:
    """The preset objectives' values by their documented definitions."""
    if objective == "identity":
        return [str(k) for k in range(1, M + 1)]
    if objective == "generic_high":
        return [str((n + 1) ** k) for k in range(1, M + 1)]
    d = n * (M + 1)
    return [str(Fraction(d + k, d)) for k in range(1, M + 1)]


def _scan(rng, workdir: Path, smoke: bool) -> tuple[Op, ...]:
    instances = [
        (n, M, objective, _antichain(rng, n, sizes), _objective_values(objective, M, n))
        for n, M, objective, sizes in (SMOKE_SCAN_SHAPES if smoke else SCAN_SHAPES)
    ]
    n, M, sizes = SMOKE_EXACT_SHAPE if smoke else EXACT_SHAPE
    values = _huge_objective(rng, M, n)
    instances.append((n, M, "explicit:" + ",".join(values), _antichain(rng, n, sizes), values))
    ops = []
    for k, (n, M, objective, edges, values) in enumerate(instances):
        path = _write_hypergraph(workdir, f"scan{k}", n, edges)
        argv = ("count", "--hypergraph", path, "--M", str(M), "--objective", objective)
        instance = {"n": n, "edges": edges, "M": M, "values": values}
        ops.append(Op(argv, rows=M**n, instances=1, instance=instance))
    return tuple(ops)


def _sample(rng, workdir: Path, seed: int, smoke: bool) -> tuple[Op, ...]:
    n, M, sizes = SAMPLE_SHAPE
    trials = SMOKE_SAMPLE_TRIALS if smoke else SAMPLE_TRIALS
    path = _write_hypergraph(workdir, "sample", n, _antichain(rng, n, sizes))
    base = ("sample", "--hypergraph", path, "--M", str(M), "--trials", str(trials), "--seed", str(seed))
    return (Op(base, rows=trials, instances=1), Op(base + ("--layer1",), rows=trials, instances=1))


def _exhaustive(command: str, grid) -> tuple[Op, ...]:
    n_max, M_values = grid
    argv = (command, "--n-max", str(n_max), "--M", ",".join(map(str, M_values)))
    if command == "search":
        argv += ("--strategy", "presets")
    instances, rows = _grid(n_max, M_values)
    return (Op(argv, rows=rows, instances=instances),)


def build(name: str, seed: int, workdir: Path, *, smoke: bool = False) -> Workload:
    """Write the workload's input files into ``workdir`` and return its ops."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
    rng = np.random.default_rng(seed)
    if name == "scan":
        ops = _scan(rng, workdir, smoke)
    elif name == "sample":
        ops = _sample(rng, workdir, seed, smoke)
    elif name == "sweep":
        ops = _exhaustive("search", SMOKE_SWEEP_GRID if smoke else SWEEP_GRID)
    else:
        ops = _exhaustive("verify", SMOKE_VERIFY_GRID if smoke else VERIFY_GRID)
    return Workload(name, ops, PROBES[name])
