"""isobench benchmark: one workload, timed through the real CLI entry point.

Usage (from the repository root):

    python3 benchmark/run.py --workload scan --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py                    # every workload in turn
    python3 benchmark/run.py --smoke            # every workload, tiny, one pass

Each pass runs the workload's ops, one at a time, in a fresh interpreter
(``child.py``), because a real CLI run starts cold.  Passes repeat until
``--seconds`` is used up; the op order alternates between passes.  Op
and set-up times are rescaled by the speed probes around them (see
``speed_factor``), because this kind of shared machine runs at a speed
that drifts by a third or more over tens of seconds.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` untraced and traced passes alternate and the
per-layer metrics are reported instead.  Without ``--workload`` every
workload runs in turn; each prints its metrics, and the last line then
carries only the correctness totals.  Every op goes through the
correctness gate (``gate.py``).  The exit code is 0 whenever a result is
printed, 1 when no pass of a workload completed, and 2 when the
repository layout is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of stray bytecode

import workloads  # noqa: E402  (benchmark-local modules)
from gate import Gate, load_digests, load_oracle  # noqa: E402
from tracer import layer_times  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "oracle.py"
WORK = BENCH / ".work"
CHILD = BENCH / "child.py"

DEFAULT_SEED = 1
PASS_TIMEOUT_S = 120
MIN_SETUPS = 7  # setup samples per run; setup-only spawns top the passes up
MIN_PASSES = 3  # untraced passes per run, however short --seconds is
# Typical probe loop times of the reference machine, a shared 2-core Intel
# Xeon VM.  An op bracketed by probes that took twice as long is counted at
# half its time.  Fixed, so that rescaled times compare across runs.
REFERENCE_PROBE_S = {"python": 0.016, "numpy": 0.018}
SETUP_PROBES = ("python", "numpy")  # interpreter start and imports do both kinds of work
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "rows_per_s": "1/s",
    "instances_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "counting.calls": "count",
    "counting.rows": "count",
    "counting.busy_s": "s",
    "counting.rows_per_busy_s": "1/s",
    "counting.us_per_call": "us",
    "hypergraph.yielded": "count",
    "hypergraph.busy_s": "s",
    "search.self_s": "s",
    "search.draws": "count",
    "search.accepted": "count",
    "search.accept_ratio": "ratio",
    "constructions.calls": "count",
    "constructions.left_nodes": "count",
    "constructions.injection_domain": "count",
    "constructions.busy_s": "s",
    "weights.calls": "count",
    "weights.busy_s": "s",
    "special_m2.calls": "count",
    "special_m2.busy_s": "s",
    "verify.instances": "count",
    "verify.checks": "count",
    "verify.self_s": "s",
    "bounds.h_eval_calls": "count",
    "bounds.busy_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["ISOBENCH_WORKERS"] = "1"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def machine_facts() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "mpmath": metadata.version("mpmath"),
        "loadavg_before": os.getloadavg(),
    }


def run_pass(workload, workdir: Path, order, *, trace: bool, tag: str) -> dict:
    """One child process.  Returns its result with ``setup_s`` (as
    measured) added, or ``{"crashed": reason}``."""
    spec_path = workdir / f"{tag}.json"
    spec = {
        "src": str(SRC),
        "ops": [list(op.argv) for op in workload.ops],
        "order": list(order),
        "trace": trace,
        "trace_path": str(workdir / f"{tag}.npz"),
    }
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(spec_path)],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"crashed": f"pass exceeded {PASS_TIMEOUT_S} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:]
        return {"crashed": tail[0] if tail else f"exit code {proc.returncode}"}
    result = json.loads(proc.stdout)
    result["setup_s"] = result["ready"] - t0
    if trace:
        result["layers"] = layer_times(Path(spec["trace_path"]))
    return result


class Run:
    """The passes of one workload and the gate verdicts on their ops."""

    def __init__(self, workload, gate: Gate, workdir: Path) -> None:
        self.workload = workload
        self.gate = gate
        self.workdir = workdir
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.setups: list[float] = []  # rescaled, see setup_time
        self.raw_setups: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one(self, *, trace: bool) -> None:
        """Run one pass and put its ops through the gate."""
        n = len(self.untraced) + len(self.traced)
        order = range(len(self.workload.ops))
        if n % 2:
            order = reversed(order)
        result = run_pass(self.workload, self.workdir, order, trace=trace, tag=f"pass{n}")
        self.attempted += len(self.workload.ops)
        if "crashed" in result:
            self.failed += len(self.workload.ops)
            self.problems.append(f"pass {n} crashed: {result['crashed']}")
            return
        for op in result["ops"]:
            problems = self.gate.check(op["index"], op)
            if problems:
                self.failed += 1
                command = self.workload.ops[op["index"]].argv[0]
                self.problems.append(f"op {op['index']} ({command}): {'; '.join(problems)}")
        self.add_setup(result)
        (self.traced if trace else self.untraced).append(result)

    def add_setup(self, result: dict) -> None:
        self.raw_setups.append(result["setup_s"])
        self.setups.append(result["setup_s"] * speed_factor(result["probes"][0], result["probes"][0], SETUP_PROBES))

    def measure(self, seconds: float, *, trace: bool, min_passes: int, min_setups: int) -> None:
        """Rounds of passes (an untraced one, then a traced one with
        ``trace``), gate checks included, until the next round would end
        past ``seconds`` from now, and at least ``min_passes`` rounds."""
        start = time.monotonic()
        rounds = 0
        while True:
            self.one(trace=False)
            if trace:
                self.one(trace=True)
            rounds += 1
            elapsed = time.monotonic() - start
            if rounds >= min_passes and elapsed * (rounds + 1) / rounds > seconds:
                break
        while len(self.setups) < min_setups:
            spawn = run_pass(workloads.Workload("setup", ()), self.workdir, (), trace=False, tag=f"setup{len(self.setups)}")
            if "crashed" in spawn:
                self.problems.append(f"setup-only spawn crashed: {spawn['crashed']}")
                break
            self.add_setup(spawn)


def speed_factor(before: dict, after: dict, loops) -> float:
    """How fast the machine ran between two probes, relative to the
    reference: the geometric mean over ``loops`` of the reference probe
    time over the mean of the two probe times."""
    ratio = 1.0
    for loop in loops:
        ratio *= REFERENCE_PROBE_S[loop] / ((before[loop] + after[loop]) / 2)
    return ratio ** (1 / len(loops))


def _wall(result: dict, loops) -> float:
    """A pass's op time at the reference machine speed: each op's time
    times the speed the probes on either side of it saw."""
    probes = result["probes"]
    return sum(
        op["seconds"] * speed_factor(probes[k], probes[k + 1], loops)
        for k, op in enumerate(result["ops"])
    )


def _raw_wall(result: dict) -> float:
    return sum(op["seconds"] for op in result["ops"])


def end_to_end(run: Run) -> dict:
    walls = [_wall(r, run.workload.probes) for r in run.untraced]
    wl = run.workload
    return {
        "setup_s": statistics.median(run.setups),
        "wall_s": statistics.median(walls),
        "rows_per_s": statistics.median(wl.rows / w for w in walls),
        "instances_per_s": statistics.median(wl.instances / w for w in walls),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024 for r in run.untraced),
    }


def _layer_metrics(result: dict) -> tuple[dict, dict]:
    """(counts, times) of one traced pass."""
    layers, counters = result["layers"], result["counters"]

    def L(name: str) -> dict:  # a layer the pass never reached reads 0
        return layers.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})

    counting = L("counting")
    draws = counters.get("search.draws", 0)
    accepted = counters.get("search.accepted", 0)
    counts = {
        "counting.calls": counting["calls"],
        "counting.rows": counters.get("counting.rows", 0),
        "hypergraph.yielded": counters.get("hypergraph.yielded", 0),
        "search.draws": draws,
        "search.accepted": accepted,
        "search.accept_ratio": accepted / draws if draws else 0.0,
        "constructions.calls": L("constructions")["calls"],
        "constructions.left_nodes": counters.get("constructions.left_nodes", 0),
        "constructions.injection_domain": counters.get("constructions.injection_domain", 0),
        "weights.calls": L("weights")["calls"],
        "special_m2.calls": L("special_m2")["calls"],
        "verify.instances": counters.get("verify.instances", 0),
        "verify.checks": counters.get("verify.checks", 0),
        "bounds.h_eval_calls": layers["spans"].get("bounds.h_eval", 0),
        "cli.output_bytes": sum(len(op["output"].encode("utf-8")) for op in result["ops"]),
    }
    busy = counting["busy_s"]
    times = {
        "counting.busy_s": busy,
        "counting.rows_per_busy_s": counts["counting.rows"] / busy if busy else 0.0,
        "counting.us_per_call": busy / counting["calls"] * 1e6 if counting["calls"] else 0.0,
        "hypergraph.busy_s": L("hypergraph")["busy_s"],
        "search.self_s": L("search")["self_s"],
        "constructions.busy_s": L("constructions")["busy_s"],
        "weights.busy_s": L("weights")["busy_s"],
        "special_m2.busy_s": L("special_m2")["busy_s"],
        "verify.self_s": L("verify")["self_s"],
        "bounds.busy_s": L("bounds")["busy_s"],
        "cli.self_s": L("cli")["self_s"],
    }
    return counts, times


def per_layer(run: Run) -> dict:
    per_pass = [_layer_metrics(r) for r in run.traced]
    counts = per_pass[0][0]
    if any(c != counts for c, _ in per_pass):
        run.problems.append("per-layer counts differ between traced passes")
    metrics = dict(counts)
    for name in per_pass[0][1]:
        metrics[name] = statistics.median(t[name] for _, t in per_pass)
    loops = run.workload.probes
    traced = statistics.median(_wall(r, loops) for r in run.traced)
    metrics["trace.overhead_ratio"] = traced / statistics.median(_wall(r, loops) for r in run.untraced)
    return metrics


def report(name: str, run: Run, metrics: dict, units: dict) -> None:
    walls = " ".join(f"{_wall(r, run.workload.probes):.3f}" for r in run.untraced)
    raw = " ".join(f"{_raw_wall(r):.3f}" for r in run.untraced)
    setups = " ".join(f"{t:.3f}" for t in run.setups)
    raw_setups = " ".join(f"{t:.3f}" for t in run.raw_setups)
    print(f"== {name}: {len(run.untraced)} untraced and {len(run.traced)} traced passes")
    print(f"  untraced pass op times at reference speed (s): {walls}")
    print(f"  untraced pass op times as measured (s): {raw}")
    print(f"  setup times at reference speed (s): {setups}")
    print(f"  setup times as measured (s): {raw_setups}")
    for key in units:
        if key in metrics:
            print(f"  {key:32s} {metrics[key]:>16.6g} {units[key]}")
    print(f"  {'fail_ratio':32s} {run.failed / run.attempted:>16.6g} ratio ({run.failed}/{run.attempted} ops)")
    for problem in run.problems[:20]:
        print(f"  FAIL {problem}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, help="default: every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one pass each")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    # On SIGTERM, unwind: subprocess.run kills and reaps the running pass,
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    missing = [p for p in (SRC / "isobench" / "cli.py", ORACLE) if not p.is_file()]
    if missing:
        print(f"error: not an isobench checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    facts = machine_facts()
    oracle = load_oracle(ORACLE)
    names = [args.workload] if args.workload else list(workloads.NAMES)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    attempted = failed = 0
    correct = True
    try:
        for name in names:
            wl_dir = workdir / name
            wl_dir.mkdir()
            wl = workloads.build(name, args.seed, wl_dir, smoke=args.smoke)
            run = Run(wl, Gate(wl, load_digests(name, args.seed, smoke=args.smoke), oracle), wl_dir)
            if args.smoke:
                run.measure(0, trace=bool(args.trace), min_passes=1, min_setups=0)
            else:
                run.measure(args.seconds, trace=bool(args.trace), min_passes=MIN_PASSES, min_setups=MIN_SETUPS)
            if not run.untraced or (args.trace and not run.traced):
                print(f"error: no pass of {name} completed: {run.problems[:3]}", file=sys.stderr)
                return 1
            metrics = per_layer(run) if args.trace else end_to_end(run)
            report(name, run, metrics, units)
            attempted += run.attempted
            failed += run.failed
            correct = correct and not run.problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    facts["loadavg_after"] = os.getloadavg()
    print("facts " + json.dumps(facts, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        # a run over several workloads reports their metrics above
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
        if len(names) == 1
        else {},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
