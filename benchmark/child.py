"""One timed pass in a fresh interpreter.

Usage: python3 child.py SPEC.json

The spec names the package source directory, the CLI argument lists and
the order to run them in, and whether to trace.  The child imports the
package, notes the monotonic time at which it is ready to run its first
op, then runs each op through ``isobench.cli.main`` with stdout captured.
A speed probe runs right after the ready mark and after every op, so each
op is bracketed by two.  The child prints one JSON object: the ready time,
each op's exit code, time, output and sha256, the probe times in run
order, its peak RSS and, when traced, the work counters.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import sys
import time
from pathlib import Path


def peak_rss_kb() -> int:
    """This process's own peak resident set.  ``ru_maxrss`` would not do:
    Linux carries the parent's high-water mark into it across fork and
    exec, so it would report the parent's memory, not the pass's."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _python_loop(Fraction, items) -> None:
    """Integer arithmetic and dict stores, frozenset and tuple building and
    sorting, and Fraction arithmetic: the kinds of work the package's
    Python layers do."""
    total, table = 0, {}
    for i in range(30_000):
        total += i * i % 7
        table[i & 1023] = total
    seen = {}
    for t in items:
        f = frozenset(t)
        seen[f] = seen.get(f, 0) + 1
    sorted(items, key=lambda t: (t[1], t[0]))
    acc = Fraction(0)
    for i in range(1, 800):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)


def _numpy_loop(np, a) -> None:
    for _ in range(8):
        b = (a * 7) % 5
        np.unique(b[: 1 << 14])
        b.sum()


def probe() -> dict[str, float]:
    """Seconds of a fixed pure-Python loop and of a fixed numpy loop, the
    faster of two runs each, with the garbage collector off.  The code
    never changes, so its time tracks how fast the machine runs just then.
    Imports happen here, after the ready mark, so that the set-up time
    stays the package's own."""
    from fractions import Fraction

    import numpy as np

    items = [(i % 12, i * 7 % 12, i * 5 % 11, i * 3 % 13) for i in range(6000)]
    a = np.arange(1 << 18, dtype=np.int64)
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = {}
        for name, loop, args in (("python", _python_loop, (Fraction, items)), ("numpy", _numpy_loop, (np, a))):
            best = float("inf")
            for _ in range(2):
                t0 = time.perf_counter()
                loop(*args)
                best = min(best, time.perf_counter() - t0)
            times[name] = best
    finally:
        if enabled:
            gc.enable()
    return times


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    from isobench import cli

    run = cli.main
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.wrap(cli.main, "cli.main")
    ready = time.monotonic()

    ops = []
    probes = [probe()]
    for index in spec["order"]:
        if tracer is not None:
            tracer.op_id = index
        buf = io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = run(spec["ops"][index])
        except Exception as exc:  # an op that raises is a failed op, not a failed pass
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        probes.append(probe())
        out = buf.getvalue().encode("utf-8")
        ops.append(
            {
                "index": index,
                "exit": code,
                "error": error,
                "seconds": seconds,
                "sha256": hashlib.sha256(out).hexdigest(),
                "output": out.decode("utf-8"),
            }
        )
    if tracer is not None:
        tracer.dump(Path(spec["trace_path"]))
    result = {
        "ready": ready,
        "ops": ops,
        "probes": probes,
        "peak_rss_kb": peak_rss_kb(),
        "counters": tracer.counters if tracer is not None else {},
    }
    sys.stdout.write(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
