#!/usr/bin/env python3
"""Run the full inequality suite over an exhaustive inclusion-free grid
and print a per-check summary.

Example:
    python scripts/verify_small_grid.py --n-max 4 --M 2,3
"""

import argparse
import sys
import time
from collections import Counter

from isobench.cli import _parse_m_list
from isobench.verify import grid_instances, instance_checks


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=4)
    ap.add_argument("--M", default="2,3")
    args = ap.parse_args()

    M_values = _parse_m_list(args.M)
    t0 = time.monotonic()
    run = Counter()
    failed = Counter()
    violations = []
    instances = 0
    for H, M, f in grid_instances(range(1, args.n_max + 1), M_values):
        instances += 1
        for result in instance_checks(H, M, f):
            run[result.name] += 1
            if not result.holds:
                failed[result.name] += 1
                violations.append(result)
    width = max(len(name) for name in run)
    for name in sorted(run):
        status = f"{failed[name]} FAILED" if failed[name] else "ok"
        print(f"{name:<{width}}  {run[name]:>7} checks  {status}")
    print(f"\n{instances} instances, {sum(run.values())} checks, {time.monotonic()-t0:.1f}s")
    for v in violations[:20]:
        print(f"VIOLATION [{v.kind}] {v.name}: lhs={v.lhs} rhs={v.rhs} at {v.instance}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
