#!/usr/bin/env python3
"""Sweep all inclusion-free hypergraphs on small vertex counts against the
conjectured minima for |Z| and |Z_1|, reporting the tightest ratios found.

Example:
    python scripts/conjecture_sweep.py --n-max 4 --M 2,3 --strategy random:3 --seed 7
"""

import argparse
import json
import sys

from isobench import conjecture_search
from isobench.cli import _parse_m_list, _parse_strategy


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=4)
    ap.add_argument("--M", default="2,3")
    ap.add_argument("--strategy", default="presets")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--prune", action="store_true", help="connected, min degree 2 only")
    ap.add_argument("--out", default=None, help="write the full JSON report here")
    args = ap.parse_args()

    try:
        M_values = _parse_m_list(args.M)
        strategy = _parse_strategy(args.strategy, args.seed)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    report = conjecture_search(args.n_max, M_values, strategy, prune=args.prune, seed=args.seed)
    print(f"instances checked : {report.instances}")
    print(f"min |Z| / conj    : {report.min_ratio_total}")
    print(f"min |Z_1| / conj  : {report.min_ratio_layer1}")
    if report.witness_layer1 is not None:
        w = report.witness_layer1
        print(f"tightest layer-1 witness: {w.hypergraph} M={w.M} f={w.objective['kind']}")
    print(f"violations        : {len(report.violations)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_json_dict(), fh, sort_keys=True, indent=2)
        print(f"wrote {args.out}")
    return 1 if report.violations else 0


if __name__ == "__main__":
    sys.exit(main())
