#!/usr/bin/env python3
"""Emit a CSV table comparing exact isolation probabilities of the
singleton hypergraph family to the asymptotic estimates h0, h1, h2 at
phi = n/M.  The exact values come from the closed forms
|Z| = conjectured_Y(M, n) and |Z_1| = conjectured_Y1(M, n), which the
singleton hypergraph attains for every objective, so the table reaches
the M >> n >> 1 regime.

Example:
    python scripts/asymptotics_table.py --n 2,4,6 --M 4,6,8,12 > table.csv
    python scripts/asymptotics_table.py --n 100,1000 --M 100000,1000000
"""

import argparse
import sys
from fractions import Fraction

from isobench import compare_to_asymptotics, conjectured_Y, conjectured_Y1
from isobench.cli import EXIT_USAGE, _parse_m_list, asymptotic_rows_to_csv


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", default="2,4,6")
    ap.add_argument("--M", default="4,6,8,12")
    args = ap.parse_args()

    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact values at large n have more digits
    try:
        rows = [
            row
            for n in _parse_m_list(args.n)
            for M in _parse_m_list(args.M)
            for row in compare_to_asymptotics(
                n,
                M,
                p=Fraction(conjectured_Y(M, n), M**n),
                q=Fraction(conjectured_Y1(M, n), M**n - (M - 1) ** n),
            )
        ]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(asymptotic_rows_to_csv(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
