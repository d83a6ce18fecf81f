"""Command-line front end.

Subcommands: count, verify, search, sample.  Identical configurations
(including seeds) produce byte-identical output.  Exit codes: 0 success,
1 mathematical finding (a violated inequality), 2 usage error, 3 budget
exceeded, 4 failed internal check (a witness-graph descent did not
isolate its edge, or ``zero_weight_tightness`` miscounted: a bug).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import locale  # noqa: F401  loaded at start-up, or argparse's gettext lookup imports it inside the first op
import os
import re
import sys
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .counting import DEFAULT_BUDGET, _check, count_isolating
from .errors import BudgetExceededError
from .hypergraph import Hypergraph, enumerate_hypergraphs
from .search import (
    AsymptoticRow,
    ObjectiveStrategy,
    SampleReport,
    compare_to_asymptotics,
    conjecture_search,
    sample_layer1,
    sample_uniform,
)
from .verify import verify_grid
from .weights import (
    Objective,
    explicit_objective,
    generic_high_objective,
    generic_low_objective,
    identity_objective,
)

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

# what a subcommand returns: its exit code, its JSON document and its CSV text
_Result = tuple[int, object, str]


def _load_hypergraph(path: str) -> Hypergraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read hypergraph from {path}: {exc}") from exc
    return Hypergraph.from_json_dict(doc)


def _parse_objective(spec: str, M: int, n: int, *, zero_allowed: bool) -> Objective:
    if spec == "identity":
        return identity_objective(M)
    if spec == "generic_high":
        return generic_high_objective(M, n)
    if spec == "generic_low":
        return generic_low_objective(M, n)
    if spec.startswith("explicit:"):
        try:
            values = [Fraction(part) for part in spec[len("explicit:") :].split(",")]
        except ZeroDivisionError as exc:
            raise ValueError(f"objective spec {spec!r} has a zero denominator") from exc
        f = explicit_objective(values, zero_allowed=zero_allowed)
        if f.M != M:
            raise ValueError(f"explicit objective has {f.M} values, expected M={M}")
        return f
    raise ValueError(f"unknown objective spec {spec!r}")


def _parse_strategy(spec: str, seed: int) -> ObjectiveStrategy:
    if spec == "presets":
        return ObjectiveStrategy(kind="presets", seed=seed)
    match = re.fullmatch(r"(random|integers):(-?[0-9]+)", spec)
    if match is None:
        raise ValueError(f"unknown strategy spec {spec!r}")
    if match[1] == "random":
        return ObjectiveStrategy(kind="random_rational", count=int(match[2]), seed=seed)
    return ObjectiveStrategy(kind="exhaustive_integer", bound=int(match[2]), seed=seed)


def _parse_m_list(spec: str) -> tuple[int, ...]:
    """Comma-separated positive integers, such as ``2,3,4``."""
    if re.fullmatch(r"0*[1-9][0-9]*(,0*[1-9][0-9]*)*", spec) is None:
        raise ValueError(f"expected comma-separated positive integers, got {spec!r}")
    return tuple(map(int, spec.split(",")))


def _jsonable(value):
    """The JSON form of a report value that ``json`` does not encode
    itself: a Fraction as its "p/q" text, a dataclass as its fields."""
    if isinstance(value, Fraction):
        return str(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {field.name: getattr(value, field.name) for field in dataclasses.fields(value)}
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, default=_jsonable) + "\n"


def _cell(value) -> str:
    """One CSV cell: None is empty, a bool 0 or 1, a tuple its items joined
    by ';', anything else its str (a float's str is its repr)."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, tuple):
        return ";".join(map(str, value))
    return str(value)


def _csv(header: str, *rows: Sequence) -> str:
    lines = [header, *(",".join(map(_cell, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def _records_csv(cls: type, records: Iterable) -> str:
    """CSV text of dataclass records of ``cls``, one column per field."""
    names = [field.name for field in dataclasses.fields(cls)]
    return _csv(",".join(names), *([getattr(r, name) for name in names] for r in records))


def asymptotic_rows_to_csv(rows: Iterable[AsymptoticRow]) -> str:
    return _records_csv(AsymptoticRow, rows)


def _cmd_count(args) -> _Result:
    cpus = os.cpu_count() or 1
    if not 1 <= args.workers <= cpus:
        raise ValueError(f"--workers must be in 1..{cpus}, got {args.workers}")
    H = _load_hypergraph(args.hypergraph)
    if args.M < 1:
        raise ValueError("M must be a positive integer")
    _check(None, args.M, args.M**H.n, args.budget, f"{args.M}^{H.n} = ")
    f = _parse_objective(args.objective, args.M, H.n, zero_allowed=args.zero_allowed)
    report = count_isolating(H, args.M, f, budget=args.budget, workers=args.workers)
    row = (report.n, report.M, report.total, report.layer1, report.p, report.q)
    doc = {**report.to_json_dict(), "p": report.p, "q": report.q}
    return EXIT_OK, doc, _csv("n,M,total,layer1,p,q", row)


def _cmd_verify(args) -> _Result:
    if args.hypergraph is not None and args.n_max is not None:
        raise ValueError("--hypergraph and --n-max are mutually exclusive")
    if args.hypergraph is not None:
        H = _load_hypergraph(args.hypergraph)
        walks = [[H]]
    elif args.n_max is not None:
        if args.n_max < 1:
            raise ValueError("n_max must be >= 1")
        walks = (enumerate_hypergraphs(n) for n in range(1, args.n_max + 1))
    else:
        raise ValueError("verify needs --hypergraph PATH or --n-max N")
    summary = verify_grid(walks, _parse_m_list(args.M), budget=args.budget)
    row = (summary.checks_run, summary.instances, summary.ok, len(summary.violations))
    csv = _csv("checks_run,instances,ok,violations", row) + "".join(
        f"# {v.kind} {v.name}: lhs={v.lhs} rhs={v.rhs}\n" for v in summary.violations
    )
    return EXIT_OK if summary.ok else EXIT_FINDING, summary, csv


def _cmd_search(args) -> _Result:
    report = conjecture_search(
        args.n_max,
        _parse_m_list(args.M),
        _parse_strategy(args.strategy, args.seed),
        prune=args.prune,
        budget=args.budget,
    )
    header = "n_max,M_values,instances,min_ratio_total,min_ratio_layer1,violations"
    row = (report.n_max, report.M_values, report.instances, report.min_ratio_total,
           report.min_ratio_layer1, len(report.violations))
    return EXIT_FINDING if report.violations else EXIT_OK, report, _csv(header, row)


def _cmd_sample(args) -> _Result:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    H = _load_hypergraph(args.hypergraph)
    _check(None, args.M, args.trials, args.budget)
    f = _parse_objective(args.objective, args.M, H.n, zero_allowed=args.zero_allowed)
    sampler = sample_layer1 if args.layer1 else sample_uniform
    report = sampler(H, args.M, f, args.trials, args.seed, budget=args.budget)
    rows = compare_to_asymptotics(
        H.n,
        args.M,
        p=None if args.layer1 else report.exact,
        q=report.exact if args.layer1 else None,
    )
    csv = _records_csv(SampleReport, [report]) + (asymptotic_rows_to_csv(rows) if rows else "")
    return EXIT_OK, {**_jsonable(report), "asymptotics": rows}, csv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isobench",
        description="Exact enumeration and verification for isolating weight functions",
    )
    # the flags every subcommand takes, and those of one (H, M, f) instance
    every = argparse.ArgumentParser(add_help=False)
    every.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    every.add_argument("--format", choices=("json", "csv"), default="json")
    every.add_argument("--out", default=None, help="output path (default: stdout)")
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--hypergraph", required=True, help="path to a hypergraph JSON file")
    instance.add_argument("--M", type=int, required=True, help="weight range size")
    instance.add_argument(
        "--objective", default="identity", help="identity | generic_high | generic_low | explicit:v1,v2,..."
    )
    instance.add_argument("--zero-allowed", action="store_true", dest="zero_allowed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="exact isolating-weight counts", parents=[instance, every])
    p_count.add_argument("--workers", type=int, default=1, help="processes for the scan, 1..cpu count")
    p_count.set_defaults(func=_cmd_count)

    p_verify = sub.add_parser("verify", help="check every applicable bound", parents=[every])
    p_verify.add_argument("--hypergraph", default=None)
    p_verify.add_argument("--n-max", type=int, default=None, dest="n_max")
    p_verify.add_argument("--M", required=True, help="comma-separated weight range sizes")
    p_verify.set_defaults(func=_cmd_verify)

    p_search = sub.add_parser("search", help="conjecture counterexample sweep", parents=[every])
    p_search.add_argument("--n-max", type=int, required=True, dest="n_max")
    p_search.add_argument("--M", required=True, help="comma-separated weight range sizes")
    p_search.add_argument("--strategy", default="presets", help="presets | random:COUNT | integers:BOUND")
    p_search.add_argument("--prune", action="store_true")
    p_search.add_argument("--seed", type=int, default=0)
    p_search.set_defaults(func=_cmd_search)

    p_sample = sub.add_parser("sample", help="seeded Monte Carlo estimates", parents=[instance, every])
    p_sample.add_argument("--trials", type=int, required=True)
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--layer1", action="store_true", help="sample layer-1 weights only")
    p_sample.set_defaults(func=_cmd_sample)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the exit-code contract
        return int(exc.code or 0)
    try:
        code, doc, csv = args.func(args)
        text = csv if args.format == "csv" else _json_text(doc)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
