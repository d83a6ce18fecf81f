"""``scripts/asymptotics_table.py``, run as a script, against brute-force
counts of the singleton hypergraph."""

import os
import subprocess
import sys
from pathlib import Path

import isobench
from isobench import (
    compare_to_asymptotics,
    count_isolating,
    identity_objective,
    singleton_hypergraph,
)
from isobench.cli import asymptotic_rows_to_csv

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "asymptotics_table.py"


def run(*args):
    src = str(Path(isobench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args], capture_output=True, text=True, env=env
    )


def test_rows_match_brute_force_counts():
    ns, Ms = (1, 2, 3, 4), (1, 2, 3, 5)
    rows = []
    for n in ns:
        H = singleton_hypergraph(n)
        for M in Ms:
            f = identity_objective(M)
            rep = count_isolating(H, M, f)
            rows.extend(compare_to_asymptotics(n, M, p=rep.p, q=rep.q))
    done = run("--n", ",".join(map(str, ns)), "--M", ",".join(map(str, Ms)))
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == asymptotic_rows_to_csv(rows)


def test_reaches_large_M_over_n():
    """At phi = n/M = 1/1000 with n = 1000, p sits on h1(phi)."""
    done = run("--n", "1000", "--M", "1000000")
    assert done.returncode == 0
    header, p_row, q_row = done.stdout.splitlines()
    cols = dict(zip(header.split(","), p_row.split(",")))
    assert cols["phi"] == "1/1000"
    assert abs(float(cols["value"]) - float(cols["h1"])) < 1e-9


def test_bad_input_is_one_error_line():
    for args in (["--n", "2,x"], ["--n", "2,,3"], ["--M", ""], ["--M", "0"]):
        done = run(*args)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
