"""Acceptance suite: one test per numbered criterion.

Each test prints a `[acceptance] criterion N: PASS|FAIL` line (visible
with `pytest tests/test_acceptance.py -v -s`) and then asserts.
"""

import math
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import oracle
from isobench import (
    Hypergraph,
    bounded_edge_bound,
    build_witness_graph_A,
    build_witness_graph_B,
    check_degree_one_reduction,
    check_degree_zero_reduction,
    check_disjoint_union_reduction,
    check_min_cardinality_reduction,
    complement_singleton_hypergraph,
    conjectured_Y,
    conjectured_Y1,
    corollary_Y_bound,
    count_isolating,
    count_layer1,
    enumerate_hypergraphs,
    h_eval,
    identity_objective,
    is_linear,
    main_theorem_bound,
    one_degenerate_order,
    power_set_hypergraph,
    preset_objectives,
    random_hypergraph,
    random_objective,
    random_uniform_hypergraph,
    rich_edge_report,
    sample_layer1,
    sample_uniform,
    shift_objective_up,
    singleton_hypergraph,
    ta_shma_bound,
    tashma_injection_maximal,
    zero_based_identity,
    zero_weight_tightness,
)

F = Fraction


def _line(cid, ok, detail=""):
    print(f"\n[acceptance] criterion {cid:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


@pytest.fixture(scope="module")
def sweep_grid():
    """Criterion 2's grid: every inclusion-free hypergraph on n <= 4,
    M in {2, 3}, preset objectives, with exact counts attached."""
    t0 = time.monotonic()
    out = []
    for n in range(1, 5):
        fams = {M: preset_objectives(M, n) for M in (2, 3)}
        for H in enumerate_hypergraphs(n):
            for M in (2, 3):
                for f in fams[M]:
                    out.append((H, M, f, count_isolating(H, M, f)))
    return out, time.monotonic() - t0


def test_criterion_1_singleton_exactness():
    t0 = time.monotonic()
    failures = []
    instances = 0
    for n in range(1, 6):
        for M in range(2, 6):
            rng = np.random.default_rng([1001, n, M])
            objectives = list(preset_objectives(M, n)) + [
                random_objective(M, rng) for _ in range(3)
            ]
            expected = conjectured_Y(M, n)
            family = [singleton_hypergraph(n)]
            if n >= 2:  # the complement of S_1 would be the empty edge
                family.append(complement_singleton_hypergraph(n))
            for H in family:
                for f in objectives:
                    instances += 1
                    got = count_isolating(H, M, f).total
                    if got != expected:
                        failures.append((n, M, f.kind, got, expected))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 30
    _line(1, ok, f"{instances} instances exact, {elapsed:.1f}s")
    assert not failures, failures[:5]
    assert elapsed < 30


def test_criterion_2_theorem_sweep(sweep_grid):
    grid, build_s = sweep_grid
    t0 = time.monotonic()
    failures = []
    for H, M, f, rep in grid:
        n = H.n
        r_eff = max(2, max((e.bit_count() for e in H.edges), default=2))
        checks = [
            ("ta_shma", rep.total >= ta_shma_bound(M, n)),
            ("layered", rep.total >= corollary_Y_bound(M, n)),
            ("main_theorem", rep.layer1 >= main_theorem_bound(M, n)),
            ("bounded_edge", rep.layer1 >= bounded_edge_bound(M, n, r_eff)),
        ]
        for name, holds in checks:
            if not holds:
                failures.append((name, H.vertex_sets(), M, f.kind))
    elapsed = build_s + (time.monotonic() - t0)
    ok = not failures and elapsed < 300
    _line(2, ok, f"{len(grid)} instances x 4 bounds, {elapsed:.1f}s")
    assert not failures, failures[:5]
    assert elapsed < 300


def test_criterion_3_proven_conjecture_classes():
    failures = []
    checked = {"linear": 0, "one_degenerate": 0, "m2": 0}
    for n in range(1, 6):
        fams = {}
        for M in (2, 3, 4):
            rng = np.random.default_rng([1003, n, M])
            fams[M] = list(preset_objectives(M, n)) + [
                random_objective(M, rng) for _ in range(3)
            ]
        for H in enumerate_hypergraphs(n):
            lin = is_linear(H)
            deg = one_degenerate_order(H) is not None
            for M in (2, 3, 4):
                if M != 2 and not (lin or deg):
                    continue
                bound = conjectured_Y1(M, n)
                for f in fams[M]:
                    z1 = count_layer1(H, M, f)
                    if M == 2:
                        checked["m2"] += 1
                    if lin:
                        checked["linear"] += 1
                    if deg:
                        checked["one_degenerate"] += 1
                    if z1 < bound:
                        failures.append((H.vertex_sets(), M, f.kind, z1, bound))
    ok = not failures
    _line(3, ok, f"classes checked {checked}")
    assert not failures, failures[:5]


def test_criterion_4_layer_shift():
    rng = np.random.default_rng(1004)
    failures = []
    for _ in range(100):
        n = int(rng.integers(1, 5))
        M = int(rng.integers(2, 5))
        j = int(rng.integers(1, M + 1))
        H = random_hypergraph(n, int(rng.integers(0, 6)), rng)
        f = random_objective(M - j + 1, rng)
        g = shift_objective_up(f, j, M)
        lhs = count_isolating(H, M, g).per_layer[j - 1]
        rhs = count_layer1(H, M - j + 1, f)
        if lhs != rhs:
            failures.append((H.vertex_sets(), M, j, lhs, rhs))
    ok = not failures
    _line(4, ok, "100 shifted instances, exact layer equality")
    assert not failures, failures[:5]


def test_criterion_5_witness_graphs(sweep_grid):
    grid, _ = sweep_grid
    failures = []
    b_nodes = 0
    for H, M, f, rep in grid:
        G = build_witness_graph_A(H, M, f)
        edges, values = H.vertex_sets(), [None, *f.values]
        if not all(oracle.classify(edges, values, u)[0] and min(u) == 1 for u in G.right):
            failures.append(("A_right_nodes", H.vertex_sets(), M, f.kind))
        if G.total_charge() != len(G.right):
            failures.append(("A_charge_identity", H.vertex_sets(), M, f.kind))
        if G.total_charge() < main_theorem_bound(M, H.n):
            failures.append(("A_charge_bound", H.vertex_sets(), M, f.kind))
        if is_linear(H) and all(e.bit_count() >= 2 for e in H.edges):
            GB = build_witness_graph_B(H, M, f)
            b_nodes += len(GB.left)
            if any(c < 1 for c in GB.charges):
                failures.append(("B_per_node_charge", H.vertex_sets(), M, f.kind))
    ok = not failures
    _line(5, ok, f"{len(grid)} A-graphs, {b_nodes} B left nodes")
    assert not failures, failures[:5]


def test_criterion_6_m2_machinery(sweep_grid):
    grid, _ = sweep_grid
    failures = []

    # containment of special weights on the sweep grid at M = 2
    for H, M, f, rep in grid:
        if M != 2 or not H.edges:
            continue
        if not check_min_cardinality_reduction(H, f).holds:
            failures.append(("subset", H.vertex_sets(), f.kind))

    # 200 seeded random uniform hypergraphs up to 12 vertices
    rng = np.random.default_rng(1006)
    uniform_pool = []
    for _ in range(200):
        n = int(rng.integers(2, 13))
        r = int(rng.integers(1, n + 1))
        m = int(rng.integers(1, min(math.comb(n, r), 12) + 1))
        uniform_pool.append(random_uniform_hypergraph(n, r, m, rng))
    # plus the nonempty uniform instances from the sweep grid
    seen = set()
    for H, M, f, rep in grid:
        if H.edges and len(set(H.cardinalities())) == 1 and H.edges not in seen:
            seen.add(H.edges)
            uniform_pool.append(H)

    for H in uniform_pool:
        report = rich_edge_report(H)
        if report.total_special < H.n:
            failures.append(("special_ge_n", H.vertex_sets()))
        for er in report.edges:
            if er.s_exact < er.s_lower:
                failures.append(("s_lower", H.vertex_sets(), er.edge))

    # single-edge closed form across the full r <= n <= 12 range
    for n in range(1, 13):
        for r in range(1, n + 1):
            H = Hypergraph.from_edges(n, [list(range(1, r + 1))])
            got = rich_edge_report(H).total_special
            if got != 2**r + 2 ** (n - r) - 1:
                failures.append(("single_edge", n, r, got))

    ok = not failures
    _line(6, ok, f"{len(uniform_pool)} uniform instances, single-edge grid to n=12")
    assert not failures, failures[:5]


def test_criterion_7_injections(sweep_grid):
    grid, _ = sweep_grid
    failures = []
    for H, M, f, rep in grid:
        report = tashma_injection_maximal(H, M, f)
        inj = report.mapping_dict()
        image = set(inj.values())
        if len(inj) != (M - 1) ** H.n or len(image) != len(inj):
            failures.append(("size", H.vertex_sets(), M, f.kind))
        edges, values = H.vertex_sets(), [None, *f.values]
        if not all(oracle.classify(edges, values, u)[0] for u in image):
            failures.append(("isolating", H.vertex_sets(), M, f.kind))
        if report.findings:
            failures.append(("findings", H.vertex_sets(), M, f.kind))

    findings_total = 0
    maximal_instances = []
    for n in (2, 3):
        for M in (2, 3):
            maximal_instances.append((power_set_hypergraph(n), M))
    nested = Hypergraph.from_edges(3, [[1], [1, 2], [1, 2, 3]], require_inclusion_free=False)
    for M in (2, 3):
        maximal_instances.append((nested, M))
    rng = np.random.default_rng(1007)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        M = int(rng.integers(2, 5))
        maximal_instances.append(
            (random_hypergraph(n, 6, rng, inclusion_free=False, allow_empty_edge=True), M)
        )
    for H, M in maximal_instances:
        report = tashma_injection_maximal(H, M, zero_based_identity(M))
        findings_total += len(report.findings)
        if report.image_size != (M - 1) ** H.n or not report.injective:
            failures.append(("maximal_size", H.vertex_sets()[:4], M))
        if report.findings:
            failures.append(("maximal_findings", H.vertex_sets()[:4], M, report.findings[:2]))

    ok = not failures
    _line(
        7,
        ok,
        f"{len(grid)} injections, {len(maximal_instances)} maximal instances, "
        f"{findings_total} findings",
    )
    assert not failures, failures[:5]


def test_criterion_8_zero_weight_tightness():
    failures = []
    for n in range(1, 5):
        for M in range(1, 5):
            rep = zero_weight_tightness(n, M)  # raises if not exactly (M-1)^n
            if rep.total != (M - 1) ** n:
                failures.append(("tight", n, M, rep.total))

    rng = np.random.default_rng(1008)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        M = int(rng.integers(2, 5))
        H = random_hypergraph(
            n, 6, rng, inclusion_free=False, allow_empty_edge=bool(rng.integers(0, 2))
        )
        f = random_objective(M, rng, zero_allowed=True)
        total = count_isolating(H, M, f).total
        if total < (M - 1) ** n:
            failures.append(("bound", H.vertex_sets(), M, total))
    ok = not failures
    _line(8, ok, "16 tight instances exact, 50 random nested instances bounded")
    assert not failures, failures[:5]


def test_criterion_9_transformations():
    rng = np.random.default_rng(1009)
    failures = []
    done = {"zero": 0, "one": 0, "union": 0}
    while done["zero"] < 100 or done["one"] < 100:
        n = int(rng.integers(2, 7))
        M = int(rng.integers(2, 4))
        H = random_hypergraph(n, int(rng.integers(0, 7)), rng)
        f = random_objective(M, rng)
        degs = [H.degree(v) for v in range(1, n + 1)]
        if done["zero"] < 100 and 0 in degs:
            v = degs.index(0) + 1
            if not check_degree_zero_reduction(H, v, M, f).holds:
                failures.append(("zero", H.vertex_sets(), v, M))
            done["zero"] += 1
        if done["one"] < 100 and 1 in degs:
            v = degs.index(1) + 1
            if not check_degree_one_reduction(H, v, M, f).holds:
                failures.append(("one", H.vertex_sets(), v, M))
            done["one"] += 1
    while done["union"] < 100:
        M = int(rng.integers(2, 4))
        H1 = random_hypergraph(int(rng.integers(1, 4)), int(rng.integers(0, 5)), rng)
        H2 = random_hypergraph(int(rng.integers(1, 4)), int(rng.integers(0, 5)), rng)
        f = random_objective(M, rng)
        if not check_disjoint_union_reduction(H1, H2, M, f).holds:
            failures.append(("union", H1.vertex_sets(), H2.vertex_sets(), M))
        done["union"] += 1
    ok = not failures
    _line(9, ok, f"instances per transformation: {done}")
    assert not failures, failures[:5]


def test_criterion_10_samplers():
    t0 = time.monotonic()
    H, M = singleton_hypergraph(6), 6
    f = identity_objective(6)
    rep = count_isolating(H, M, f)
    p, q = rep.p, rep.q
    assert (rep.total, rep.layer1) == (26550, 18750)
    T = 10**5
    failures = []
    for seed in (11, 12, 13, 14, 15):
        su = sample_uniform(H, M, f, T, seed)
        band_p = 4 * math.sqrt(float(p) * (1 - float(p)) / T)
        if abs(su.estimate - float(p)) > band_p:
            failures.append(("p", seed, su.estimate))
        sl = sample_layer1(H, M, f, T, seed)
        band_q = 4 * math.sqrt(float(q) * (1 - float(q)) / T)
        if abs(sl.estimate - float(q)) > band_q:
            failures.append(("q", seed, sl.estimate))
    h2_at_1 = float(h_eval("h2", 1))
    if not float(q) >= h2_at_1:
        failures.append(("h2", float(q), h2_at_1))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 10
    _line(10, ok, f"5 seeds x 2 samplers within 4 sigma, q >= h2(1), {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 10


def test_criterion_11_series_remainder_ratios():
    """Normalized remainders of the h1/h2 expansions at phi = 2^-k,
    k = 3..10, in 40-digit arithmetic.

    From the series h1(x) = 1 - x/2 + x^2/12 - x^4/720 + x^6/30240 - ...
    (coefficients B_j / j!) and h2(x) = 1 - x/2 - x^2/12 + x^3/6
    - (59/720) x^4 + ..., the ratios r1 = |h1 - (1 - phi/2 + phi^2/12)| / phi^4
    and r2 = |h2 - (1 - phi/2 - phi^2/12)| / phi^3 approach 1/720 and 1/6
    from below: they are bounded by those limits, non-decreasing in k, and
    short of them by at most the next series term, phi^2/30240 and
    59 phi/720.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        lim1, lim2 = Decimal(1) / 720, Decimal(1) / 6
        r1, r2, gap_ok = [], [], True
        for k in range(3, 11):
            phi = Decimal(1) / 2**k
            r1.append(abs(h_eval("h1", Fraction(1, 2**k)) - (1 - phi / 2 + phi**2 / 12)) / phi**4)
            r2.append(abs(h_eval("h2", Fraction(1, 2**k)) - (1 - phi / 2 - phi**2 / 12)) / phi**3)
            gap_ok = (
                gap_ok
                and lim1 - r1[-1] <= phi**2 / 30240
                and lim2 - r2[-1] <= 59 * phi / 720
            )
        bounded = all(x <= lim1 for x in r1) and all(x <= lim2 for x in r2)
        non_decreasing = all(a <= b for a, b in zip(r1, r1[1:])) and all(
            a <= b for a, b in zip(r2, r2[1:])
        )
    ok = bounded and non_decreasing and gap_ok
    _line(
        11,
        ok,
        "series coefficients -1/720 (= B4/4!), 1/6, -59/720: "
        f"r1 <= 1/720 and r2 <= 1/6 {bounded}, non-decreasing in k {non_decreasing}, "
        f"gap to limit <= phi^2/30240 and 59 phi/720 {gap_ok}",
    )
    detail = f"h1 ratios {[float(x) for x in r1]}, h2 ratios {[float(x) for x in r2]}"
    assert bounded, detail
    assert non_decreasing, detail
    assert gap_ok, detail
