"""One size rule for every construction: a single-instance builder refuses
exactly the (H, M) whose construction stack ``verify`` refuses, by
``counting._check_stack`` against ``counting._STACK_CELLS``, before any
left node or domain row is decoded."""

import pytest

from isobench import (
    BudgetExceededError,
    Hypergraph,
    build_witness_graph_A,
    build_witness_graph_B,
    check_min_cardinality_reduction,
    identity_objective,
    is_linear,
    rich_edge_report,
    singleton_hypergraph,
    tashma_injection_maximal,
    verify_grid,
)
from isobench import constructions, counting, zero_weight


def H(n, *edges):
    return Hypergraph.from_edges(n, edges)


CYCLE8 = H(8, *([v, v % 8 + 1] for v in range(1, 9)))
HYPERGRAPHS = {
    "singletons": singleton_hypergraph(3),
    "mixed": H(3, [1], [2, 3]),
    "cycle4": H(4, [1, 2], [2, 3], [3, 4], [1, 4]),
    "K4": H(4, [1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]),  # more edges than vertices
}


def builders(h, M):
    """Every builder that applies to (h, M), each as a call of no arguments."""
    f = identity_objective(M)
    calls = [
        lambda: build_witness_graph_A(h, M, f),
        lambda: tashma_injection_maximal(h, M, f),
    ]
    if is_linear(h) and min(e.bit_count() for e in h.edges) >= 2:
        calls.append(lambda: build_witness_graph_B(h, M, f))
    if M == 2:
        calls.append(lambda: check_min_cardinality_reduction(h, f))
        if len({e.bit_count() for e in h.edges}) == 1:
            calls.append(lambda: rich_edge_report(h))
    return calls


@pytest.mark.parametrize("M", [2, 3])
@pytest.mark.parametrize("name", HYPERGRAPHS)
def test_verify_and_the_builders_share_the_boundary(name, M, monkeypatch):
    h = HYPERGRAPHS[name]
    cells = counting._stack_cells(h.n, M, h.m)
    calls = [lambda: verify_grid([[h]], [M])] + builders(h, M)
    monkeypatch.setattr(counting, "_STACK_CELLS", cells - 1)
    message = (
        f"the constructions of one hypergraph on {h.n} vertices at M = {M}"
        f" stack {cells} cells, more than {cells - 1}"
    )
    for call in calls:
        with pytest.raises(BudgetExceededError) as info:
            call()
        assert str(info.value) == message
    monkeypatch.setattr(counting, "_STACK_CELLS", cells)
    assert calls[0]().ok
    for call in calls[1:]:
        call()


@pytest.mark.parametrize(
    "build", [build_witness_graph_A, build_witness_graph_B, tashma_injection_maximal]
)
def test_the_8_cycle_at_M_11_is_refused_before_any_row_is_decoded(build, monkeypatch):
    """8 * 10^7 left nodes and 10^8 domain rows each fit 10^8 rows, but
    their stacks would take gigabytes: 2 * 8 * 10^7 rows times 8 edges."""

    def decoded(*args, **kwargs):
        raise AssertionError("rows were decoded")

    monkeypatch.setattr(constructions, "_left_nodes", decoded)
    monkeypatch.setattr(zero_weight, "_decode_rows", decoded)
    with pytest.raises(BudgetExceededError) as info:
        build(CYCLE8, 11, identity_objective(11))
    assert str(info.value) == (
        "the constructions of one hypergraph on 8 vertices at M = 11"
        " stack 1280000000 cells, more than 4194304"
    )
