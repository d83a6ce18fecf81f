"""Shared hypothesis strategies and helpers for the test suite."""

from fractions import Fraction
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

from isobench import Hypergraph, Objective, counting, verify


# scales of an objective: one int64 limb, then two limbs (the id is the
# Python-integer dtype that scale took before limbs) and four or more limbs
SCALES = (1, 2**70, 2**200)
SCALE_IDS = ["int64", "object", "2^200"]


def table_kind(f, n):
    """(dtype, limbs) of f's value table on n vertices: one int16, int32
    or int64 limb, or int64 limbs of base-2^b digits."""
    table = counting._table(f, n)
    return table.dtype, counting._limbs(table)


@st.composite
def small_hypergraphs(draw, max_n=4, max_edges=5, min_n=1):
    """Inclusion-free hypergraphs on min_n to max_n vertices.

    Drawn edge lists are pruned greedily to an antichain, so shrinking
    stays well-behaved.
    """
    n = draw(st.integers(min_n, max_n))
    picks = draw(
        st.lists(st.integers(1, 2**n - 1), max_size=max_edges, unique=True)
    )
    chosen = []
    for e in picks:
        if all((e & o) != e and (e & o) != o for o in chosen):
            chosen.append(e)
    return Hypergraph(n, tuple(chosen))


@st.composite
def increasing_objectives(draw, M, zero_allowed=False):
    """Strictly increasing rational objectives on 1..M."""
    start_zero = zero_allowed and draw(st.booleans())
    values = []
    current = Fraction(0)
    for k in range(M):
        if k == 0 and start_zero:
            values.append(Fraction(0))
            continue
        num = draw(st.integers(1, 9))
        den = draw(st.integers(1, 9))
        current += Fraction(num, den)
        values.append(current)
    return Objective(M, tuple(values), zero_allowed=zero_allowed)


@st.composite
def counting_instances(draw, max_n=3, max_M=3):
    """(H, M, f) triples small enough for the pure-Fraction oracle."""
    H = draw(small_hypergraphs(max_n=max_n))
    M = draw(st.integers(1, max_M))
    f = draw(increasing_objectives(M))
    return H, M, f


class CheckRow(NamedTuple):
    """One applicable check on one instance, as ``verify``'s check table
    gives it, passing or not."""

    name: str
    kind: str
    lhs: str
    rhs: str
    holds: bool


def walk_checks(Hs, objectives):
    """``verify._walk_checks`` on the walk of Hs under the (M, f) listing
    ``objectives``, with the walk's shape."""
    walk = counting._walk(Hs, objectives)
    return verify._walk_checks(walk, verify._shape(walk.hypergraphs))


def check_rows(Hs, objectives):
    """Every applicable check on each instance (H, M, f), for H in Hs and
    (M, f) in ``objectives``, expanded from ``verify``'s check table: a
    list per hypergraph of a list per objective of rows, in table order."""
    walk = counting._walk(Hs, objectives)
    rows = [[[] for _ in objectives] for _ in Hs]
    for j, table in verify._check_tables(walk, verify._shape(walk.hypergraphs)):
        for name, kind, lhs, relation, rhs, applies in table:
            holds = np.broadcast_to(relation(lhs, rhs), applies.shape)
            for h in np.flatnonzero(applies).tolist():
                texts = (verify._at(x, h) for x in (kind, lhs, rhs))
                rows[h][j].append(CheckRow(name, *texts, bool(holds[h])))
    return rows
