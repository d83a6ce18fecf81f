"""Independent brute-force oracles for cross-checking the package.

Everything here works on plain data (edges as vertex tuples, objective
values as Fractions) and follows the definitions literally, sharing no
code with the package under test.
"""

import itertools
from fractions import Fraction


def edge_weight(values, w, edge):
    """values is 1-indexed by label (values[0] unused)."""
    return sum((values[w[v - 1]] for v in edge), Fraction(0))


def min_edges(edges, values, w):
    sums = [edge_weight(values, w, e) for e in edges]
    lo = min(sums)
    return [k for k, s in enumerate(sums) if s == lo]


def lower(w, vertices):
    return tuple(x - 1 if v in vertices else x for v, x in enumerate(w, start=1))


def classify(edges, values, w):
    """(isolating?, index of the isolated edge or None)."""
    if not edges:
        return True, None
    sums = [edge_weight(values, w, e) for e in edges]
    lo = min(sums)
    if sums.count(lo) == 1:
        return True, sums.index(lo)
    return False, None


def count_isolating(n, edges, M, fvalues):
    """(total, per_layer list, per_edge dict edge-index -> count)."""
    values = [None, *fvalues]
    total = 0
    per_layer = [0] * M
    per_edge = {}
    for w in itertools.product(range(1, M + 1), repeat=n):
        iso, idx = classify(edges, values, w)
        if iso:
            total += 1
            per_layer[min(w) - 1] += 1
            if idx is not None:
                per_edge[idx] = per_edge.get(idx, 0) + 1
    return total, per_layer, per_edge


def special_weights(n, edges):
    """Special isolating weights over {1,2}^n by direct definition:
    some edge is the unique unit-weight minimum and its vertices weigh no
    more than every outside vertex.  All of {1,2}^n when there are no
    edges, by convention."""
    if not edges:
        return list(itertools.product((1, 2), repeat=n))
    out = []
    for w in itertools.product((1, 2), repeat=n):
        for k, e in enumerate(edges):
            we = sum(w[v - 1] for v in e)
            if any(
                sum(w[v - 1] for v in e2) <= we
                for j, e2 in enumerate(edges)
                if j != k
            ):
                continue
            outside = [v for v in range(1, n + 1) if v not in e]
            if all(w[i - 1] <= w[j - 1] for i in e for j in outside):
                out.append(w)
            break
    return out


def minimum_covers(n, edges):
    """(minimum cover size, all covers of that size in lex order)."""
    for k in range(n + 1):
        covers = []
        for combo in itertools.combinations(range(1, n + 1), k):
            s = set(combo)
            if all(s & set(e) for e in edges):
                covers.append(combo)
        if covers:
            return k, covers
    return n, []


def valid_elimination_order(edges, order):
    """Re-verify the degree <= 1 condition at every prefix of the order."""
    for i in range(len(order)):
        remaining = set(order[i:])
        inside = [e for e in edges if set(e) <= remaining]
        if sum(1 for e in inside if order[i] in e) > 1:
            return False
    return True


def is_one_degenerate(n, edges):
    return any(
        valid_elimination_order(edges, perm)
        for perm in itertools.permutations(range(1, n + 1))
    )


def antichains(masks):
    """All antichain subsets of the given bitmask list."""
    out = []
    for size in range(len(masks) + 1):
        for combo in itertools.combinations(masks, size):
            if all(
                (a & b) != a and (a & b) != b
                for a, b in itertools.combinations(combo, 2)
            ):
                out.append(frozenset(combo))
    return out
