"""isobench: exact enumeration, bounds, and randomized estimates for
isolating weight functions on hypergraphs."""

from .bounds import (
    bounded_edge_bound,
    conjectured_Y,
    conjectured_Y1,
    corollary_Y_bound,
    h_eval,
    main_theorem_bound,
    ta_shma_bound,
)
from .constructions import (
    build_witness_graph_A,
    build_witness_graph_B,
    check_degree_one_reduction,
    check_degree_zero_reduction,
    check_disjoint_union_reduction,
)
from .counting import count_isolating, count_layer1
from .errors import BudgetExceededError
from .hypergraph import (
    Hypergraph,
    complement_singleton_hypergraph,
    enumerate_hypergraphs,
    is_linear,
    one_degenerate_order,
    power_set_hypergraph,
    random_hypergraph,
    random_uniform_hypergraph,
    singleton_hypergraph,
)
from .search import (
    ObjectiveStrategy,
    compare_to_asymptotics,
    conjecture_search,
    sample_layer1,
    sample_uniform,
)
from .special_m2 import check_min_cardinality_reduction, rich_edge_report
from .verify import verify_grid
from .weights import (
    Objective,
    explicit_objective,
    generic_high_objective,
    generic_low_objective,
    identity_objective,
    preset_objectives,
    random_objective,
    shift_objective_up,
)
from .zero_weight import tashma_injection_maximal, zero_based_identity, zero_weight_tightness

__all__ = [
    "BudgetExceededError",
    "Hypergraph",
    "Objective",
    "ObjectiveStrategy",
    "bounded_edge_bound",
    "build_witness_graph_A",
    "build_witness_graph_B",
    "check_degree_one_reduction",
    "check_degree_zero_reduction",
    "check_disjoint_union_reduction",
    "check_min_cardinality_reduction",
    "compare_to_asymptotics",
    "complement_singleton_hypergraph",
    "conjecture_search",
    "conjectured_Y",
    "conjectured_Y1",
    "corollary_Y_bound",
    "count_isolating",
    "count_layer1",
    "enumerate_hypergraphs",
    "explicit_objective",
    "generic_high_objective",
    "generic_low_objective",
    "h_eval",
    "identity_objective",
    "is_linear",
    "main_theorem_bound",
    "one_degenerate_order",
    "power_set_hypergraph",
    "preset_objectives",
    "random_hypergraph",
    "random_objective",
    "random_uniform_hypergraph",
    "rich_edge_report",
    "sample_layer1",
    "sample_uniform",
    "shift_objective_up",
    "singleton_hypergraph",
    "ta_shma_bound",
    "tashma_injection_maximal",
    "verify_grid",
    "zero_based_identity",
    "zero_weight_tightness",
]

__version__ = "0.1.0"
