"""isobench: exact enumeration, bounds, and randomized estimates for
isolating weight functions on hypergraphs."""

from .bounds import (
    BoundSet,
    bound_set,
    bounded_edge_bound,
    conjectured_Y,
    conjectured_Y1,
    corollary_Y_bound,
    h_eval,
    main_theorem_bound,
    success_probabilities,
    ta_shma_bound,
    zero_weight_Y,
)
from .constructions import (
    ReductionCheck,
    WitnessGraph,
    build_witness_graph_A,
    build_witness_graph_B,
    check_degree_one_reduction,
    check_degree_zero_reduction,
    check_disjoint_union_reduction,
    descend,
    next_vertex,
    pivot_descend,
)
from .counting import (
    CountReport,
    MinimizationResult,
    ObjectiveStrategy,
    count_isolating,
    count_layer1,
    count_min_over_objectives,
    isolating_weights,
)
from .errors import BudgetExceededError
from .hypergraph import (
    Hypergraph,
    canonical_key,
    complement_singleton_hypergraph,
    disjoint_union,
    edge_mask,
    edge_vertices,
    enumerate_hypergraphs,
    is_connected,
    is_inclusion_free,
    is_linear,
    one_degenerate_order,
    power_set_hypergraph,
    random_hypergraph,
    random_uniform_hypergraph,
    remove_vertex,
    singleton_hypergraph,
)
from .search import (
    SampleReport,
    SearchReport,
    compare_to_asymptotics,
    conjecture_search,
    sample_layer1,
    sample_uniform,
)
from .special_m2 import (
    EdgeRichness,
    RichEdgeReport,
    check_min_cardinality_reduction,
    min_cardinality_subgraph,
    min_vertex_cover,
    rich_edge_report,
    special_isolating_weights,
)
from .verify import CheckResult, VerifySummary, instance_checks, verify_grid
from .weights import (
    Objective,
    edge_weight,
    explicit_objective,
    generic_high_objective,
    generic_low_objective,
    identity_objective,
    is_isolating,
    isolating_edge,
    layer,
    min_weight_edges,
    objective_from_json,
    preset_objectives,
    random_objective,
    shift_objective_down,
    shift_objective_up,
    subtract_indicator,
)
from .zero_weight import (
    MaximalInjectionReport,
    tashma_injection_maximal,
    zero_based_identity,
    zero_weight_tightness,
)

__version__ = "0.1.0"
