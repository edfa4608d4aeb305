"""Exact tools for domination vs 2-domination in small graphs."""

from .graph import (
    Graph,
    components,
    from_edges,
    induced_subgraph,
    is_connected,
    is_independent,
)
from .matching import (
    Matching,
    brute_force_maximum_matching,
    maximum_matching,
)
from .solvers import (
    CnfFormula,
    DominationResult,
    cnf_satisfiable,
    enumerate_min_k_dominating,
    gamma_k,
    gamma_k_bruteforce,
    is_gamma_gamma2_graph,
    is_k_dominating,
    triple_cover_holds,
)
from .constructions import (
    ConstructionError,
    ConstructionSpec,
    PartitionedInstance,
    SatReduction,
    all_four_vertex_graphs,
    build,
    complete,
    cycle,
    double_subdivision,
    gadget_a,
    gadget_b,
    gadget_s,
    gadget_t6,
    join_c4,
    path,
    petersen,
    random_h_instance,
    reduce_3sat,
    star,
)
from .recognition import (
    AWitness,
    BWitness,
    InvalidHInstanceError,
    PerfectVerdict,
    RecognitionVerdict,
    check_witness,
    extract_underlying,
    forbidden_subgraph_check,
    perfect_oracle,
    recognize_h,
    recognize_perfect,
    validate_h,
)
from .verify import CheckResult, VerifyReport, run_verify

__version__ = "0.1.0"
