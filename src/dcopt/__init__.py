"""Dual-connectivity HetNet optimization: WSR and PF association solvers.

Core objects: NetworkInstance (peak rates, weights, rate limits) and its
check instance_errors, ClusterProblem / allocate_cluster for weighted sum
rate inside one macro cluster, PfClusterProblem / pf_bisection for
proportional fairness, single_tp_pf_solve for the single-TP PF baseline (per
cluster: orthogonal_split_solve), local_search_associate and
staged_pf_associate for network-wide user association, plus a deployment
generator and a batch CLI.
"""

from .net_model import (
    INF,
    AllocationFractions,
    Association,
    InfeasibleError,
    NetworkInstance,
    NotConvergedError,
    TooLargeError,
    build_ground_set,
    compute_user_rates,
    instance_errors,
    instance_from_json,
    instance_to_json,
    make_instance,
)
from .wsr_alloc import (
    ClusterAllocation,
    ClusterProblem,
    SlopeCurve,
    allocate_cluster,
    verify_kkt_wsr,
)
from .pf_alloc import (
    PfClusterProblem,
    PfDualSolution,
    g_of_lambda,
    h_of_lambda,
    pf_bisection,
    verify_kkt_pf,
    xlogx,
)
from .wsr_assoc import (
    LocalSearchParams,
    LocalSearchResult,
    SetFunctionCache,
    allocation_for_pairs,
    check_admission_control,
    local_search_associate,
)
from .pf_assoc import (
    SplitResult,
    StagedPfResult,
    dc_pf_value,
    orthogonal_split_solve,
    single_tp_pf_objective,
    single_tp_pf_solve,
    staged_pf_associate,
    strongest_pico,
)
from .scenario import (
    Deployment,
    DeploymentConfig,
    Metrics,
    generate,
    max_sinr_baseline,
    rate_metrics,
)

__version__ = "0.1.0"
