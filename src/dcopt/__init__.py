"""Dual-connectivity HetNet optimization: WSR and PF association solvers.

Core objects: NetworkInstance (peak rates, weights, rate limits) and its
check instance_errors, ClusterProblem / allocate_cluster for weighted sum
rate inside one macro cluster, PfClusterProblem / pf_bisection for
proportional fairness, single_tp_pf_solve for the single-TP PF baseline,
local_search_associate and staged_pf_associate for network-wide user
association, plus a deployment generator and a batch CLI. Everything else
is imported from its module (dcopt.net_model, dcopt.wsr_alloc, ...).
"""

from .net_model import (
    AllocationFractions,
    Association,
    InfeasibleError,
    NetworkInstance,
    compute_user_rates,
    instance_errors,
    instance_from_json,
    instance_to_json,
    make_instance,
)
from .wsr_alloc import ClusterProblem, allocate_cluster, verify_kkt_wsr
from .pf_alloc import PfClusterProblem, pf_bisection, verify_kkt_pf
from .wsr_assoc import local_search_associate
from .pf_assoc import single_tp_pf_solve, staged_pf_associate
from .scenario import DeploymentConfig, generate, rate_metrics

__version__ = "0.1.0"
