"""graphquery: a query-complexity laboratory for hidden graphs and partitions.

Learn the components of a hidden graph (or the graph itself) through
bit-valued oracles, measure every query, face adaptive adversaries that
realize the matching lower bounds, and cross-check both against an exact
minimax game solver at desk scale.
"""

from .graphs import (
    Graph,
    connected_components,
    format_edge_list,
    parse_edge_list,
)
from .partitions import Partition, stirling_partition_count
from .coloring import (
    BudgetExceededError,
    Coloring,
    find_k_coloring,
    is_uniquely_k_colorable,
)
from .ledger import LedgerEntry, QueryLedger
from .oracles import AuditVerdict, HonestOracle
from .adversaries import ContractionAdversary, SeparabilityAdversary, UnknownCountAdversary
from .learners import (
    LearnResult,
    OracleInconsistencyError,
    RecursionTrace,
    count_components_multi,
    find_neighbors,
    learn_components_multi,
    learn_graph_neighborhood,
    learn_partition_all_pairs,
    learn_partition_representatives,
    verify_graph_neighborhood,
)
from .minimax import InstanceTooLargeError, information_bound_check, minimax_query_complexity
from .enumeration import enumerate_graphs, verify_unique_colorable_edge_bound
from .instances import generate_instance
from .duel import DuelReport, grid_duel, run_duel

__version__ = "0.1.0"

__all__ = [
    "AuditVerdict",
    "BudgetExceededError",
    "Coloring",
    "ContractionAdversary",
    "DuelReport",
    "Graph",
    "HonestOracle",
    "InstanceTooLargeError",
    "LearnResult",
    "LedgerEntry",
    "OracleInconsistencyError",
    "Partition",
    "QueryLedger",
    "RecursionTrace",
    "SeparabilityAdversary",
    "UnknownCountAdversary",
    "connected_components",
    "count_components_multi",
    "enumerate_graphs",
    "find_k_coloring",
    "find_neighbors",
    "format_edge_list",
    "generate_instance",
    "grid_duel",
    "information_bound_check",
    "is_uniquely_k_colorable",
    "learn_components_multi",
    "learn_graph_neighborhood",
    "learn_partition_all_pairs",
    "learn_partition_representatives",
    "minimax_query_complexity",
    "parse_edge_list",
    "run_duel",
    "stirling_partition_count",
    "verify_graph_neighborhood",
    "verify_unique_colorable_edge_bound",
]
