"""Search engine and verification suite for partitions of Z_N \\ {0}
into m symmetric, sum-free cyclic bases whose pairwise sumsets cover
everything: the arithmetic skeleton of an m-color triangle-free
complete graph, equivalently a cyclic Ramsey algebra on N points.
"""

from .catalog import (
    CatalogRow,
    EdgeColoring,
    RowVerification,
    export_coloring,
    load_catalog,
    verify_row,
    verify_rows,
)
from .checker import check_candidate
from .classcount import class_index_table, pair_sum_class_matrix
from .numbertheory import is_generator, prime_factors, sieve_primes, smallest_generator
from .oracle import (
    LabeledPartition,
    Relation,
    ScanRecord,
    atom_decomposition,
    exhaustive_small_scan,
    naive_check,
    partition_atoms,
    relation_algebra_check,
)
from .partition import CyclotomicPartition, build_partition
from .report import CheckReport, Witness
from .search import (
    DEFAULT_SEARCH_BOUND,
    CandidateFailure,
    SearchRecord,
    SweepResult,
    candidate_primes,
    ramsey_recursive_bound,
    search_all,
    search_min_modulus,
    sweep_nonexistence,
)

__version__ = "0.1.0"

__all__ = [
    "CandidateFailure",
    "CatalogRow",
    "CheckReport",
    "CyclotomicPartition",
    "DEFAULT_SEARCH_BOUND",
    "EdgeColoring",
    "LabeledPartition",
    "Relation",
    "RowVerification",
    "ScanRecord",
    "SearchRecord",
    "SweepResult",
    "Witness",
    "atom_decomposition",
    "build_partition",
    "candidate_primes",
    "check_candidate",
    "class_index_table",
    "exhaustive_small_scan",
    "export_coloring",
    "is_generator",
    "load_catalog",
    "naive_check",
    "pair_sum_class_matrix",
    "partition_atoms",
    "prime_factors",
    "ramsey_recursive_bound",
    "relation_algebra_check",
    "search_all",
    "search_min_modulus",
    "sieve_primes",
    "smallest_generator",
    "sweep_nonexistence",
    "verify_row",
    "verify_rows",
]
