"""Local color constraints on complete graphs, experimentally.

The package asks how few colors an edge coloring of K_n can use while
every k-subset of vertices still spans at least l colors, and mirrors
the same question for difference sets of numbers.  It provides exact
color energies, energy graphs with their pruning stages, detectors for
the forbidden configurations that drive lower bounds, witness-set
extraction with re-checkable certificates, progression-free set
construction, and tiny-scale brute-force oracles.
"""

from .errors import (
    BudgetExceededError,
    ColoringError,
    DuplicatePairError,
    EnergyGraphError,
    LocalLabError,
    MissingPairError,
    PaddingError,
    PartitionError,
    SelfLoopError,
    SignConsistencyError,
    VertexRangeError,
    WitnessError,
)
from .coloring import (
    EdgeColoring,
    PropertyVerdict,
    check_local_property,
    coloring_from_dict,
    coloring_to_dict,
    load_coloring,
    new_coloring,
    pair_index,
    random_coloring,
    save_coloring,
)
from .energy import (
    ColorCountBound,
    energy,
    energy_bruteforce,
    energy_lower_bound,
    implied_color_lower_bound,
    ln_ceiling,
)
from .partition import (
    Bipartition,
    RPartition,
    balanced_bipartition,
    partition_for_rth_energy,
)
from .energy_graph import (
    EnergyGraph,
    build_rth_energy_graph,
    build_second_energy_graph,
    coordinate_neighbor_violations,
    edge_sign_vector,
    energy_graph_from_dict,
    energy_graph_to_dict,
    halve_parts_prune,
    prune_coordinate_neighbors,
    prune_diagonal,
    prune_rare_colors,
    sign_decompose,
)
from .forbidden import (
    CliqueWitness,
    CyclePath,
    DifferenceEquality,
    SubdivisionEmbedding,
    WitnessSet,
    clique_from_cycle_arith,
    find_complete_bipartite,
    find_cycle,
    find_subdivision,
    validate_cycle,
    witness_from_cycle,
)
from .arithmetic import (
    RealSet,
    behrend_set,
    check_g_property,
    coloring_from_set,
    difference_set,
    is_3ap_free,
    load_real_set,
    real_set,
    real_set_from_dict,
    real_set_to_dict,
    save_real_set,
)
from .oracle import (
    BoundReference,
    OracleResult,
    exact_f,
    exact_g_integers,
    upper_bound_exponent,
)
from .certificates import (
    clique_certificate,
    load_certificate,
    oracle_f_certificate,
    oracle_g_certificate,
    save_certificate,
    verdict_certificate,
    verify_certificate,
    witness_set_certificate,
)

__version__ = "0.1.0"
