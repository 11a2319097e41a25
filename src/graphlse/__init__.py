"""Linear Schrodinger dynamics on star graphs, regular trees and layered lines.

The package bundles four tool sets around one family of dispersive problems:

* unitary Crank-Nicolson evolution on metric graphs with Kirchhoff vertex
  conditions and on the line with a piecewise-constant coefficient,
* the exact solution representation of the layered line through transfer
  matrices, exponential-polynomial recursions and Wiener-inverted kernels,
* the reductions that collapse star and regular-tree problems onto the line,
* numerical laboratories for Gaussian-decay thresholds, the Carleman
  inequality behind them, and the Appell transform.
"""

__version__ = "0.1.0"

from .graphs import (
    Edge,
    GraphGrid,
    GraphState,
    KirchhoffResidual,
    MetricGraph,
    NormOverflowError,
    build_regular_tree,
    build_star,
    kirchhoff_residual,
    weighted_l2_norm,
)
from .evolution import (
    EvolutionConfig,
    TruncationGuardError,
    evolve_graph,
    evolve_graph_potential,
    evolve_line_sigma,
    line_grid,
    read_checkpoint,
    write_checkpoint,
)
from .exppoly import (
    ExpPolynomial,
    PiecewiseCoefficient,
    WienerSeries,
    alpha_prefactor,
    chain_lower_entries,
    chain_product,
    coefficients_C,
    determinant_product,
    ef_recursion,
    invert_E,
    transfer_matrix,
    write_series_csv,
)
from .kernels import (
    EtaProfile,
    QuadratureDomainError,
    eta_profile,
    free_kernel,
    kernel_h,
    kernel_p1k,
    solve_line,
    solve_negative_halfline,
)
from .reduction import (
    AveragedSums,
    FoldedLine,
    ReductionMap,
    averaged_sums,
    difference_Z,
    fold_to_line,
    reduction_map,
    star_sum,
    write_reduction_report,
)
from .uncertainty import (
    DecayFit,
    ThresholdVerdict,
    appell_time_map,
    appell_transform,
    classify_threshold,
    fit_gaussian_decay,
    gamma_star,
    sharp_example_star,
    sharp_example_two_step,
)
from .carleman import (
    AlphaVectors,
    CarlemanMargin,
    CarlemanWeight,
    WeightOverflowError,
    ZcompSample,
    alpha_vectors,
    carleman_sides,
    membership_residual,
    sample_zcomp,
)
