"""Linear Schrodinger dynamics on star graphs, regular trees and layered lines.

The package bundles four tool sets around one family of dispersive problems:

* unitary Crank-Nicolson evolution on metric graphs with Kirchhoff vertex
  conditions and on the line with a piecewise-constant coefficient,
* the exact solution representation of the layered line through transfer
  matrices, exponential-polynomial recursions and Wiener-inverted kernels,
* the reductions that collapse star and regular-tree problems onto the line,
* numerical laboratories for Gaussian-decay thresholds, the Carleman
  inequality behind them, and the Appell transform.

``import graphlse`` loads none of them: each public name below is imported
from its module on first access (PEP 562), so a program pays only for the
modules whose names it uses.
"""

__version__ = "0.1.0"

import importlib

# public name -> the module that defines it, in the order of __all__
_HOME = {
    name: module
    for module, names in (
        ("graphs", (
            "Edge", "GraphGrid", "GraphState", "KirchhoffResidual", "MetricGraph", "NormOverflowError",
            "build_regular_tree", "build_star", "kirchhoff_residual", "weighted_l2_norm",
        )),
        ("evolution", (
            "EvolutionConfig", "TruncationGuardError", "evolve_graph", "evolve_graph_potential",
            "evolve_line_sigma", "read_checkpoint", "write_checkpoint",
        )),
        ("exppoly", (
            "ExpPolynomial", "PiecewiseCoefficient", "WienerSeries", "alpha_prefactor", "chain_lower_entries",
            "chain_product", "coefficients_C", "determinant_product", "ef_recursion", "invert_E", "line_grid",
            "transfer_matrix", "write_series_csv",
        )),
        ("kernels", (
            "EtaProfile", "QuadratureDomainError", "eta_profile", "free_kernel", "kernel_h", "kernel_p1k",
            "solve_line",
        )),
        ("reduction", (
            "AveragedSums", "FoldedLine", "ReductionMap", "averaged_sums", "difference_Z", "fold_to_line",
            "reduction_map", "star_sum", "write_reduction_report",
        )),
        ("uncertainty", (
            "DecayFit", "ThresholdVerdict", "appell_time_map", "appell_transform", "classify_threshold",
            "fit_gaussian_decay", "gamma_star", "sharp_example_star", "sharp_example_two_step",
        )),
        ("carleman", (
            "AlphaVectors", "CarlemanMargin", "CarlemanWeight", "WeightOverflowError", "ZcompSample",
            "alpha_vectors", "carleman_sides", "membership_residual", "sample_zcomp",
        )),
    )
    for name in names
}
__all__ = list(_HOME)


class _GuardError(Exception):
    """A numerical guard tripped (overflow, wavefront at the boundary, data not small at the quadrature ends).

    The base of each module's guard error, so that the CLI maps all of them
    to exit code 2 without importing the modules that raise them.
    """


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
