"""Card-cyclic-to-random shuffling with relabeling.

Simulators for the CCRR shuffle and baselines, the idealized single-card
round kernel and its spectral certificates, exact mixing tables at tiny
deck sizes, and the eigenvector-statistic lower-bound experiment.
"""

__version__ = "0.1.0"

from .batch import (
    BatchCcrr,
    batch_round_positions,
    card_round_positions,
    ccrr_rounds,
    uniform_positions,
)
from .deck import Deck, FastDeck, ReplicateStreams, RngStream
from .ideal import (
    GridKernel,
    MatrixFreeKernel,
    NumericError,
    apply_sym,
    build_kernel,
    g,
    g_inverse,
    g_prime,
    kernel_from_binary,
    kernel_to_binary,
    kernel_to_csv,
    u0,
    y_distribution,
    y_moments,
)
from .mixing import (
    CapabilityError,
    PermDistribution,
    SingleCardStats,
    StatTrajectory,
    TestStatistic,
    check_conditional_bands,
    empirical_single_card,
    exact_round_push,
    exact_single_card_kernel,
    round_position_law,
    run_lower_bound_experiment,
    tv_to_uniform,
)
from .shuffles import ShuffleKind, run_round
from .spectral import (
    EigenEstimate,
    interpolate,
    oscillation_stats,
    residual,
    second_eig_b,
    second_eig_sym,
    skew_norm,
    smooth_boundary,
)

__all__ = [
    "__version__",
    "BatchCcrr", "batch_round_positions", "card_round_positions",
    "ccrr_rounds", "uniform_positions",
    "Deck", "FastDeck", "ReplicateStreams", "RngStream",
    "GridKernel", "MatrixFreeKernel", "NumericError", "apply_sym",
    "build_kernel", "g", "g_inverse", "g_prime",
    "kernel_from_binary", "kernel_to_binary", "kernel_to_csv", "u0",
    "y_distribution", "y_moments",
    "CapabilityError", "PermDistribution", "SingleCardStats", "StatTrajectory",
    "TestStatistic", "check_conditional_bands",
    "empirical_single_card", "exact_round_push", "exact_single_card_kernel",
    "round_position_law", "run_lower_bound_experiment", "tv_to_uniform",
    "ShuffleKind", "run_round",
    "EigenEstimate", "interpolate", "oscillation_stats",
    "residual", "second_eig_b", "second_eig_sym", "skew_norm",
    "smooth_boundary",
]
