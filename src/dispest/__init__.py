"""Quantum Cramer-Rao bounds and Monte Carlo simulation for joint estimation
of the two parameters of a phase-space displacement with Gaussian probes."""

__version__ = "0.1.0"

from .gaussian import (GaussianState, SymplecticTransform, beamsplit_balanced,
                       displace, heterodyne_outcome_cov, homodyne_marginal,
                       make_squeezed_thermal, make_thermal, make_tmst,
                       phase_rotate, squeeze_single, squeeze_two,
                       symplectic_form, vacuum)
from .fock import (FockOperatorSet, PureStateError, TruncationError,
                   build_probe_fock, displace_fock, fock_fisher_converged,
                   moment_fock, moments_fock, rld_fisher_fock, sld_fisher_fock)
from .bounds import (BoundQuery, BoundReport, FisherMatrices,
                     RLDUnavailableError, ScalingFactors, bound_most_informative,
                     bound_rld, bound_sld, evaluate_bounds, gap_D,
                     gaussian_fisher, prior_fisher_gaussian, probe_fisher,
                     scaling_factors,
                     scheme_variance_sum, thresholds)
from .montecarlo import (EstimationConfig, EstimationResult, KMinScan,
                         UncertaintyProduct, empirical_K_min,
                         run_baseline_heterodyne, run_scheme,
                         uncertainty_product)
from .witness import (DuanResult, SqlEntanglementReport, asym_n2_threshold,
                      duan_best, duan_check, random_unsqueezed_two_mode,
                      scheme_variance_propagated, sql_beating_vs_entanglement)

__all__ = [
    "GaussianState", "SymplecticTransform", "vacuum", "make_thermal",
    "make_squeezed_thermal", "make_tmst", "squeeze_single", "squeeze_two",
    "displace", "phase_rotate", "beamsplit_balanced", "homodyne_marginal",
    "heterodyne_outcome_cov", "symplectic_form",
    "FockOperatorSet", "build_probe_fock", "displace_fock", "sld_fisher_fock",
    "rld_fisher_fock", "moments_fock", "moment_fock", "fock_fisher_converged",
    "PureStateError", "TruncationError",
    "FisherMatrices", "BoundQuery", "BoundReport", "gaussian_fisher",
    "bound_sld", "bound_rld", "bound_most_informative", "probe_fisher",
    "evaluate_bounds", "scheme_variance_sum",
    "gap_D", "thresholds", "prior_fisher_gaussian", "scaling_factors",
    "ScalingFactors", "RLDUnavailableError",
    "EstimationConfig", "EstimationResult", "KMinScan", "UncertaintyProduct",
    "run_scheme", "run_baseline_heterodyne", "empirical_K_min",
    "uncertainty_product",
    "DuanResult", "SqlEntanglementReport", "duan_check", "duan_best",
    "scheme_variance_propagated", "sql_beating_vs_entanglement",
    "asym_n2_threshold", "random_unsqueezed_two_mode",
]
