"""Eigenvalue counting and two-term spectral asymptotics for comb domains.

A comb domain is the unit square with q teeth of width 1/(2q) and height h
attached along its top edge.  The package evaluates the closed-form count
coefficients c and c_weyl, counts rectangle and tooth eigenvalues exactly by
lattice enumeration, analyzes tooth Dirichlet-to-Neumann modes, counts comb
eigenvalues by finite differences with Sylvester and Haynsworth inertia, and
runs sweep experiments fitting N(mu*q^2) = c*q^2 + beta*q.
"""

from .analytic import (ConstantReport, DomainSpec, EulerMaclaurinTerms,
                       constant_report, crossover_scan, em_decomposition,
                       mode_cutoff, theorem_constant, weyl_constant)
from .asymptotics import (ExperimentConfig, FitResult, SweepRecord,
                          defect_series, fit_constant, fmt17, run_sweep,
                          write_report)
from .dtn import (DirichletPoleError, DtnMode, count_nonpositive_tooth,
                  square_mixed_gap, tooth_mode, tooth_mode_eigenvalue)
from .fdlap import (CombGrid, CombLayout, DiscreteOperator, FactorizationError,
                    assemble_dirichlet_operator, build_comb_grid,
                    build_rect_operator, comb_inertia_count, comb_layout,
                    dense_count, dense_eig_oracle, fd_rect_count_closed_form,
                    inertia_count)
from .lattice import (RectSpec, SpectralCount, count_rect_dirichlet,
                      count_rect_neumann, count_tooth, enumerate_rect_eigs)

__version__ = "0.1.0"

__all__ = [
    "ConstantReport", "DomainSpec", "EulerMaclaurinTerms", "constant_report",
    "crossover_scan", "em_decomposition", "mode_cutoff", "theorem_constant",
    "weyl_constant",
    "ExperimentConfig", "FitResult", "SweepRecord", "defect_series",
    "fit_constant", "fmt17", "run_sweep", "write_report",
    "DirichletPoleError", "DtnMode", "count_nonpositive_tooth",
    "square_mixed_gap", "tooth_mode", "tooth_mode_eigenvalue",
    "CombGrid", "CombLayout", "DiscreteOperator", "FactorizationError",
    "assemble_dirichlet_operator", "build_comb_grid", "build_rect_operator",
    "comb_inertia_count", "comb_layout", "dense_count", "dense_eig_oracle",
    "fd_rect_count_closed_form", "inertia_count",
    "RectSpec", "SpectralCount", "count_rect_dirichlet", "count_rect_neumann",
    "count_tooth", "enumerate_rect_eigs",
    "__version__",
]
