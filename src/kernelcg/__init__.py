"""Kernel-machine approximation toolkit.

Exact Gaussian-process regression, classical low-rank approximations
(subset of regressors, DTC, FITC, VFE, projected Bayes regressor),
conjugate-gradient solvers, and a low-rank kernel estimator learned from
CG search directions, plus structured fast matrix-vector products and a
benchmark harness.
"""

from . import datasets, exact, harness, kernels, kmcg, linalg, lowrank, solvers, structured
from .datasets import Dataset, gen_toy, load_csv
from .exact import ExactGpModel
from .kernels import Kernel, gram, matern52_kernel, se_kernel
from .kmcg import KmcgModel, kmcg_evidence, kmcg_fit, kmcg_mean, kmcg_var
from .solvers import cg_reorth, cg_textbook, fom_solution

__all__ = [
    "Dataset",
    "ExactGpModel",
    "Kernel",
    "KmcgModel",
    "cg_reorth",
    "cg_textbook",
    "datasets",
    "exact",
    "fom_solution",
    "gen_toy",
    "gram",
    "harness",
    "kernels",
    "kmcg",
    "kmcg_evidence",
    "kmcg_fit",
    "kmcg_mean",
    "kmcg_var",
    "linalg",
    "load_csv",
    "lowrank",
    "matern52_kernel",
    "se_kernel",
    "solvers",
    "structured",
]
