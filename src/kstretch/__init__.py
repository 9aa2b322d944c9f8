"""Informationally complete (s,t)-POVMs and k-nonstretchability detection."""

from .basis import gell_mann_basis, group_basis
from .criteria import CriterionReport, evaluate, sweep_rows, threshold_p
from .infoquant import VARIANCE, MonotoneFunctionSpec
from .linalg import DensityMatrix, hermitian_eig
from .partitions import BoundInputs, bound_i, bound_v, enumerate_kstretch, \
    max_sum_squares
from .povm import SymmetricMeasurement, build_stpovm, r_range
from .states import IsotropicFamily, antisymmetric_state, ghz_qudit, \
    materialize_dense

__all__ = [
    "BoundInputs", "CriterionReport", "DensityMatrix", "IsotropicFamily",
    "MonotoneFunctionSpec", "SymmetricMeasurement", "VARIANCE",
    "antisymmetric_state", "bound_i", "bound_v", "build_stpovm",
    "enumerate_kstretch", "evaluate", "gell_mann_basis",
    "ghz_qudit", "group_basis", "hermitian_eig", "materialize_dense",
    "max_sum_squares", "r_range", "sweep_rows", "threshold_p",
]

__version__ = "0.1.0"
