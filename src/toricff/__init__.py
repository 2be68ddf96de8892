"""Exact flat F-manifold structures from toric Calabi-Yau complete intersections.

The pipeline: integer linear algebra over ray data (intlattice), the graded
Cayley ring of a complete intersection (toricring, polyalg), the odd-variable
complex carrying the Delta and Q_S operators (supercomplex), graded Jacobian
reduction with witnesses (jacobired), the order-by-order unfolding that produces
the structure-constant series (unfolding), and the exact verification suite
(ffverify). Everything is computed over the rationals with no floating point.
"""

__version__ = "0.1.0"

from .ffverify import (
    check_euler_identity,
    check_flat_f_axioms,
    check_fqm2,
    check_weight_homogeneity,
)
from .jacobired import jacobian_basis, reduce_with_witness
from .toricring import build_cayley_ring, build_class_grading, is_calabi_yau
from .unfolding import (
    check_series,
    gamma_series,
    lambda_series,
    run,
    structure_series,
)

__all__ = [
    "__version__",
    "build_class_grading",
    "build_cayley_ring",
    "is_calabi_yau",
    "jacobian_basis",
    "reduce_with_witness",
    "run",
    "check_series",
    "gamma_series",
    "structure_series",
    "lambda_series",
    "check_fqm2",
    "check_flat_f_axioms",
    "check_weight_homogeneity",
    "check_euler_identity",
]
