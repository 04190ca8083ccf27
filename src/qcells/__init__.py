"""Exact symbolic toolkit for quantum unipotent cells.

Computes Feigin-homomorphism images of quantum minors in quantum tori with
exact Q(q) arithmetic, and verifies the monomial law for twisted unipotent
minors together with the chamber-ansatz factorization it implies.
"""

from .cartan import Weight, build_root_datum
from .cells import chamber_ansatz, feigin_minor, verify_theorem
from .qtorus import TorusPresentation, torus_str
from .scalars import LaurentQ, ScalarQ, qint, qfact, qbinom, gauss_product

__all__ = [
    "LaurentQ",
    "ScalarQ",
    "TorusPresentation",
    "Weight",
    "build_root_datum",
    "chamber_ansatz",
    "feigin_minor",
    "gauss_product",
    "qbinom",
    "qfact",
    "qint",
    "torus_str",
    "verify_theorem",
]

__version__ = "0.1.0"
