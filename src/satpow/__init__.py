"""satpow: exact saturation-power engine for monomial ideals.

Computes (I^n : J^inf), Hilbert-series numerators, dimensions and
multiplicities of the quotients (I^n : J^inf)/I^n, and fits the resulting
integer series as exact quasi-polynomials.
"""
from .core import MonomialIdeal, RingContext, minimalize
from .errors import (
    InconsistencyError,
    InsufficientDataError,
    ParseError,
    RingMismatchError,
    ZeroIdealError,
)
from .filtration import SeriesSample, dim_stabilization, sample_series, symbolic_power
from .hilbert import (
    HilbertData,
    Numerator,
    dim_and_mult,
    height,
    numerator_of_quotient,
    quotient_module_data,
)
from .quasipoly import QuasiPolynomial, coeff_is_constant, evaluate, fit, grade

__version__ = "0.1.0"

__all__ = [
    "MonomialIdeal",
    "RingContext",
    "minimalize",
    "InconsistencyError",
    "InsufficientDataError",
    "ParseError",
    "RingMismatchError",
    "ZeroIdealError",
    "SeriesSample",
    "dim_stabilization",
    "sample_series",
    "symbolic_power",
    "HilbertData",
    "Numerator",
    "dim_and_mult",
    "numerator_of_quotient",
    "quotient_module_data",
    "QuasiPolynomial",
    "coeff_is_constant",
    "evaluate",
    "fit",
    "grade",
    "height",
    "__version__",
]
