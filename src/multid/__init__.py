"""Bernstein-Sato polynomials and multiplier ideals of polynomial ideals over Q.

Everything is exact: Fraction coefficients, left Groebner bases in Weyl
algebras, and saturation/elimination in commutative polynomial rings.
"""

from .errors import (
    ComputationTimeout,
    InvalidSetting,
    IrrationalResidue,
    MultidError,
    NoncommutativeContext,
    ParseError,
    UnitIdeal,
    UnknownVariable,
    UnsupportedM,
    ZeroDivisor,
)
from .groebner import (
    LeftIdeal,
    TermOrder,
    colon,
    eliminate,
    ideal_equal,
    initial_ideal,
    intersect,
    member,
    saturate,
    weight_homogenization,
)
from .multiplier import (
    MultiplierFiltration,
    jumping_coefficients,
    lct,
    membership_test,
    multiplier_ideal,
)
from .oracles import (
    NewtonPolyhedron,
    cross_check,
    howald_filtration,
    howald_membership,
    verify_minimality,
)
from .parsing import parse_polynomial
from .pipeline import (
    IdealInput,
    ann_fs_generators,
    bfunction,
    bfunction_alg2,
    bfunction_level,
    build_If,
    build_Jf_m,
    compute_If1,
)
from .rationals import FactoredBPoly, UPoly, format_rational, parse_rational
from .request import GBStats
from .weyl import Signature, WeightVector, WeylElement, build_sigma

__all__ = [name for name in dir() if not name.startswith("_")]
