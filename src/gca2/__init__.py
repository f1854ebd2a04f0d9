"""Exact computation of greedy bases in rank-2 generalized cluster algebras."""

from .cluster import AlgebraContext
from .coeffring import CoeffPoly, CoefficientMode, GeneratorId, MissingGenerator
from .compat import (ShadowReport, enumerate_bruteforce, enumerate_fast,
                     is_compatible, support_region)
from .dyckpath import DyckPath, EdgeRef, Subpath
from .greedy import (NotInAlgebra, greedy_combinatorial, greedy_expand,
                     greedy_recursive, pair_weight, reflect_params)
from .laurent import (LaurentPoly, NotDivisible, NotLaurent, NotPointed,
                      PointedForm, SymbolicModeUnsupported, lp_is_positive,
                      lp_to_pointed)

__all__ = [
    "AlgebraContext", "CoeffPoly", "CoefficientMode", "DyckPath", "EdgeRef",
    "GeneratorId", "LaurentPoly", "MissingGenerator",
    "NotDivisible", "NotInAlgebra", "NotLaurent", "NotPointed", "PointedForm",
    "ShadowReport", "Subpath", "SymbolicModeUnsupported",
    "enumerate_bruteforce", "enumerate_fast", "greedy_combinatorial",
    "greedy_expand", "greedy_recursive", "is_compatible", "lp_is_positive",
    "lp_to_pointed", "pair_weight", "reflect_params", "support_region",
]

__version__ = "0.1.0"
