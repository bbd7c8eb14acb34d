"""operadkit: exact symbolic calculus for colored dg operads.

Free non-symmetric colored operads on planar tree monomials, derivation
differentials with exact Koszul bookkeeping, constructive tail solving,
polarizations, finite-dimensional representations over the rationals, and
the arity-by-arity homotopy-transfer extension.

The modules are the public surface.  The package itself re-exports only the
core types and the few functions the benchmark reads from it.
"""

from .core import OperadElement, TreeMonomial
from .differentials import DerivationDifferential, build_ainf, verify_d_squared
from .linalg import ChainComplex, RationalMatrix
from .reps import MultilinearMap, compose_maps, hom_differential, identity_map

__version__ = "0.1.0"
