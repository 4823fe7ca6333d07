"""Alternative Legendre polynomials on [0, 1] with exact verification and quadrature.

The order-n family {P_nk, k = n..0} comes from Gram-Schmidt applied to the
monomials in decreasing power order, so P_nk keeps the x^k behaviour near
zero that ordinary orthogonal polynomials lose. The package provides exact
integer coefficients through five independent construction routes, stable
floating-point evaluation, the full set of recurrence, differentiation and
differential-equation identities as exactly checkable operations, the
Jacobi-connected auxiliary sequence, and the Gauss-type quadrature the
family generates (exact precisely for monomial degrees 2k-1 through 2n).

An exact-rational verification suite certifies every identity and
documents three misprinted constants found in published formulas for this
family, two of which (the hypergeometric parameters and the Jacobi
superscripts) give one wrong polynomial; see ``alpquad.verify``.

Each public name is declared once, in the ``__all__`` of its module; this
namespace and its ``__all__`` re-export exactly the lists of ``exactpoly``,
``family``, ``jacobi``, ``quadrature`` and ``verify``, plus ``__version__``.
"""

# `_family` keeps the module: `from .family import *` rebinds `family` to the constructor
from . import exactpoly, family as _family, jacobi, quadrature, verify
from .exactpoly import *
from .family import *
from .jacobi import *
from .quadrature import *
from .verify import *

__version__ = "0.1.0"

__all__ = [*exactpoly.__all__, *_family.__all__, *jacobi.__all__, *quadrature.__all__,
           *verify.__all__, "__version__"]
