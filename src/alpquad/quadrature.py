"""Gauss-type quadrature generated by the alternative family.

The (n, k) rule places its n-k+1 nodes at the nonzero zeros of P_{n,k-1}
and takes weights w_j = 1 / sum_{l=k}^{n} (2l+1) P_nl(x_j)^2. The rule
integrates monomials x^l exactly for 2k-1 <= l <= 2n and nothing below
that window; in particular no rule with k >= 1 reproduces constants.

The deflated polynomial P_{n,k-1} / x^{k-1} is the Jacobi polynomial
P^{(2k-1,0)}_{n-k+1}(1-2x), so the rule is the (n-k+1)-point Gauss-Jacobi
rule for the weight x^{2k-1} on [0, 1]; that is why the window starts at
2k-1. Nodes are the eigenvalues of the closed-form tridiagonal Jacobi
matrix (Golub & Welsch, Math. Comp. 23, 1969), polished by one Newton step
from a single pass of the Jacobi three-term recurrence.

The weight denominator is the reproducing kernel of span{P_nl : k <= l <= n}
= x^k times the polynomials of degree <= n-k, so it is also x^{2k} times the
kernel of the orthonormal Jacobi polynomials for (1-t)^{2k}, t = 1-2x
(Gautschi, Orthogonal Polynomials, 2004, sections 1.3 and 3.1). The Jacobi
matrices and that kernel live in ``alpquad.jacobi``; this module only
validates, inverts and assembles, and ``AlpFamily.weight_denominator``
calls the same kernel, so a weight is 1 / weight_denominator bit for bit,
at any input.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .exactpoly import Polynomial, inner_product
from .family import alp_coefficients
from .jacobi import _alp_kernel, _jacobi_matrix, _jacobi_pair

__all__ = [
    "RootFindingError",
    "QuadratureRule",
    "nodes",
    "weights",
    "build_rule",
    "integrate",
    "exactness_report",
    "expand_in_alp",
    "rule_to_json",
    "rule_to_csv",
]

# bound on the Newton step that polishes an eigenvalue; measured at most
# 5.5e-16 for n <= 30 and 1.5e-15 for n <= 100
_MAX_CORRECTION = 1e-13


class RootFindingError(RuntimeError):
    """Node construction failed a check (Newton correction, range or order)."""


@dataclass(frozen=True)
class QuadratureRule:
    """Immutable (n, k) rule: sum_j weights[j] f(nodes[j]) over nodes in (0,1)."""

    n: int
    k: int
    nodes: tuple[float, ...]
    weights: tuple[float, ...]


def _check_rule_index(n: int, k: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"quadrature requires 1 <= k <= n, got n={n}, k={k}")


def nodes(n: int, k: int) -> tuple[float, ...]:
    """Nodes of the (n, k) rule: the n-k+1 roots of deflated P_{n,k-1}.

    The deflated polynomial is P^{(2k-1,0)}_m(1-2x) with m = n-k+1, so the
    nodes are the Gauss-Jacobi nodes for the weight x^{2k-1} on [0, 1].
    They are found as the eigenvalues of the symmetric tridiagonal Jacobi
    matrix (Golub-Welsch), whose entries come as Python floats, exact
    until one division and one square root; only its diagonal and
    subdiagonal are written, since ``eigvalsh`` reads the lower triangle.
    The eigenvalues are mapped from t to x = (1-t)/2 and polished by one
    Newton step on the Jacobi recurrence, and the checks run on Python
    lists. One pass of the recurrence gives P_m and P_{m-1}, and the
    derivative comes from the identity
    (2m+a)(1-t^2) P_m' = m(a - (2m+a)t) P_m + 2m(m+a) P_{m-1} (Szego,
    Orthogonal Polynomials, section 4.5). At a node P_m is nearly 0, so the
    P_{m-1} term dominates and nothing cancels, and 1 - t is exact;
    ``alp_derivative_eval`` keeps the shifted-parameter derivative, since
    the identity would divide by x(1-x) at its endpoints. Raises
    RootFindingError rather than ever returning a node set that fails its
    checks.
    """
    import numpy as np

    _check_rule_index(n, k)
    m, a = n - k + 1, 2 * k - 1
    diag, off = _jacobi_matrix(m, a)
    # eigvalsh reads the lower triangle only
    mat = np.zeros((m, m))
    flat = mat.reshape(-1)
    flat[:: m + 1] = diag
    flat[m :: m + 1] = off
    t = np.linalg.eigvalsh(mat)
    x = np.sort((1.0 - t) / 2.0)
    t = 1.0 - 2.0 * x
    # Newton on q(x) = P_m(1-2x): q'(x) = -2 P_m'(t), so the step is
    # P_m / (2 P_m') with P_m' from the identity above
    p, q = _jacobi_pair(m, a, 0, t)
    s = 2.0 * m + a
    step = p * (s * (1.0 - t) * (1.0 + t)) / (2.0 * (m * (a - s * t) * p + 2.0 * m * (m + a) * q))
    xs = (x + step).tolist()
    if not all(abs(v) <= _MAX_CORRECTION for v in step.tolist()):  # max() would let a NaN through
        worst = float(np.max(np.abs(step)))
        raise RootFindingError(f"Newton correction {worst:.3e} above tolerance for n={n}, k={k}")
    if not all(0.0 < v < 1.0 for v in xs):
        raise RootFindingError(f"a node escaped (0,1) at n={n}, k={k}")
    if not all(u < v for u, v in zip(xs, xs[1:])):
        raise RootFindingError(f"nodes not strictly increasing at n={n}, k={k}")
    return tuple(xs)


def weights(n: int, k: int, rule_nodes: Sequence[float]) -> tuple[float, ...]:
    """Weights w_j = 1 / sum_{l=k}^{n} (2l+1) P_nl(x_j)^2, all positive.

    The sum comes from the reproducing-kernel recurrence of
    ``alpquad.jacobi`` (n-k vectorised steps, rescaled by powers of two)
    and is inverted before its power-of-two scale is applied, so neither
    step overflows or underflows by itself. Past k = 511, weights at points
    just above a power of two lose accuracy. Any point of (0, 1) may be
    given, not only the nodes; a point outside it (NaN and +-inf included)
    raises ValueError naming the first such point, and a weight beyond the
    double range comes back as inf. The nodes are cast to float64 by the
    float layer's rule: bool, integer and float nodes are cast, and so are
    objects that are all real numbers (Fractions, say); any other kind
    (complex, str) raises TypeError naming the dtype.
    """
    import numpy as np

    _check_rule_index(n, k)
    x = np.asarray(rule_nodes)
    if x.dtype.kind not in "biuf" and not (x.dtype.kind == "O" and all(isinstance(v, numbers.Real) for v in x.flat)):
        raise TypeError(f"nodes must be real numbers, got an array of dtype {x.dtype}")
    x = x.astype(np.float64, copy=False)
    for i, v in enumerate(x.tolist()):
        if not 0.0 < v < 1.0:
            raise ValueError(f"node {rule_nodes[i]} outside the open interval (0,1)")
    v, e = _alp_kernel(n, k, x)
    return tuple(np.ldexp(1.0 / v, -e).tolist())


def build_rule(n: int, k: int) -> QuadratureRule:
    """Assemble and validate the (n, k) rule."""
    xs = nodes(n, k)
    ws = weights(n, k, xs)
    if not all(0.0 < w < math.inf for w in ws):
        raise RootFindingError(f"nonpositive or non-finite weight in rule n={n}, k={k}")
    return QuadratureRule(n=n, k=k, nodes=xs, weights=ws)


def integrate(rule: QuadratureRule, f: Callable[[float], float]) -> float:
    """Apply the rule to f: sum_j w_j f(x_j)."""
    terms = []
    for x, w in zip(rule.nodes, rule.weights):
        v = float(f(x))
        if not math.isfinite(v):
            raise ValueError(f"integrand is not finite at node {x}")
        terms.append(w * v)
    return math.fsum(terms)


def exactness_report(rule: QuadratureRule) -> list[tuple[int, float]]:
    """Absolute monomial errors |rule(x^l) - 1/(l+1)| for l = 0 .. 2n+1.

    Degrees inside [2k-1, 2n] are exact up to roundoff; the entries at
    l = 2k-2 and l = 2n+1 sit just outside the window and demonstrate its
    sharpness.
    """
    out = []
    for l in range(2 * rule.n + 2):
        approx = math.fsum(w * x**l for x, w in zip(rule.nodes, rule.weights))
        out.append((l, abs(approx - 1.0 / (l + 1))))
    return out


def expand_in_alp(p: Polynomial, n: int, kmin: int) -> list[Fraction]:
    """Exact expansion coefficients c_k = (2k+1) <p, P_nk> for k = kmin..n.

    If p lies in span{P_nk : kmin <= k <= n} then sum_k c_k P_nk
    reproduces p exactly; the partial family spans the polynomials of
    degree <= n divisible by x^kmin.
    """
    if not 0 <= kmin <= n:
        raise ValueError(f"require 0 <= kmin <= n, got kmin={kmin}, n={n}")
    return [(2 * k + 1) * inner_product(p, alp_coefficients(n, k)) for k in range(kmin, n + 1)]


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def rule_to_json(rule: QuadratureRule) -> str:
    """JSON form {"n":..,"k":..,"nodes":[..],"weights":[..]}, 17 significant digits."""
    nodes_s = ",".join(_fmt17(x) for x in rule.nodes)
    weights_s = ",".join(_fmt17(w) for w in rule.weights)
    return f'{{"n":{rule.n},"k":{rule.k},"nodes":[{nodes_s}],"weights":[{weights_s}]}}'


def rule_to_csv(rule: QuadratureRule) -> str:
    """CSV form with header j,node,weight and 1-based row index."""
    lines = ["j,node,weight"]
    for j, (x, w) in enumerate(zip(rule.nodes, rule.weights), start=1):
        lines.append(f"{j},{_fmt17(x)},{_fmt17(w)}")
    return "\n".join(lines) + "\n"
