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
on the Jacobi three-term recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .exactpoly import Polynomial, inner_product
from .family import alp_coefficients, family
from .jacobi import jacobi_derivative_eval, jacobi_eval

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
    matrix (Golub-Welsch), mapped from t to x = (1-t)/2, and polished by
    one Newton step on the Jacobi recurrence. Raises RootFindingError
    rather than ever returning a node set that fails its checks.
    """
    _check_rule_index(n, k)
    m, a = n - k + 1, 2 * k - 1
    j = np.arange(m, dtype=float)
    s = 2.0 * j + a
    diag = -a * a / (s * (s + 2.0))
    j, s = j[1:], s[1:]
    off = np.sqrt(4.0 * j**2 * (j + a) ** 2 / (s**2 * (s + 1.0) * (s - 1.0)))
    t = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    x = np.sort((1.0 - t) / 2.0)
    t = 1.0 - 2.0 * x
    # Newton on q(x) = P_m(1-2x): q'(x) = -2 P_m'(t)
    step = jacobi_eval(m, a, 0, t) / (2.0 * jacobi_derivative_eval(m, a, 0, t))
    x = x + step
    worst = float(np.max(np.abs(step)))
    if not worst <= _MAX_CORRECTION:
        raise RootFindingError(
            f"Newton correction {worst:.3e} above tolerance for n={n}, k={k}"
        )
    if not np.all((0.0 < x) & (x < 1.0)):
        raise RootFindingError(f"a node escaped (0,1) at n={n}, k={k}")
    if np.any(np.diff(x) <= 0.0):
        raise RootFindingError(f"nodes not strictly increasing at n={n}, k={k}")
    return tuple(float(v) for v in x)


def weights(n: int, k: int, rule_nodes: Sequence[float]) -> tuple[float, ...]:
    """Weights w_j = 1 / sum_{l=k}^{n} (2l+1) P_nl(x_j)^2, all positive."""
    _check_rule_index(n, k)
    fam = family(n)
    out = []
    for x in rule_nodes:
        if not 0.0 < x < 1.0:
            raise ValueError(f"node {x} outside the open interval (0,1)")
        out.append(1.0 / fam.weight_denominator(k, x))
    return tuple(out)


def build_rule(n: int, k: int) -> QuadratureRule:
    """Assemble and validate the (n, k) rule."""
    xs = nodes(n, k)
    ws = weights(n, k, xs)
    if not all(w > 0.0 for w in ws):
        raise RootFindingError(f"nonpositive weight in rule n={n}, k={k}")
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
    return [
        (2 * k + 1) * inner_product(p, alp_coefficients(n, k)) for k in range(kmin, n + 1)
    ]


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
