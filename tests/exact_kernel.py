"""The exact reproducing kernel of the family, shared by the weight tests."""

from fractions import Fraction

from alpquad import alp_eval_exact


def exact_kernel_sums(n: int, x, kmin: int = 0) -> list[Fraction]:
    """[K_kmin, ..., K_n] with K_j = sum_{l=j}^{n} (2l+1) P_nl(x)^2 at the exact value of x."""
    total, sums = Fraction(0), []
    for l in range(n, kmin - 1, -1):
        total += (2 * l + 1) * alp_eval_exact(n, l, x) ** 2
        sums.append(total)
    return sums[::-1]
