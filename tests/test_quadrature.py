"""Quadrature rules: nodes, weights, exactness window, serialization.

Independent oracles: companion-matrix roots (numpy.roots) for the nodes,
and the moment system sum_j w_j x_j^l = 1/(l+1) over window degrees for
the weights. High-precision node/weight constants were computed separately
with 60-digit arithmetic and are frozen here.
"""

import hashlib
import json
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from alpquad import (
    Polynomial,
    QuadratureRule,
    RootFindingError,
    alp_coefficients,
    alp_eval,
    build_rule,
    exactness_report,
    expand_in_alp,
    family,
    integrate,
    jacobi_eval,
    jacobi_shifted_coefficients,
    nodes,
    rule_to_csv,
    rule_to_json,
    weights,
)
from alpquad import jacobi, quadrature
from alpquad.jacobi import _jacobi_eigenvalues, _jacobi_matrix, _jacobi_pair, jacobi_derivative_eval
from exact_kernel import exact_kernel_sums

# frozen 60-digit references (nodes ascending, weights in node order)
GOLDEN_RULES = {
    (2, 1): (
        [0.3550510257216821901802716, 0.8449489742783178098197284],
        [0.5124858261884216138388134, 0.3764030627004672750500754],
    ),
    (3, 1): (
        [0.2123405382391529439748, 0.5905331355592652891351, 0.9114120404872960526045],
        [0.3288443199800597439443, 0.3881934688431718807802, 0.2204622111767683752755],
    ),
    (4, 2): (
        [0.3632646302165119429799, 0.6988112691636135215489, 0.9379241006198745354712],
        [0.343766120833964097033, 0.3065148778952737808358, 0.1562502512707621221312],
    ),
    (5, 3): (
        [0.4679832354546185211645, 0.7616239696994605424725, 0.9522109766641027545448],
        [0.3250821209670651911021, 0.2520616206662650555847, 0.1210650938779150677655],
    ),
}


def test_nodes_known_values():
    assert nodes(1, 1) == pytest.approx([2.0 / 3.0], abs=1e-14)
    r6 = math.sqrt(6.0)
    assert nodes(2, 1) == pytest.approx([(6 - r6) / 10, (6 + r6) / 10], abs=1e-14)
    for n in range(1, 11):
        assert nodes(n, n) == pytest.approx([2 * n / (2 * n + 1)], abs=1e-13)


def test_nodes_match_companion_matrix_roots():
    # companion-matrix eigenvalues are only good to ~5e-12 themselves at
    # n = 10; the rigorous node accuracy proof is the sign-bracket test below
    for n in range(1, 11):
        for k in range(1, n + 1):
            deflated = alp_coefficients(n, k - 1).shifted(-(k - 1))
            ref = np.sort(np.roots(list(reversed(deflated.float_coeffs()))).real)
            got = nodes(n, k)
            assert got == pytest.approx(list(ref), abs=1e-10), (n, k)


def test_nodes_bracket_true_roots_exactly():
    # exact rational sign change within 2e-14 of every node proves each one
    # sits that close to a true root of the deflated polynomial; together
    # with the count and strict ordering this pins all of them
    eps = Fraction(2, 10**14)
    for n in range(1, 11):
        for k in range(1, n + 1):
            deflated = alp_coefficients(n, k - 1).shifted(-(k - 1))
            for x in nodes(n, k):
                lo, hi = Fraction(x) - eps, Fraction(x) + eps
                assert deflated(lo) * deflated(hi) < 0, (n, k, x)


def test_nodes_within_one_ulp_of_true_roots():
    # an exact sign change across x -+ 2^-52 puts a true root of the
    # deflated polynomial that close to every node of every rule to n = 30
    eps = Fraction(1, 2**52)
    for n in range(1, 31):
        for k in range(1, n + 1):
            deflated = alp_coefficients(n, k - 1).shifted(-(k - 1))
            for x in nodes(n, k):
                lo, hi = Fraction(x) - eps, Fraction(x) + eps
                assert deflated(lo) * deflated(hi) < 0, (n, k, x)


def test_node_validation():
    for bad in [(0, 1), (3, 0), (3, 4), (2, -1)]:
        with pytest.raises(ValueError):
            nodes(*bad)


def test_nodes_reject_large_newton_correction(monkeypatch):
    # a residual of 1 at every eigenvalue asks for a Newton step far above
    # the bound, as a wrong matrix entry would
    def shifted(m, alpha, beta, t):
        p, q = _jacobi_pair(m, alpha, beta, t)
        return p + 1.0, q

    monkeypatch.setattr(quadrature, "_jacobi_pair", shifted)
    with pytest.raises(RootFindingError):
        nodes(5, 2)


def _zero_step_pair(m, alpha, beta, t):
    # P_m = 0 at every eigenvalue makes the Newton step exactly 0
    return 0.0 * t, 1.0 + 0.0 * t


def test_nodes_reject_an_escaped_eigenvalue(monkeypatch):
    # an eigenvalue t above 1 maps to x below 0
    monkeypatch.setattr(quadrature, "_jacobi_pair", _zero_step_pair)
    monkeypatch.setattr(quadrature, "_jacobi_matrix", lambda m, a: ([0.0, 1.5], [0.0]))
    with pytest.raises(RootFindingError, match="escaped"):
        nodes(2, 1)


def test_nodes_reject_a_repeated_eigenvalue(monkeypatch):
    monkeypatch.setattr(quadrature, "_jacobi_pair", _zero_step_pair)
    monkeypatch.setattr(quadrature, "_jacobi_matrix", lambda m, a: ([0.25, 0.25], [0.0]))
    with pytest.raises(RootFindingError, match="not strictly increasing"):
        nodes(2, 1)


def test_nodes_reject_a_nan_newton_correction(monkeypatch):
    # the NaN sits at the last node, where a max() over the steps would
    # pass it over and leave it to the range check
    calls = []

    def nan_last(m, alpha, beta, t):
        calls.append(t)
        p, q = _zero_step_pair(m, alpha, beta, t)
        return (math.nan if len(calls) == m else p), q

    monkeypatch.setattr(quadrature, "_jacobi_pair", nan_last)
    with pytest.raises(RootFindingError, match="^Newton correction nan above tolerance at node 4 for n=5, k=2$"):
        nodes(5, 2)


def test_nodes_report_eigenvalues_that_do_not_converge(monkeypatch):
    # with no QL sweep allowed, a matrix past 2 x 2 runs out of its budget;
    # dsterf allows 30 sweeps a row, and the rules with n <= 30 use 2.1
    monkeypatch.setattr(jacobi, "_SWEEPS_PER_ROW", 0)
    assert jacobi._jacobi_eigenvalues(*_jacobi_matrix(5, 3)) is None
    assert len(nodes(2, 1)) == 2  # one 2 x 2 block needs no sweep
    with pytest.raises(RootFindingError, match="^eigenvalues did not converge for n=5, k=2$"):
        nodes(5, 2)


def _derivative_step_nodes(n, k):
    """nodes(n, k) with the Newton step P_m / (2 P_m') taken from jacobi_eval and jacobi_derivative_eval."""
    m, a = n - k + 1, 2 * k - 1
    t = np.array(_jacobi_eigenvalues(*_jacobi_matrix(m, a)))
    x = np.sort((1.0 - t) / 2.0)
    t = 1.0 - 2.0 * x
    return x + jacobi_eval(m, a, 0, t) / (2.0 * jacobi_derivative_eval(m, a, 0, t))


@pytest.mark.parametrize("n,k", [(100, 1), (100, 50), (200, 1), (200, 100), (400, 1), (400, 200), (400, 400)])
def test_nodes_keep_the_bits_of_the_derivative_step(n, k):
    # the step takes P_m' from P_m and P_{m-1} of one recurrence pass; the
    # nodes keep the bits of the step through the shifted-parameter derivative
    assert np.array(nodes(n, k)).tobytes() == _derivative_step_nodes(n, k).tobytes()


# The rule pins below depend on CPython's float arithmetic (IEEE +, -, *, /
# and sqrt) and on libm's pow, which forms x^{2k} in the weights. glibc's
# pow is not correctly rounded: at 5 of the 4,960 weight mantissas with
# n <= 30, mant ** (2k) differs from the correctly rounded power, so these
# pins hold for glibc's pow and another libm may move those weights. No
# LAPACK or numpy routine reaches a node or a weight.
RULE_STREAM_SHA256 = "8d48f0b438ea277611eca3e0a5346fd847909eb37fd3178a5786bc10b27920b8"


def test_rule_stream_is_pinned():
    # every rule with n <= 30, as rule_to_json writes it
    stream = "".join(rule_to_json(build_rule(n, k)) + "\n" for n in range(1, 31) for k in range(1, n + 1))
    assert hashlib.sha256(stream.encode()).hexdigest() == RULE_STREAM_SHA256


def test_large_rules_are_pinned():
    # the n <= 30 stream above never takes the weight kernel's sum past its
    # rescaling band; (100, 50), (200, 100) and (400, 200) here rescale it
    # 21, 112 and 511 times
    cases = [(100, 1), (100, 50), (200, 1), (200, 100), (400, 1), (400, 200), (400, 400)]
    stream = "".join(rule_to_json(build_rule(n, k)) + "\n" for n, k in cases)
    digest = hashlib.sha256(stream.encode()).hexdigest()
    assert digest == "07dbb963da08a1977e23acaa739ee1bce5d29cc57669eaee35671049f87b8334"


def test_weights_known_values():
    assert weights(1, 1, [2.0 / 3.0]) == pytest.approx([0.75], abs=1e-15)
    # single-term closed form at k = n: w = 1/((2n+1) x^(2n)) at x = 2n/(2n+1)
    for n in range(1, 11):
        x = 2 * n / (2 * n + 1)
        want = 1.0 / ((2 * n + 1) * x ** (2 * n))
        assert weights(n, n, [x]) == pytest.approx([want], rel=1e-13)
    assert build_rule(3, 3).weights[0] == pytest.approx(16807 / 46656, rel=1e-13)


def test_weights_reject_outside_nodes():
    with pytest.raises(ValueError):
        weights(2, 1, [0.5, 1.0])
    with pytest.raises(ValueError):
        weights(2, 1, [0.0])
    # the message names the first point outside (0, 1)
    with pytest.raises(ValueError, match="node nan outside"):
        weights(2, 1, [0.5, math.nan])
    with pytest.raises(ValueError, match="node inf outside"):
        weights(2, 1, [math.inf])
    with pytest.raises(ValueError, match="node -inf outside"):
        weights(2, 1, [0.5, -math.inf, 2.0])
    for kind in (list, tuple, np.array):
        for bad in (math.nan, math.inf, -math.inf, 0.0, 1.0):
            with pytest.raises(ValueError, match=f"node {bad} outside"):
                weights(3, 1, kind([0.25, bad, 0.5, 2.0]))
    # node kinds: each node is taken by itself, with no numpy call. A real
    # number becomes its float, and a node that is not one raises TypeError
    # naming its type; numpy's own cast would parse strings and drop an
    # imaginary part with only a warning
    for good, same in [
        ([Fraction(1, 3), Fraction(3, 5)], [1 / 3, 0.6]),
        (np.array([0.3, 0.6], dtype=np.float32), [float(np.float32(0.3)), float(np.float32(0.6))]),
        ([0.3, Fraction(3, 5)], [0.3, 0.6]),
        ((x for x in [0.3, 0.6]), [0.3, 0.6]),
        (iter((0.3, Fraction(3, 5))), [0.3, 0.6]),
        ([np.float64(0.3), np.int64(1) / 2], [0.3, 0.5]),
    ]:
        assert weights(3, 1, good) == weights(3, 1, same), good
    for bad, message in [
        ([0.5, "half"], "nodes must be real numbers, got str"),
        (["0.3", "0.6"], "nodes must be real numbers, got str"),
        (np.array(["0.3", "0.6"]), "nodes must be real numbers, got str_"),
        (np.array([0.3 + 0.5j, 0.6]), "nodes must be real numbers, got complex128"),
        ([0.3 + 0.5j, 0.6], "nodes must be real numbers, got complex"),
        (np.array([0.3, 0.5j], dtype=object), "nodes must be real numbers, got complex"),
        ([np.array([0.3])], "nodes must be real numbers, got ndarray"),
        (np.array([[0.3, 0.6]]), "nodes must be real numbers, got ndarray"),
        (np.array(0.5), "iteration over a 0-d array"),
        (np.float64(0.5), "'numpy.float64' object is not iterable"),
        (0.5, "'float' object is not iterable"),
    ]:
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            weights(3, 1, bad)
    # the ValueError names the node as the caller gave it, from any iterable
    for bad, shown in [
        ([0.3, Fraction(3, 2)], "3/2"),
        ((x for x in [0.3, 2.0]), "2.0"),
        (iter([0.3, 0]), "0"),
        ([True], "True"),
        (np.array([0.3, np.inf], dtype=np.float32), "inf"),
    ]:
        with pytest.raises(ValueError, match=f"^node {re.escape(shown)} outside the open interval \\(0,1\\)$"):
            weights(3, 1, bad)


def test_weights_beyond_the_double_range_are_inf():
    # 1 / (5 x^4) at x = 1e-300 is about 2e1199: math.ldexp raises there,
    # and the weight comes back as inf with no warning (pytest turns a
    # RuntimeWarning into an error)
    assert weights(2, 2, [1e-300]) == (math.inf,)
    assert weights(2, 2, np.array([1e-300, 0.5]))[0] == math.inf
    # the denominator itself overflows the same way: 5 x^4 at x = 1e100
    den = family(2).weight_denominator(2, 1e100)
    assert type(den) is float and den == math.inf


def test_build_rule_rejects_nonfinite_weight(monkeypatch):
    def infinite(n, k, xs):
        return tuple(math.inf for _ in xs)

    monkeypatch.setattr(quadrature, "weights", infinite)
    with pytest.raises(RootFindingError):
        build_rule(3, 1)


def _exact_weight(n: int, k: int, x: float) -> Fraction:
    # 1 / sum_{l=k}^{n} (2l+1) P_nl(x)^2 at the exact rational value of x
    return 1 / exact_kernel_sums(n, x, k)[0]


def _relative_error(got: float, exact: Fraction) -> float:
    return float(abs(Fraction(got) - exact) / exact)


def test_weights_match_exact_kernel_at_nodes():
    # measured worst 1.4e-14, at (40, 1)
    cases = [(n, k) for n in range(1, 17) for k in range(1, n + 1)]
    cases += [(40, k) for k in (1, 2, 20, 40)]
    for n, k in cases:
        rule = build_rule(n, k)
        for x, w in zip(rule.nodes, rule.weights):
            assert _relative_error(w, _exact_weight(n, k, x)) <= 2.5e-14, (n, k, x)


def test_weights_match_exact_kernel_away_from_nodes():
    # weights() is the reciprocal kernel at any point of (0, 1), not only at
    # the nodes; within 1e-6 of either end the recurrence loses more digits,
    # measured worst 4.3e-14 at (40, 1, 1e-6), where the member-by-member
    # sum it replaces reached 2.8e-14
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 40)
        k = rng.randint(1, n)
        x = rng.random()
        (w,) = weights(n, k, [x])
        assert _relative_error(w, _exact_weight(n, k, x)) <= 1e-14, (n, k, x)
    ends = [1e-12, 1e-8, 1e-6, 1.0 - 1e-6]
    for k in (1, 2, 6, 40):
        for x in ends:
            exact = _exact_weight(40, k, x)
            if exact < Fraction(10) ** 300:
                (w,) = weights(40, k, [x])
                assert _relative_error(w, exact) <= 5e-14, (k, x)


def test_golden_rules():
    for (n, k), (xs, ws) in GOLDEN_RULES.items():
        rule = build_rule(n, k)
        assert rule.nodes == pytest.approx(xs, abs=1e-13)
        assert rule.weights == pytest.approx(ws, abs=1e-13)


def test_weights_match_moment_system_2_1():
    # the 2-node case: w1 x1 + w2 x2 = 1/2 and w1 x1^2 + w2 x2^2 = 1/3
    rule = build_rule(2, 1)
    x1, x2 = rule.nodes
    w1, w2 = rule.weights
    assert w1 * x1 + w2 * x2 == pytest.approx(0.5, abs=1e-12)
    assert w1 * x1**2 + w2 * x2**2 == pytest.approx(1.0 / 3.0, abs=1e-12)
    A = np.array([[x1, x2], [x1**2, x2**2]])
    ref = np.linalg.solve(A, np.array([0.5, 1.0 / 3.0]))
    assert rule.weights == pytest.approx(list(ref), abs=1e-12)


def test_weights_satisfy_moment_system_sweep():
    # the weights must satisfy every moment equation sum_j w_j x_j^l = 1/(l+1)
    # of the window to 1e-12; with distinct nodes the system is nonsingular,
    # so this pins them as the unique moment solution (a float64 Vandermonde
    # solve is itself only ~1e-9 accurate at n = 10 and would test nothing)
    for n in range(1, 11):
        for k in range(1, n + 1):
            rule = build_rule(n, k)
            for i in range(len(rule.nodes)):
                l = 2 * k - 1 + i
                resid = math.fsum(w * x**l for x, w in zip(rule.nodes, rule.weights))
                assert abs(resid - 1.0 / (l + 1)) <= 1e-12, (n, k, l)


def test_rule_structure_sweep():
    for n in range(1, 13):
        for k in range(1, n + 1):
            rule = build_rule(n, k)
            assert len(rule.nodes) == n - k + 1
            assert all(0.0 < x < 1.0 for x in rule.nodes)
            assert all(a < b for a, b in zip(rule.nodes, rule.nodes[1:]))
            assert all(w > 0.0 for w in rule.weights)


def test_integrate_examples():
    r11 = build_rule(1, 1)
    assert integrate(r11, lambda x: x) == pytest.approx(0.5, abs=1e-15)
    assert integrate(r11, lambda x: x * x) == pytest.approx(1.0 / 3.0, abs=1e-15)
    # the k = 1 rule is not exact for constants
    assert integrate(r11, lambda x: 1.0) == pytest.approx(0.75, abs=1e-15)


def test_integrate_rejects_nonfinite_integrand():
    r11 = build_rule(1, 1)
    with pytest.raises(ValueError):
        integrate(r11, lambda x: float("inf"))


def test_exactness_report_rule_1_1():
    table = dict(exactness_report(build_rule(1, 1)))
    assert table[0] == pytest.approx(0.25, abs=1e-15)
    assert table[1] <= 1e-15
    assert table[2] <= 1e-15
    assert table[3] == pytest.approx(1.0 / 36.0, abs=1e-15)


def test_exactness_report_diagonal_rules():
    for n in range(1, 11):
        table = dict(exactness_report(build_rule(n, n)))
        assert table[2 * n - 1] <= 1e-13
        assert table[2 * n] <= 1e-13


def test_exactness_report_rule_2_1_constant_defect():
    table = dict(exactness_report(build_rule(2, 1)))
    # weights sum to 8/9, so the error for f = 1 is 1/9
    assert table[0] == pytest.approx(1.0 / 9.0, abs=1e-12)
    for l in range(1, 5):
        assert table[l] <= 1e-14


def test_exactness_window_sweep():
    for n in range(1, 11):
        for k in range(1, n + 1):
            table = dict(exactness_report(build_rule(n, k)))
            assert sorted(table) == list(range(2 * n + 2))
            for l in range(2 * k - 1, 2 * n + 1):
                assert table[l] <= 1e-12, (n, k, l)
            # just below the window the rule is never exact
            assert table[2 * k - 2] >= 1e-10, (n, k)
            assert table[2 * n + 1] > 0.0, (n, k)


def test_k1_rules_exact_on_zero_constant_polynomials():
    # every polynomial of degree <= 2n with zero constant term lies inside
    # the k = 1 window [1, 2n]
    rule = build_rule(4, 1)
    coeffs = [0.0, 3.0, 0.0, -2.0, 0.0, 0.0, 0.0, 1.0, 5.0]  # degree 8 = 2n

    def p(x):
        return sum(c * x**l for l, c in enumerate(coeffs))

    exact = sum(c / (l + 1) for l, c in enumerate(coeffs))
    assert integrate(rule, p) == pytest.approx(exact, abs=1e-12)


def test_large_n_rules_stay_structurally_sound():
    # monomial coefficients stop being exactly representable past n ~ 27;
    # the stable evaluation path must keep the rules valid through n = 30
    for n, k in [(28, 1), (30, 1), (30, 15), (30, 30)]:
        rule = build_rule(n, k)
        assert len(rule.nodes) == n - k + 1
        assert all(0.0 < x < 1.0 for x in rule.nodes)
        assert all(a < b for a, b in zip(rule.nodes, rule.nodes[1:]))
        assert all(w > 0.0 for w in rule.weights)
        table = dict(exactness_report(rule))
        for l in range(2 * k - 1, 2 * n + 1):
            assert table[l] <= 1e-9, (n, k, l)


def test_rules_past_n30_keep_structure_and_window():
    # window moments relative to 1/(l+1); measured worst 3.6e-14 to n = 100
    for n in (40, 60):
        for k in range(1, n + 1):
            rule = build_rule(n, k)
            assert len(rule.nodes) == n - k + 1
            assert all(0.0 < x < 1.0 for x in rule.nodes)
            assert all(a < b for a, b in zip(rule.nodes, rule.nodes[1:]))
            assert all(w > 0.0 for w in rule.weights)
            for l in range(2 * k - 1, 2 * n + 1):
                got = math.fsum(w * x**l for x, w in zip(rule.nodes, rule.weights))
                assert abs(got * (l + 1) - 1.0) <= 1e-12, (n, k, l)


def test_large_n_rules_keep_structure_and_window():
    # sampled window moments relative to 1/(l+1); measured worst 8.1e-14
    for n in (100, 200, 400):
        for k in (1, 2, n // 2, n - 1, n):
            rule = build_rule(n, k)
            assert len(rule.nodes) == n - k + 1
            assert all(0.0 < x < 1.0 for x in rule.nodes)
            assert all(a < b for a, b in zip(rule.nodes, rule.nodes[1:]))
            assert all(0.0 < w < math.inf for w in rule.weights)
            window = range(2 * k - 1, 2 * n + 1)
            for l in sorted({window[0], window[-1], *window[:: max(1, len(window) // 16)]}):
                got = math.fsum(w * x**l for x, w in zip(rule.nodes, rule.weights))
                assert abs(got * (l + 1) - 1.0) <= 2e-13, (n, k, l)


def _orthogonality_defect(n: int, k: int) -> float:
    # max |V V^T - I| for V_lj = sqrt((2l+1) w_j) P_nl(x_j), l = k..n: the
    # products P_nl P_nl' lie in the rule's window, so V is orthogonal
    rule = build_rule(n, k)
    xs, ws = np.array(rule.nodes), np.array(rule.weights)
    v = np.array([np.sqrt((2 * l + 1) * ws) * alp_eval(n, l, xs) for l in range(k, n + 1)])
    return float(np.abs(v @ v.T - np.eye(n - k + 1)).max())


def test_rules_are_orthogonal_transforms():
    # nodes, weights and the evaluators together. Measured worst 1.29e-14
    # over the 465 rules with n <= 30, at (28, 1); the bounds allow about 3x
    for n in range(1, 31):
        for k in range(1, n + 1):
            assert _orthogonality_defect(n, k) <= 4e-14, (n, k)


@pytest.mark.parametrize(
    "n, k, bound",
    # measured 3.4e-14, 1.1e-14, 3.8e-14 and 7.3e-14; the bounds allow about 3x
    [(100, 1, 1e-13), (100, 50, 4e-14), (200, 100, 1.2e-13), (400, 200, 2.5e-13)],
)
def test_large_rules_are_orthogonal_transforms(n, k, bound):
    assert _orthogonality_defect(n, k) <= bound


def test_weights_rescale_where_the_kernel_sum_overflows():
    # at (400, 200) and x = 1/16 the sum of q_i^2 passes the double range;
    # exact P_nl(x) = x^l P^{(2l+1,0)}_{n-l}(1-2x) gives the reference
    n, k, x = 400, 200, 0.0625
    y = Fraction(x)
    total = sum(
        (2 * l + 1) * (y**l * jacobi_shifted_coefficients(n - l, 2 * l + 1)(y)) ** 2
        for l in range(k, n + 1)
    )
    (w,) = weights(n, k, [x])
    assert _relative_error(w, 1 / total) <= 1e-14


def test_expand_in_alp_examples():
    # x^n expands as P_nn alone
    for n in (2, 5):
        cs = expand_in_alp(Polynomial.monomial(n), n, 0)
        assert cs[-1] == 1
        assert all(c == 0 for c in cs[:-1])
    assert expand_in_alp(alp_coefficients(2, 1), 2, 0) == [0, 1, 0]
    # 4x - 5x^2 + x^2 = P_21 + P_22
    assert expand_in_alp(Polynomial([0, 4, -4]), 2, 0) == [0, 1, 1]


def test_expand_in_alp_kmin_slice():
    cs = expand_in_alp(alp_coefficients(3, 2), 3, 2)
    assert cs == [1, 0]
    with pytest.raises(ValueError):
        expand_in_alp(Polynomial([1]), 3, 4)


def test_expand_in_alp_reconstructs_span_members():
    # any polynomial of degree <= n divisible by x^kmin is reproduced exactly
    p = (
        3 * alp_coefficients(4, 1)
        - 7 * alp_coefficients(4, 3)
        + alp_coefficients(4, 4)
    )
    cs = expand_in_alp(p, 4, 1)
    rebuilt = Polynomial()
    for c, k in zip(cs, range(1, 5)):
        rebuilt = rebuilt + c * alp_coefficients(4, k)
    assert rebuilt == p


def test_rule_json_roundtrip():
    rule = build_rule(2, 1)
    data = json.loads(rule_to_json(rule))
    assert data["n"] == 2 and data["k"] == 1
    assert tuple(data["nodes"]) == rule.nodes
    assert tuple(data["weights"]) == rule.weights


def test_rule_csv_layout():
    rule = build_rule(2, 1)
    lines = rule_to_csv(rule).splitlines()
    assert lines[0] == "j,node,weight"
    assert len(lines) == 3
    j, x, w = lines[1].split(",")
    assert j == "1"
    assert float(x) == rule.nodes[0]
    assert float(w) == rule.weights[0]


def test_rule_dataclass_immutable():
    rule = build_rule(1, 1)
    with pytest.raises(Exception):
        rule.n = 5
    assert rule == QuadratureRule(1, 1, rule.nodes, rule.weights)
