import math
import random
from fractions import Fraction as F

import pytest

from ehrenfest.exact import Jet, expm1_rational, lambda_to_u
from ehrenfest.model import ModelParams
from ehrenfest.resolvent import (
    _centered_at_zero,
    binomial_increment_mean,
    centered_kernel,
    centered_kernel_derivative,
    centered_kernel_jet,
    kernel_coefficients,
    kernel_increments,
    kernel_row,
    kernel_series,
    kernel_sums,
    overlap_increment_distribution,
    resolvent_kernel,
    resolvent_kernel_quadrature,
    series_identity_checks,
)

import reference


def test_kernel_small_values():
    # two-term sums, checkable by hand: 1/2 - 1/5 and 1/2 + 2/5
    p = ModelParams(3, 1)
    assert resolvent_kernel(p, 0, 1) == F(3, 10)
    assert resolvent_kernel(p, 1, 1) == F(9, 10)


def test_kernel_rejects_nonpositive_argument():
    p = ModelParams(3, 2)
    with pytest.raises(ValueError):
        resolvent_kernel(p, 0, 0)
    with pytest.raises(ValueError):
        resolvent_kernel(p, 0, F(-1, 2))
    with pytest.raises(ValueError):
        resolvent_kernel(p, 3, 1)


@pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (4, 3), (2, 5)])
def test_pole_dominates_near_zero(n, m):
    # u*(n-1)*kernel -> 1 as u -> 0: the i=j=0 term is the only pole
    p = ModelParams(n, m)
    u = F(1, 10**9)
    for k in range(m + 1):
        value = u * (n - 1) * resolvent_kernel(p, k, u)
        assert abs(value - 1) < F(1, 10**5)


def test_centered_kernel_values_at_zero():
    p = ModelParams(3, 2)
    assert centered_kernel(p, 0) == F(-1, 2)
    assert centered_kernel(p, 2) == F(2)
    assert centered_kernel(p, 1) == 0  # zero-overlap value plus 1/balls


def test_derivative_values():
    p = ModelParams(3, 1)
    assert centered_kernel_derivative(p, 0, 1) == F(2, 9)
    assert centered_kernel_derivative(p, 1, 1) == F(-4, 9)
    with pytest.raises(ValueError):
        centered_kernel_derivative(p, 0, 0)


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (4, 4)])
def test_derivative_difference_closed_form(n, m):
    # first-derivative gap between the overlap extremes has a double-sum closed form
    p = ModelParams(n, m)
    gap = centered_kernel_derivative(p, 0, 1) - centered_kernel_derivative(p, m, 1)
    closed = F(n - 1, n**2) * sum(
        F(1, i) * sum(F(n**j, j) for j in range(1, i + 1)) for i in range(1, m + 1)
    )
    assert gap == closed


def test_kernel_increments_values():
    t22 = kernel_increments(ModelParams(2, 2))
    assert (t22.zero_overlap, t22.full_overlap) == (F(-3, 4), F(5, 4))
    assert t22.increments == (F(1, 2), F(3, 2))
    t32 = kernel_increments(ModelParams(3, 2))
    assert (t32.zero_overlap, t32.full_overlap) == (F(-1, 2), F(2))
    assert t32.increments == (F(1, 2), F(2))


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("m", range(1, 9))
def test_increments_telescope_and_match_kernel(n, m):
    p = ModelParams(n, m)
    table = kernel_increments(p)
    assert table.zero_overlap + sum(table.increments) == table.full_overlap
    assert table.zero_overlap == centered_kernel(p, 0)
    assert table.full_overlap == centered_kernel(p, m)
    for k in range(m):
        assert centered_kernel(p, k + 1) - centered_kernel(p, k) == table.increments[k]
    assert table.increments[0] == F(1, m)


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (4, 3), (5, 4)])
def test_kernel_monotone_in_overlap(n, m):
    p = ModelParams(n, m)
    for u in (F(1, 2), F(1), F(2)):
        values = [resolvent_kernel(p, k, u) for k in range(m + 1)]
        assert all(a < b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (4, 3)])
def test_kernel_difference_limit_is_increment(n, m):
    p = ModelParams(n, m)
    table = kernel_increments(p)
    u = F(1, 10**9)
    for k in range(m):
        diff = resolvent_kernel(p, k + 1, u) - resolvent_kernel(p, k, u)
        assert abs(diff - table.increments[k]) <= table.increments[k] * F(1, 10**6)


# --- coefficient collapse against the double sum ---------------------------


def _double_sum(n, m, k):
    """The kernel's defining double sum, as (i + j, weight) pairs."""
    for i in range(k + 1):
        for j in range(m - k + 1):
            yield i + j, math.comb(k, i) * (n - 1) ** i * math.comb(m - k, j) * (-1) ** j


def _reference_kernel(n, m, k, u, centered=False):
    return sum(
        (F(w) / (n * t + u * (n - 1)) for t, w in _double_sum(n, m, k) if t or not centered),
        F(0),
    )


def _reference_derivative(n, m, k, order):
    total = sum((F(w, (n * t) ** (order + 1)) for t, w in _double_sum(n, m, k) if t), F(0))
    return (-1) ** order * math.factorial(order) * (n - 1) ** order * total


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("m", range(1, 9))
def test_kernel_coefficients_match_double_sum(n, m):
    p = ModelParams(n, m)
    for k in range(m + 1):
        expected = [0] * (m + 1)
        for t, w in _double_sum(n, m, k):
            expected[t] += w
        coeffs = kernel_coefficients(p, k)
        assert coeffs == tuple(expected)
        # the polynomial at x = 1 is n**k * 0**(m-k)
        assert sum(coeffs) == (n**m if k == m else 0)
    with pytest.raises(ValueError):
        kernel_coefficients(p, m + 1)


@pytest.mark.parametrize("n,m", [(2, 4), (3, 5), (4, 3), (2, 30), (3, 30)])
def test_kernels_equal_double_sum_exactly(n, m):
    p = ModelParams(n, m)
    # small and large plain rationals, and the u that laplace_lambda builds at lambda = 1/2
    us = (F(1, 7), F(5, 2), m * expm1_rational(F(1, 2), F(1, 10**26)))
    for k in range(m + 1):
        assert centered_kernel(p, k) == _reference_kernel(n, m, k, 0, centered=True)
        for u in us:
            assert resolvent_kernel(p, k, u) == _reference_kernel(n, m, k, u)
            assert resolvent_kernel(p, k, u) - 1 / (u * (n - 1)) == _reference_kernel(n, m, k, u, centered=True)
        for order in range(1, 5):
            assert centered_kernel_derivative(p, k, order) == _reference_derivative(n, m, k, order)


def test_kernel_row_folds_histograms():
    p = ModelParams(3, 4)
    assert kernel_row(p, [0, 0, 1, 0, 0]) == kernel_coefficients(p, 2)
    both = [a + 2 * b for a, b in zip(kernel_coefficients(p, 1), kernel_coefficients(p, 4))]
    assert kernel_row(p, [0, 1, 0, 0, 2]) == tuple(both)
    # a row with no term sums to zero over the empty product
    assert kernel_sums(p, [kernel_row(p, [0] * 5)], F(1, 2)) == ([0], 1)
    with pytest.raises(ValueError):
        kernel_sums(p, [kernel_row(p, [1, 0, 0, 0, 0])], 0)


def test_kernel_sums_equal_the_reference_sums_integer_for_integer():
    rng = random.Random(11)
    for _ in range(60):
        n, m = rng.randint(2, 9), rng.randint(1, 30)
        p = ModelParams(n, m)
        # random rows, some columns zero in every row, some rows zero throughout
        zero = set(rng.sample(range(m + 1), rng.randint(0, m)))
        rows = [
            [0 if t in zero or not live else rng.randint(-(10**40), 10**40) for t in range(m + 1)]
            for live in (rng.random() < 0.8 for _ in range(rng.randint(1, 3)))
        ]
        u = F(rng.randint(1, 10**12), rng.randint(1, 10**12))
        assert kernel_sums(p, rows, u) == reference.kernel_sums(p, rows, u)
    # a single nonzero column, and no row at all
    p = ModelParams(4, 6)
    rows = [[0, 0, 0, 5, 0, 0, 0], [0, 0, 0, -2, 0, 0, 0]]
    assert kernel_sums(p, rows, F(3, 7)) == reference.kernel_sums(p, rows, F(3, 7)) == ([35, -14], 93)
    assert kernel_sums(p, [], F(1, 2)) == reference.kernel_sums(p, [], F(1, 2)) == ([], 1)


def test_kernel_sums_equal_the_reference_sums_at_a_thousand_digits():
    # the rows of a singleton at M=200 at the u a 1000-digit lambda sample is taken at
    p = ModelParams(100_000, 200)
    rows = [kernel_row(p, [1] + [0] * 200), kernel_row(p, [0] * 200 + [1])]
    u = lambda_to_u(200, 0.5, 1000)
    assert kernel_sums(p, rows, u) == reference.kernel_sums(p, rows, u)


@pytest.mark.parametrize("n,m", [(2, 1), (2, 5), (3, 4), (5, 3), (4, 7)])
def test_kernel_series_expands_each_side_in_w(n, m):
    p = ModelParams(n, m)
    order, big = 6, m * (n - 1)
    pad = (0,) * (order - 1)
    rows = [kernel_coefficients(p, k) for k in range(m + 1)] + [kernel_row(p, [3] + [0] * (m - 1) + [5])]
    coeffs, scale = kernel_series(p, rows, order)
    assert scale == n * math.lcm(*range(1, m + 1))
    for row, got in zip(rows, coeffs):
        # a_0 + sum_t a_t * D*w / (urns*t + mu_t*w), one jet quotient per term
        terms = (Jet((0, a * big) + pad) / Jet((n * t, big - n * t) + pad) for t, a in enumerate(row) if t and a)
        want = sum(terms, Jet.constant(row[0], order))
        assert [F(c, scale**j) for j, c in enumerate(got)] == list(want.coeffs)


def test_derivatives_match_jet_coefficients():
    p = ModelParams(3, 2)
    jet = centered_kernel_jet(p, 1, 4)
    assert jet.coeffs[0] == centered_kernel(p, 1)
    for m in range(1, 5):
        assert jet.coeffs[m] * math.factorial(m) == centered_kernel_derivative(p, 1, m)


# --- series identities -----------------------------------------------------


def test_series_identities_zero():
    assert series_identity_checks(ModelParams(3, 4), 0)


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("m", range(1, 9))
def test_series_identities_at_n_minus_one(n, m):
    assert series_identity_checks(ModelParams(n, m), n - 1)


@pytest.mark.parametrize("m", range(1, 9))
def test_series_identities_alternating(m):
    p = ModelParams(3, m)
    assert series_identity_checks(p, -1)
    lhs = sum(F(math.comb(m, i) * (-1) ** i, i) for i in range(1, m + 1))
    assert lhs == -sum(F(1, i) for i in range(1, m + 1))


# --- quadrature ------------------------------------------------------------


@pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (4, 3)])
def test_quadrature_matches_exact_sum(n, m):
    p = ModelParams(n, m)
    for k in range(m + 1):
        for u in (F(1, 4), F(1), F(4)):
            approx = resolvent_kernel_quadrature(p, k, float(u))
            assert abs(approx - float(resolvent_kernel(p, k, u))) < 1e-8


def test_quadrature_specific_values():
    p = ModelParams(3, 1)
    assert abs(resolvent_kernel_quadrature(p, 0, 1.0) - 0.3) < 1e-8
    assert abs(resolvent_kernel_quadrature(p, 1, 1.0) - 0.9) < 1e-8
    p23 = ModelParams(2, 3)
    assert abs(
        resolvent_kernel_quadrature(p23, 2, 0.5) - float(resolvent_kernel(p23, 2, F(1, 2)))
    ) < 1e-8


def test_quadrature_rejects_nonpositive():
    with pytest.raises(ValueError):
        resolvent_kernel_quadrature(ModelParams(3, 2), 0, 0.0)


@pytest.mark.parametrize("k", [-1, 3])
def test_quadrature_rejects_an_overlap_outside_the_range(k):
    with pytest.raises(ValueError, match=f"overlap {k} outside 0..2"):
        resolvent_kernel_quadrature(ModelParams(3, 2), k, 1.0)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("m", range(1, 9))
def test_tanh_sinh_rule_agrees_with_scipy_and_the_exact_kernel(n, m):
    """u = 1/8, 1/4, 2/3 give a = (n-1)u/n < 1 with 1/a not an integer; u = 3/2, 4,
    10 give a >= 1 with a - 1 not an integer.  scipy's reference integrates the
    s**(a-1) weight by its own algebraic-singularity rule (QAWS), not by v = s**a."""
    from scipy import integrate

    p = ModelParams(n, m)
    for k in range(m + 1):
        for u in (F(1, 8), F(1, 4), F(2, 3), F(1), F(3, 2), F(4), F(10)):
            exact = float(resolvent_kernel(p, k, u))
            tol = 1e-12 * max(1.0, abs(exact))
            a = (n - 1) * float(u) / n
            reference, _ = integrate.quad(
                lambda s: ((n - 1) * s + 1.0) ** k * (1.0 - s) ** (m - k), 0.0, 1.0,
                weight="alg", wvar=(a - 1.0, 0.0), epsabs=tol / 10, epsrel=1e-13, limit=200,
            )
            value = resolvent_kernel_quadrature(p, k, float(u), tol=tol)
            assert abs(value - exact) <= tol, (k, u)
            assert abs(value - reference / n) <= tol, (k, u)


@pytest.mark.parametrize("u", [0.25, 1.0, 4.0])
def test_quadrature_names_an_estimate_it_cannot_meet(u):
    with pytest.raises(RuntimeError, match=r"quadrature error estimate \d\.\d{3}e-\d+ above tolerance 1\.000e-300"):
        resolvent_kernel_quadrature(ModelParams(3, 2), 1, u, tol=1e-300)


# --- binomially averaged increments ----------------------------------------


def test_increment_mean_degenerate_cases():
    p = ModelParams(5, 4)
    assert binomial_increment_mean(p, 0) == F(1, 4)  # increment 0->1 is 1/balls
    p2 = ModelParams(2, 5)
    table = kernel_increments(p2)
    for m in range(5):
        # with 2 urns the binomial overlap is deterministic, equal to m
        assert binomial_increment_mean(p2, m) == table.increments[m]


@pytest.mark.parametrize("n,m", [(3, 3), (4, 5), (6, 8)])
def test_increment_mean_matches_enumeration(n, m):
    p = ModelParams(n, m)
    table = kernel_increments(p)
    for mm in range(m):
        direct = sum(
            (prob * table.increments[j] for j, prob in overlap_increment_distribution(p, mm)),
            F(0),
        )
        assert binomial_increment_mean(p, mm) == direct


def test_increment_mean_range_check():
    with pytest.raises(ValueError):
        binomial_increment_mean(ModelParams(3, 2), 2)


# --- the integer sums against their Fraction references ----------------------


@pytest.mark.parametrize("n", range(2, 9))
def test_closed_forms_equal_the_fraction_references(n):
    for m in range(1, 16):
        p = ModelParams(n, m)
        assert kernel_increments(p) == reference.kernel_increments(p)
        for j in range(m):
            assert binomial_increment_mean(p, j) == reference.binomial_increment_mean(p, j)
        for j in range(m + 1):
            assert overlap_increment_distribution(p, j) == reference.overlap_increment_distribution(p, j)
        for a in (0, n - 1, -1, F(2, 3), F(-5, 7)):
            assert series_identity_checks(p, a) is reference.series_identity_checks(p, a) is True


@pytest.mark.parametrize("n", range(2, 9))
def test_centered_kernels_equal_the_fraction_references(n):
    for m in range(1, 25):
        p = ModelParams(n, m)
        for k in range(m + 1):
            assert _centered_at_zero(p, k) == reference._centered_at_zero(p, k)
            for order in (1, 2, 5):
                assert centered_kernel_derivative(p, k, order) == reference.centered_kernel_derivative(p, k, order)
