"""Limit-law oracles vs analytic values (uniform weights, threshold 1, unless
noted) and cross-checks with independent symbolic integration."""

import math

import mpmath
import numpy as np
import pytest
import sympy

from threshnet import dist, limits
from threshnet.errors import DegenerateConditioningError, DomainError

UNI = limits.LimitConfig(dist.uniform(0, 1), 1.0)


def test_degree_pmf_uniform_is_flat():
    # Beta integral: int C(n,k) x^k (1-x)^(n-k) dx = 1/(n+1)
    for k in range(5):
        assert limits.degree_pmf(UNI, 4, k) == pytest.approx(0.2, abs=1e-9)


def test_degree_pmf_point_mass():
    cfg = limits.LimitConfig(dist.point_mass(0.7), 1.0)
    assert limits.degree_pmf(cfg, 6, 6) == 1.0
    assert limits.degree_pmf(cfg, 6, 0) == 0.0
    cfg = limits.LimitConfig(dist.point_mass(0.4), 1.0)
    assert limits.degree_pmf(cfg, 6, 0) == 1.0


def test_degree_pmf_normalizes():
    for cfg in (UNI, limits.LimitConfig(dist.exponential(1.0), 1.0),
                limits.LimitConfig(dist.two_point(0.2, 0.5, 0.9), 1.0)):
        for n in (1, 5, 10, 50):
            total = math.fsum(limits.degree_pmf(cfg, n, k) for k in range(n + 1))
            assert total == pytest.approx(1.0, abs=1e-9)


def test_degree_pmf_domain():
    with pytest.raises(DomainError):
        limits.degree_pmf(UNI, 4, 5)


def test_limit_degree_cdf():
    assert limits.limit_degree_cdf(UNI, 0.5) == pytest.approx(0.5, abs=1e-8)
    assert limits.limit_degree_cdf(UNI, 1.0) == 1.0
    assert limits.limit_degree_cdf(UNI, -0.1) == 0.0
    cfg = limits.LimitConfig(dist.point_mass(0.7), 1.0)
    assert limits.limit_degree_cdf(cfg, 0.999) == 0.0


def test_limit_degree_cdf_is_valid_cdf():
    cfg = limits.LimitConfig(dist.exponential(1.0), 1.0)
    grid = np.linspace(0.0, 1.0, 100)
    vals = [limits.limit_degree_cdf(cfg, float(t)) for t in grid]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == 1.0


LIMIT_CDF_KINDS = [
    dist.uniform(0.0, 1.0),
    dist.exponential(1.0),
    dist.pareto(1.0, 1.0),
    dist.two_point(0.2, 0.5, 0.9),
    dist.finite_discrete([(0.1, 0.25), (0.5, 0.5), (1.1, 0.25)]),
    dist.point_mass(0.7),
]


@pytest.mark.parametrize("law", LIMIT_CDF_KINDS, ids=lambda d: d.kind)
@pytest.mark.parametrize("theta", [0.5, 1.0, 1.4])
def test_limit_degree_cdf_matches_indicator_definition(law, theta):
    # P(1 - F(theta - X) <= t) as an expectation of an indicator, on a grid,
    # at t = 0 and at every jump level of the discrete laws
    cfg = limits.LimitConfig(law, theta)
    ts = [float(t) for t in np.linspace(0.0, 1.0, 41)]
    if law.is_discrete:
        ts += [1.0 - law.cdf(theta - x) for x, _ in law.atoms()]
    for t in ts:
        expected = dist.expectation(
            law, lambda x, t=t: 1.0 if 1.0 - law.cdf(theta - x) <= t else 0.0
        ) if t < 1.0 else 1.0
        assert limits.limit_degree_cdf(cfg, t) == pytest.approx(expected, abs=1e-8)


def test_edge_probability():
    assert limits.edge_probability(UNI) == pytest.approx(0.5, abs=1e-10)
    assert limits.edge_probability(limits.LimitConfig(dist.point_mass(0.7), 1.0)) == 1.0
    cfg = limits.LimitConfig(dist.two_point(0.2, 0.5, 0.9), 1.2)
    assert limits.edge_probability(cfg) == pytest.approx(0.25, abs=1e-12)


def test_triangle_probability():
    assert limits.triangle_probability(UNI) == pytest.approx(0.25, abs=1e-6)
    assert limits.triangle_probability(limits.LimitConfig(dist.point_mass(0.7), 1.0)) == 1.0
    assert limits.triangle_probability(limits.LimitConfig(dist.point_mass(0.4), 1.0)) == 0.0


def test_conditional_triangle_probability():
    # x <= theta/2: square region, area x^2
    assert limits.conditional_triangle_probability(UNI, 0.25) == pytest.approx(0.0625, abs=1e-10)
    # x = 1: equals P(U2 + U3 > 1) = 1/2
    assert limits.conditional_triangle_probability(UNI, 1.0) == pytest.approx(0.5, abs=1e-8)
    # theta - x above the whole support: impossible
    assert limits.conditional_triangle_probability(UNI, -0.5) == 0.0
    # closed form x^2 - (2x-1)^2/2 above theta/2
    for x in (0.6, 0.75, 0.9):
        assert limits.conditional_triangle_probability(UNI, x) == pytest.approx(
            x * x - (2 * x - 1) ** 2 / 2, abs=1e-8
        )


def test_conditional_triangle_probability_exp_against_mpmath():
    # P(Y > low, Z > max(low, 1 - Y)) for Y, Z ~ Exp(1), with low = 1 - x
    cfg = limits.LimitConfig(dist.exponential(1.0), 1.0)

    def survival(y):
        return mpmath.exp(-max(y, 0))

    with mpmath.workdps(30):
        for x in (0.3, 0.5, 0.8, 1.0, 1.5, 3.0):
            low = 1 - mpmath.mpf(x)
            start = max(low, 0)
            cuts = sorted({start, max(start, 1 - low), max(start, mpmath.mpf(1))})
            exact = mpmath.quad(
                lambda y: mpmath.exp(-y) * survival(max(low, 1 - y)), cuts + [mpmath.inf]
            )
            value = limits.conditional_triangle_probability(cfg, x)
            assert value == pytest.approx(float(exact), rel=1e-10)


def test_conditional_consistency_with_triangle_probability():
    for cfg in (UNI, limits.LimitConfig(dist.exponential(1.0), 1.0),
                limits.LimitConfig(dist.two_point(0.2, 0.5, 0.9), 1.0)):
        integral = dist.expectation(
            cfg.dist, lambda x: limits.conditional_triangle_probability(cfg, x)
        )
        assert integral == pytest.approx(limits.triangle_probability(cfg), abs=1e-6)


def test_triangle_probability_monotone_in_theta():
    vals = [
        limits.triangle_probability(limits.LimitConfig(dist.uniform(0, 1), float(t)))
        for t in np.linspace(0.1, 1.9, 20)
    ]
    assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))


def test_triangle_kernel_variance_symbolic_oracle():
    # independent symbolic integration of the piecewise conditional mean
    x = sympy.symbols("x")
    h_low = x**2
    h_high = x**2 - (2 * x - 1) ** 2 / 2
    second = sympy.integrate(h_low**2, (x, 0, sympy.Rational(1, 2))) + sympy.integrate(
        h_high**2, (x, sympy.Rational(1, 2), 1)
    )
    first = sympy.integrate(h_low, (x, 0, sympy.Rational(1, 2))) + sympy.integrate(
        h_high, (x, sympy.Rational(1, 2), 1)
    )
    exact = second - first**2
    assert exact == sympy.Rational(1, 30)
    assert second == sympy.Rational(23, 240)
    assert limits.triangle_kernel_variance(UNI) == pytest.approx(float(exact), abs=1e-6)


def test_triangle_kernel_variance_degenerate():
    assert limits.triangle_kernel_variance(limits.LimitConfig(dist.point_mass(0.7), 1.0)) <= 1e-8
    # threshold below every pairwise sum: kernel constant 1
    cfg = limits.LimitConfig(dist.uniform(0.6, 0.9), 1.0)
    assert limits.triangle_kernel_variance(cfg) <= 1e-8
    assert limits.triangle_kernel_variance(UNI) >= 0.0


def test_edge_conditioned_correlation_uniform():
    cov, corr = limits.edge_conditioned_correlation(UNI)
    assert cov == pytest.approx(-1 / 36, abs=1e-7)
    assert corr == pytest.approx(-0.5, abs=1e-6)


def test_edge_conditioned_correlation_degenerate_marginals():
    cov, corr = limits.edge_conditioned_correlation(
        limits.LimitConfig(dist.point_mass(0.7), 1.0)
    )
    assert cov == 0.0 and corr == 0.0
    # two-group regime: conditioning forces both weights heavy
    cov, corr = limits.edge_conditioned_correlation(
        limits.LimitConfig(dist.two_point(0.2, 0.5, 0.9), 1.2)
    )
    assert cov == 0.0 and corr == 0.0


def test_edge_conditioned_correlation_no_edges():
    with pytest.raises(DegenerateConditioningError):
        limits.edge_conditioned_correlation(limits.LimitConfig(dist.point_mass(0.4), 1.0))


def test_quad_nodes_validation():
    with pytest.raises(DomainError):
        limits.LimitConfig(dist.uniform(0, 1), 1.0, quad_nodes=8)
