"""Limit-law oracles vs analytic values (uniform weights, threshold 1, unless
noted) and cross-checks with independent symbolic integration."""

import math

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from threshnet import dist, limits
from threshnet.errors import DegenerateConditioningError, DomainError
from law_ids import law_id

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


@pytest.mark.parametrize("law", LIMIT_CDF_KINDS, ids=law_id)
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
            law, lambda x, t=t: np.where(1.0 - law.cdf(theta - x) <= t, 1.0, 0.0)
        ) if t < 1.0 else 1.0
        assert limits.limit_degree_cdf(cfg, t) == pytest.approx(expected, abs=1e-8)


def test_edge_probability():
    assert limits.edge_probability(UNI) == pytest.approx(0.5, abs=1e-10)
    assert limits.edge_probability(limits.LimitConfig(dist.point_mass(0.7), 1.0)) == 1.0
    cfg = limits.LimitConfig(dist.two_point(0.2, 0.5, 0.9), 1.2)
    assert limits.edge_probability(cfg) == pytest.approx(0.25, abs=1e-12)


@pytest.mark.parametrize("rate, theta, rel", [(5.0, 4.0, 1e-13), (6.0, 5.0, 5e-9)])
def test_edge_probability_exponential_far_tail(rate, theta, rel):
    # P(X1 + X2 > theta) = e**(-rate theta) (1 + rate theta): the integrand
    # sf(theta - x) lies far below 1 - cdf's rounding floor for most x
    cfg = limits.LimitConfig(dist.exponential(rate), theta)
    exact = mpmath.exp(-rate * theta) * (1 + rate * theta)
    assert limits.edge_probability(cfg) == pytest.approx(float(exact), rel=rel, abs=0)


@pytest.mark.xfail(strict=True, reason=(
    "neither pass of expectation puts a node where sf(theta - x) > 0, which "
    "is x > 0.9999, so both agree on 0; see the FOUND item on "
    "edge_probability in CHANGES.md"))
def test_edge_probability_uniform_thin_corner():
    cfg = limits.LimitConfig(dist.uniform(0, 1), 1.9999)
    assert limits.edge_probability(cfg) == pytest.approx((2 - 1.9999) ** 2 / 2, rel=1e-9, abs=0)


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


@pytest.mark.parametrize("x", [-0.875, 1.5, 2.5, 3.0])
def test_conditional_triangle_probability_exp_far_tail(x):
    # exp:3 at theta = 3: exp(-2 rate (theta - x)) up to theta/2, then
    # exp(-rate theta) (1 + rate (2x - theta)) up to theta; the tails lie
    # below 1 - cdf's rounding floor
    rate, theta = 3, 3
    cfg = limits.LimitConfig(dist.exponential(rate), theta)
    x_ = mpmath.mpf(x)
    if x <= theta / 2:
        exact = mpmath.exp(-2 * rate * (theta - x_))
    else:
        exact = mpmath.exp(-rate * theta) * (1 + rate * (2 * x_ - theta))
    assert limits.conditional_triangle_probability(cfg, x) == pytest.approx(
        float(exact), rel=1e-14, abs=0)


ALL_KINDS = LIMIT_CDF_KINDS[:2] + [dist.pareto(1.0, 3.0)] + LIMIT_CDF_KINDS[3:]


@pytest.mark.parametrize("law", ALL_KINDS, ids=law_id)
@pytest.mark.parametrize("theta", [1.0, 1.4])
def test_conditional_triangle_probability_array_equals_scalar_map(law, theta):
    # below and above theta/2, on the atoms, outside the support
    cfg = limits.LimitConfig(law, theta)
    xs = np.array([[-1.0, 0.0, 0.1, 0.2, 0.5], [0.7, 0.9, 1.1, 1.3, 4.0]])
    values = limits.conditional_triangle_probability(cfg, xs)
    assert values.shape == xs.shape
    assert values.tolist() == [
        [limits.conditional_triangle_probability(cfg, float(x)) for x in row] for row in xs
    ]
    assert isinstance(limits.conditional_triangle_probability(cfg, 0.7), float)


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
    assert _kernel_variance(UNI) == pytest.approx(float(exact), abs=1e-6)


def _kernel_variance(cfg):
    return limits.triangle_kernel_variance(cfg, limits.triangle_probability(cfg))


# The law of the degree_pmf xfail: the kink of sf(theta - x) at x = 0 falls
# beside a panel edge of one of expectation's passes.
_KINK_CFG = limits.LimitConfig(dist.exponential(1.0321240099181628), 3.2297165924301696)


def _exp_triangle_oracles_exact(rate, theta):
    """F3 and zeta1 of exp(rate) at theta, from the conditional triangle
    probability h1: exp(-2 rate (theta - x)) up to theta/2, exp(-rate theta)
    (1 + rate (2x - theta)) up to theta, exp(-rate theta) (1 + rate theta)
    beyond."""
    with mpmath.workdps(40):
        r, t = mpmath.mpf(rate), mpmath.mpf(theta)

        def h1(x):
            if x <= t / 2:
                return mpmath.exp(-2 * r * (t - x))
            return mpmath.exp(-r * t) * (1 + r * (2 * x - t))

        beyond = mpmath.exp(-r * t)  # P(X > theta), where h1 is h1(theta)
        f3 = 4 * mpmath.exp(-3 * r * t / 2) - 3 * mpmath.exp(-2 * r * t)
        second = mpmath.quad(lambda x: r * mpmath.exp(-r * x) * h1(x) ** 2, [0, t / 2, t])
        second += beyond * h1(t) ** 2
        return float(f3), float(second - f3**2)


@pytest.mark.xfail(strict=True, reason=(
    "expectation certifies 0.023129470726542346, off by 4.4e-8 relative, at "
    "the law of the degree_pmf xfail; see the FOUND item on the triangle "
    "oracles in CHANGES.md"))
def test_triangle_probability_kink_beside_a_panel_edge():
    f3, _ = _exp_triangle_oracles_exact(*_KINK_CFG.dist.params, _KINK_CFG.theta)
    assert limits.triangle_probability(_KINK_CFG) == pytest.approx(f3, rel=1e-12, abs=0)


@pytest.mark.xfail(strict=True, reason=(
    "expectation certifies 0.001518644234063709, off by 1.8e-7 relative, at "
    "the law of the degree_pmf xfail; see the FOUND item on the triangle "
    "oracles in CHANGES.md"))
def test_triangle_kernel_variance_kink_beside_a_panel_edge():
    _, zeta1 = _exp_triangle_oracles_exact(*_KINK_CFG.dist.params, _KINK_CFG.theta)
    assert _kernel_variance(_KINK_CFG) == pytest.approx(zeta1, rel=1e-12, abs=0)


def test_triangle_kernel_variance_degenerate():
    assert _kernel_variance(limits.LimitConfig(dist.point_mass(0.7), 1.0)) <= 1e-8
    # threshold below every pairwise sum: kernel constant 1
    cfg = limits.LimitConfig(dist.uniform(0.6, 0.9), 1.0)
    assert _kernel_variance(cfg) <= 1e-8
    assert _kernel_variance(UNI) >= 0.0


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


def test_edge_conditioned_correlation_exponential_closed_form():
    # exp:1 at theta = 1: phi(a) = e**(a - 1) below 1, the edge probability
    # is 2/e, m1 = 1 - 1/(2e), m2 = 3/4 - 1/(4e**2) and m11 = 1.75/e.  The
    # inner integral must split where phi reaches 1 (u = F(theta - 0)).
    cov, corr = limits.edge_conditioned_correlation(
        limits.LimitConfig(dist.exponential(1.0), 1.0))
    e = mpmath.e
    m1 = 1 - 1 / (2 * e)
    exact_cov = mpmath.mpf(1.75) / e - m1**2
    exact_corr = exact_cov / (mpmath.mpf(3) / 4 - 1 / (4 * e**2) - m1**2)
    assert cov == pytest.approx(float(exact_cov), rel=1e-12, abs=0)
    assert corr == pytest.approx(float(exact_corr), rel=1e-12, abs=0)


# Parameters of each of the six weight-law constructors.
_LAW_STRATEGIES = {
    "uniform": st.tuples(st.floats(-2, 2), st.floats(0.05, 3)).map(
        lambda t: dist.uniform(t[0], t[0] + t[1])),
    "exponential": st.floats(0.1, 5).map(dist.exponential),
    "pareto": st.tuples(st.floats(0.2, 3), st.floats(0.3, 5)).map(
        lambda t: dist.pareto(*t)),
    "two_point": st.tuples(st.floats(-1, 2), st.floats(0.01, 0.99), st.floats(0.01, 2)).map(
        lambda t: dist.two_point(t[0], t[1], t[0] + t[2])),
    "discrete": st.lists(st.tuples(st.floats(-1, 3), st.integers(1, 9)), min_size=1,
                         max_size=5, unique_by=lambda atom: atom[0]).map(
        lambda atoms: dist.finite_discrete(
            [(x, w / sum(w for _, w in atoms)) for x, w in atoms])),
    "point": st.floats(-2, 2).map(dist.point_mass),
}
_THETAS = st.floats(-1, 4)


def _degree_pmf_sum_error(cfg: limits.LimitConfig, n: int) -> float:
    return abs(math.fsum(limits.degree_pmf(cfg, n, k) for k in range(n + 1)) - 1.0)


@pytest.mark.parametrize("kind", sorted(_LAW_STRATEGIES))
def test_degree_pmf_sums_to_one_property(kind):
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(_LAW_STRATEGIES[kind], _THETAS, st.integers(0, 20))
    def check(law, theta, n):
        assert _degree_pmf_sum_error(limits.LimitConfig(law, theta), n) <= 1e-12

    check()


@pytest.mark.xfail(strict=True, reason=(
    "expectation certifies a value off by ~1e-6 relative when the kink of "
    "sf(theta - x) at x = 0 falls beside a panel edge of one pass (k = 18 is "
    "off by -9.6e-7; the sum by -2.25e-9); see the FOUND item on "
    "dist.expectation in CHANGES.md"))
def test_degree_pmf_sums_to_one_kink_beside_a_panel_edge():
    cfg = limits.LimitConfig(dist.exponential(1.0321240099181628), 3.2297165924301696)
    assert _degree_pmf_sum_error(cfg, 20) <= 1e-12


@pytest.mark.parametrize("rate, theta, n", [(4.0, 3.0, 6), (5.0, 4.0, 1), (2.5, 2.5, 40)])
def test_degree_pmf_exponential_far_tail(rate, theta, n):
    # P(edge | x) = exp(-rate (theta - x)) lies far below 1e-5 for most x:
    # 1 - cdf loses it to rounding, and most of each pmf's mass sits near
    # x = theta, beyond the first quadrature nodes
    cfg = limits.LimitConfig(dist.exponential(rate), theta)
    r, t = mpmath.mpf(rate), mpmath.mpf(theta)
    for k in range(n + 1):
        def density(x):
            p = mpmath.exp(-r * (t - x))
            return mpmath.binomial(n, k) * p**k * (1 - p) ** (n - k) * r * mpmath.exp(-r * x)

        exact = mpmath.quad(density, [0, t / 2, t]) + (mpmath.exp(-r * t) if k == n else 0)
        assert limits.degree_pmf(cfg, n, k) == pytest.approx(float(exact), rel=1e-11)


@pytest.mark.parametrize("kind", sorted(_LAW_STRATEGIES))
def test_limit_degree_cdf_is_a_cdf_property(kind):
    ts = np.linspace(-0.1, 1.1, 61).tolist()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_LAW_STRATEGIES[kind], _THETAS)
    def check(law, theta):
        cfg = limits.LimitConfig(law, theta)
        values = [limits.limit_degree_cdf(cfg, t) for t in ts]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a <= b for a, b in zip(values, values[1:]))

    check()
