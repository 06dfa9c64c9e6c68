"""Weight-law unit tests: CDF/quantile contracts, sampling, expectations,
and the split-support check against a brute-force grid oracle."""

import math

import mpmath
import numpy as np
import pytest

from threshnet import dist
from threshnet.errors import DomainError, NumericError
from threshnet.stats import ks_statistic, make_stream

ALL_KINDS = [
    dist.uniform(0.0, 1.0),
    dist.exponential(1.0),
    dist.pareto(1.0, 1.0),
    dist.two_point(0.2, 0.5, 0.9),
    dist.finite_discrete([(0.1, 0.25), (0.5, 0.5), (1.1, 0.25)]),
    dist.point_mass(0.7),
]


def test_cdf_examples():
    assert dist.uniform(0, 1).cdf(0.3) == pytest.approx(0.3)
    assert dist.exponential(1.0).cdf(0.0) == 0.0
    assert dist.pareto(1.0, 1.0).cdf(2.0) == pytest.approx(0.5)


def test_quantile_examples():
    assert dist.uniform(0, 1).quantile(0.25) == pytest.approx(0.25)
    assert dist.exponential(1.0).quantile(1 - math.exp(-2)) == pytest.approx(2.0)
    assert dist.two_point(0.2, 0.5, 0.9).quantile(0.7) == 0.9


def test_quantile_domain_errors():
    for p in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(DomainError):
            dist.uniform(0, 1).quantile(p)


@pytest.mark.parametrize("d", ALL_KINDS, ids=lambda d: d.kind)
def test_generalized_inverse(d):
    rng = np.random.default_rng(2024)
    for p in rng.random(1000):
        if not 0.0 < p < 1.0:
            continue
        q = d.quantile(p)
        assert d.cdf(q) >= p - 1e-12
    # quantile(cdf(x)) <= x at points carrying mass
    if d.is_discrete:
        xs = [x for x, _ in d.atoms()]
    else:
        xs = [d.quantile(float(p)) for p in rng.random(200) if 0 < p < 1]
    for x in xs:
        c = d.cdf(x)
        if 0.0 < c < 1.0:
            assert d.quantile(c) <= x + 1e-12


def test_cdf_shape_on_grid():
    for d in ALL_KINDS:
        lo, hi = d.support()
        hi_eff = hi if math.isfinite(hi) else d.quantile(0.999) + 1.0
        grid = np.linspace(lo - 1.0, hi_eff + 1.0, 500)
        vals = d.cdf(grid)
        assert np.all(np.diff(vals) >= -1e-15)
        assert d.cdf(lo - 2.0) == 0.0
        if math.isfinite(hi):
            assert d.cdf(hi + 1.0) == 1.0


def test_sampling_point_mass_constant():
    s = make_stream(5)
    assert dist.point_mass(0.7).sample(s) == 0.7
    assert np.all(dist.point_mass(0.7).sample(s, 100) == 0.7)


def test_sampling_uniform_ks():
    x = dist.uniform(0, 1).sample(make_stream(3), 10**5)
    d = ks_statistic(x, lambda t: max(0.0, min(1.0, t)))
    assert d < 0.01  # KS critical value at n = 1e5 is ~0.0043 at 1%


def test_sampling_two_point_frequency():
    y = dist.two_point(0.2, 0.5, 0.9).sample(make_stream(4), 10**5)
    assert abs(float(np.mean(y == 0.2)) - 0.5) < 0.01


def test_sampling_determinism():
    a = dist.exponential(2.0).sample(make_stream(11), 1000)
    b = dist.exponential(2.0).sample(make_stream(11), 1000)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("d", ALL_KINDS, ids=lambda d: d.kind)
def test_expectation_normalization(d):
    assert dist.expectation(d, lambda x: 1.0) == pytest.approx(1.0, abs=1e-12)


def test_expectation_means():
    assert dist.expectation(dist.uniform(0, 1), lambda x: x) == pytest.approx(0.5, abs=1e-10)
    assert dist.expectation(dist.exponential(1.0), lambda x: x) == pytest.approx(1.0, abs=1e-8)


def test_expectation_nonfinite_integrand():
    with pytest.raises(NumericError):
        dist.expectation(dist.uniform(0, 1), lambda x: math.inf)


@pytest.mark.parametrize(
    "d", [dist.uniform(0, 1), dist.exponential(1.0), dist.pareto(1.0, 2.0)],
    ids=lambda d: d.kind,
)
def test_expectation_indicator_tail(d):
    # tail expectations must match 1 - cdf to quadrature accuracy
    ts = np.linspace(d.quantile(0.01), d.quantile(0.99), 100)
    for t in ts:
        val = dist.expectation(d, lambda x, t=t: 1.0 if x > t else 0.0)
        assert abs(val - (1.0 - d.cdf(float(t)))) < 1e-8


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "d, g, density, lower",
    [
        (dist.exponential(1.0), lambda x: x * x, lambda x: x**2 * mpmath.exp(-x), 0),
        (dist.exponential(2.0), lambda x: x**3, lambda x: 2 * x**3 * mpmath.exp(-2 * x), 0),
        (dist.pareto(1.0, 3.0), lambda x: x, lambda x: 3 * x**-3, 1),
    ],
    ids=["exp-x2", "exp2-x3", "pareto3-x"],
)
def test_expectation_finite_tail_moments(d, g, density, lower):
    # finite moments of unbounded laws: no node may round onto u = 1, where
    # the quantile is infinite
    exact = float(mpmath.quad(density, [lower, mpmath.inf]))
    assert dist.expectation(d, g) == pytest.approx(exact, rel=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_expectation_strong_tail_singularity():
    # E[X**2] under pareto(1, 4) integrates (1 - u)**-0.5: finite, but the
    # cell at u = 1 is accepted at width 1e-14 with its error unresolved, so
    # only ~1e-9 relative accuracy is reached
    assert dist.expectation(dist.pareto(1.0, 4.0), lambda x: x * x) == pytest.approx(
        2.0, rel=1e-8
    )


# ---------------------------------------------------------------------------
# array-valued quadrature


def test_quad_checked_values():
    assert dist.quad_checked(np.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-13)
    assert dist.quad_checked(lambda s: np.exp(-s), 1.0, math.inf) == pytest.approx(
        math.exp(-1.0), rel=1e-13
    )
    # a kink on a breakpoint, a constant integrand, an empty range
    assert dist.quad_checked(
        lambda s: np.abs(s - 0.3), 0.0, 1.0, points=[0.3, 2.0]
    ) == pytest.approx(0.29, rel=1e-13)
    assert dist.quad_checked(lambda s: 2.0, 1.0, 4.0) == pytest.approx(6.0, rel=1e-13)
    assert dist.quad_checked(np.sin, 2.0, 2.0) == 0.0


def test_quad_checked_nonfinite_integrand():
    with pytest.raises(NumericError, match="not finite"):
        dist.quad_checked(lambda s: np.where(s > 0.3, np.inf, 1.0), 0.0, 1.0)


def test_quad_checked_exhausted_budget():
    with pytest.raises(NumericError, match="budget"):
        dist.quad_checked(lambda s: np.sin(200.0 * s * s), 0.0, 10.0, limit=16)


def test_quad_checked_domain():
    with pytest.raises(DomainError):
        dist.quad_checked(np.sin, -math.inf, 0.0)
    with pytest.raises(DomainError):
        dist.quad_checked(np.sin, 1.0, 0.0)


# ---------------------------------------------------------------------------
# split-support check


def test_split_support_examples():
    holds, wit = dist.check_split_support(dist.uniform(0, 1), 1.0)
    assert holds
    u, v = wit
    assert u < 0.5 < v and u + v > 1.0
    assert dist.check_split_support(dist.two_point(0.2, 0.5, 0.9), 1.2) == (False, None)
    holds, wit = dist.check_split_support(dist.two_point(0.4, 0.5, 0.8), 1.0)
    assert holds and wit == (0.4, 0.8)


def _split_support_oracle(d, theta):
    """Brute-force scan over a fine support grid with epsilon mass probes."""
    lo, hi = d.support()
    hi_eff = hi if math.isfinite(hi) else d.quantile(1 - 1e-3)
    grid = list(np.linspace(lo, hi_eff, 4001))
    if d.is_discrete:
        grid = [x for x, _ in d.atoms()]

    def in_support(t):
        eps = 1e-9 * max(1.0, abs(t))
        return d.cdf(t + eps) - d.cdf(t - eps) > 0.0

    half = theta / 2.0
    us = [t for t in grid if t < half - 1e-9 and in_support(t)]
    vs = [t for t in grid if t > half + 1e-9 and in_support(t)]
    return any(u + v > theta + 1e-12 for u in us for v in vs[-1:]) if vs else False


@pytest.mark.parametrize("theta", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("d", ALL_KINDS, ids=lambda d: d.kind)
def test_split_support_matches_grid_oracle(d, theta):
    holds, wit = dist.check_split_support(d, theta)
    assert holds == _split_support_oracle(d, theta)
    if holds:
        u, v = wit
        assert u < theta / 2 < v and u + v > theta


# ---------------------------------------------------------------------------
# construction and parsing


def test_constructor_validation():
    with pytest.raises(DomainError):
        dist.uniform(1.0, 1.0)
    with pytest.raises(DomainError):
        dist.exponential(0.0)
    with pytest.raises(DomainError):
        dist.pareto(-1.0, 1.0)
    with pytest.raises(DomainError):
        dist.two_point(0.9, 0.5, 0.2)
    with pytest.raises(DomainError):
        dist.finite_discrete([(0.1, 0.6), (0.2, 0.5)])  # sums to 1.1
    with pytest.raises(DomainError):
        dist.finite_discrete([(0.1, 0.5), (0.1, 0.5)])  # duplicate atom


def test_parse_dist():
    assert dist.parse_dist("uniform:0,1") == dist.uniform(0, 1)
    assert dist.parse_dist("exp:2.5") == dist.exponential(2.5)
    assert dist.parse_dist("pareto:1,1.5") == dist.pareto(1, 1.5)
    assert dist.parse_dist("twopoint:0.2,0.5,0.9") == dist.two_point(0.2, 0.5, 0.9)
    assert dist.parse_dist("discrete:0.1:0.25,0.5:0.5,1.1:0.25") == ALL_KINDS[4]
    assert dist.parse_dist("point:0.7") == dist.point_mass(0.7)
    for bad in ("gauss:0,1", "uniform:1", "exp:", "uniform:0;1"):
        with pytest.raises(DomainError):
            dist.parse_dist(bad)
