"""Spatial model: intensity quadrature vs closed forms, thinning exactness,
mixture law, and the standardized-degree pipeline."""

import math

import mpmath
import numpy as np
import pytest

from threshnet import dist, spatial, stats
from threshnet.errors import CapacityError, DomainError, RegimeError
from threshnet.stats import make_stream

UNI = dist.uniform(0, 1)
CFG = spatial.SpatialConfig(d=2, beta=2.0, theta=1.0, lam=1.0, r=3.0)


def test_sphere_surface():
    assert spatial.sphere_surface(1) == pytest.approx(2.0)
    assert spatial.sphere_surface(2) == pytest.approx(2 * math.pi)
    assert spatial.sphere_surface(3) == pytest.approx(4 * math.pi)
    with pytest.raises(DomainError):
        spatial.sphere_surface(4)


def test_ball_volume():
    assert spatial.ball_volume(2, 3.0) == pytest.approx(math.pi * 9)
    assert spatial.ball_volume(3, 2.0) == pytest.approx(4 / 3 * math.pi * 8)
    assert spatial.ball_volume(1, 5.0) == pytest.approx(10.0)


def test_config_validation():
    with pytest.raises(DomainError):
        spatial.SpatialConfig(d=4, beta=1.0, theta=1.0, lam=1.0, r=1.0)
    with pytest.raises(DomainError):
        spatial.SpatialConfig(d=2, beta=1.0, theta=1.0, lam=0.0, r=1.0)


def test_radial_intensity_uniform_closed_form():
    # piecewise integral gives (2x+1)/4 once r covers the cutoff sqrt(1+x)
    for x in np.linspace(0.0, 1.0, 11):
        val = spatial.radial_intensity(CFG, UNI, float(x))
        assert val == pytest.approx((2 * x + 1) / 4, abs=1e-8)


def test_radial_intensity_cutoff_is_exact():
    # beyond the cutoff radius the integral equals its r -> inf limit
    at_r = spatial.radial_intensity(CFG, UNI, 0.5, 3.0)
    at_inf = spatial.radial_intensity(CFG, UNI, 0.5, math.inf)
    assert at_r == pytest.approx(at_inf, abs=1e-10)


def test_radial_intensity_monotone_in_r():
    vals = [spatial.radial_intensity(CFG, UNI, 0.5, r) for r in (0.5, 1.0, 1.3, 2.0, 5.0)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_radial_intensity_zero_when_unreachable():
    # theta * s^beta - x stays above the support everywhere
    assert spatial.radial_intensity(CFG, UNI, -5.0) == 0.0


def test_radial_intensity_pareto_growth():
    # heavy tail: C_r(x)/r approaches 1 (the centering sequence scale)
    par = dist.pareto(1.0, 1.0)
    cfg = spatial.SpatialConfig(d=2, beta=1.0, theta=1.0, lam=1.0, r=1.0)
    ratios = [spatial.radial_intensity(cfg, par, 2.0, r) / r for r in (1e2, 1e3, 1e4, 1e5)]
    assert all(abs(q - 1.0) > abs(w - 1.0) for q, w in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(1.0, rel=1e-3)


@pytest.mark.parametrize(
    "law, d, beta, survival, lower",
    [
        (dist.exponential(1.0), 2, 2.0, lambda y: mpmath.exp(-y), 0.0),
        (dist.pareto(1.0, 3.0), 1, 1.0, lambda y: y**-3, 1.0),
    ],
    ids=["exp-d2-beta2", "pareto3-d1-beta1"],
)
def test_radial_intensity_limit_against_mpmath(law, d, beta, survival, lower):
    # C_inf(x) = int_0^inf s**(d-1) P(X > s**beta - x) ds at theta = 1; the
    # survival factor is 1 below the flat radius (lower + x)**(1/beta)
    cfg = spatial.SpatialConfig(d=d, beta=beta, theta=1.0, lam=1.0, r=1.0)
    with mpmath.workdps(30):
        for x in (-0.5, 0.0, 0.5, 2.0):
            flat = mpmath.mpf(max(lower + x, 0.0)) ** (1 / mpmath.mpf(beta))
            exact = flat**d / d + mpmath.quad(
                lambda s: s ** (d - 1) * survival(s**beta - x), [flat, flat + 1, mpmath.inf]
            )
            value = spatial.radial_intensity(cfg, law, x, math.inf)
            assert value == pytest.approx(float(exact), rel=1e-10)


def test_direct_sampler_trivial_regimes():
    s = make_stream(1)
    assert spatial.sample_origin_degree_direct(CFG, UNI, 0.5, s,
                                               point_cap=1e6) >= 0
    # no connection possible: constant distance penalty far above any sum
    hard = spatial.SpatialConfig(d=2, beta=0.0, theta=100.0, lam=1.0, r=3.0)
    assert all(
        spatial.sample_origin_degree_direct(hard, UNI, None, make_stream(2, i)) == 0
        for i in range(50)
    )
    # every point connects: degree is the full Poisson count
    easy = spatial.SpatialConfig(d=2, beta=2.0, theta=-10.0, lam=1.0, r=3.0)
    draws = [
        spatial.sample_origin_degree_direct(easy, UNI, None, make_stream(3, i))
        for i in range(1000)
    ]
    ev = math.pi * 9
    se = math.sqrt(ev / 1000)
    assert abs(np.mean(draws) - ev) < 3 * se


def test_direct_sampler_capacity():
    big = spatial.SpatialConfig(d=3, beta=1.0, theta=1.0, lam=1.0, r=1e4)
    with pytest.raises(CapacityError):
        spatial.sample_origin_degree_direct(big, UNI, None, make_stream(4))


@pytest.mark.parametrize(
    "cfg, x0",
    [
        (spatial.SpatialConfig(d=2, beta=2.0, theta=1.0, lam=1.0, r=3.0), 0.5),
        (spatial.SpatialConfig(d=1, beta=1.0, theta=0.8, lam=2.0, r=2.0), 0.3),
        (spatial.SpatialConfig(d=3, beta=1.5, theta=1.2, lam=3.0, r=1.5), 0.6),
    ],
)
def test_thinning_exactness_chi_square(cfg, x0):
    # conditional on the origin weight, direct simulation must be Poisson
    # with the quadrature rate
    rate = spatial.origin_degree_rate(cfg, UNI, x0)
    draws = np.array([
        spatial.sample_origin_degree_direct(cfg, UNI, x0, make_stream(41, i))
        for i in range(5000)
    ])
    kmax = max(int(draws.max()), stats.poisson_tail_cutoff(rate, 1e-12))
    probs = [stats.poisson_pmf(rate, k) for k in range(kmax + 1)]
    probs.append(max(0.0, 1.0 - math.fsum(probs)))
    observed = np.bincount(draws, minlength=kmax + 2).astype(float)
    _, _, pvalue = stats.chi_square_gof(observed.tolist(), probs)
    assert pvalue > 0.01


def test_direct_vs_mixture_two_sample_ks():
    params = {"dist": "uniform:0,1", "theta": 1.0, "d": 2, "beta": 2.0,
              "lam": 1.0, "r": 3.0, "x0": 0.5, "mode": "direct"}
    direct = stats.run_replicates("spatial", params, 5000, 41).samples
    params_m = dict(params, mode="mixture")
    mixture = stats.run_replicates("spatial", params_m, 5000, 42).samples
    assert stats.ks_two_sample(direct, mixture) < 0.04


def test_mixture_pmf_pure_poisson():
    # degenerate weight law with lam * c_d * C = 1: plain Poisson(1)
    c = 1.0 / (2 * math.pi)
    pm = dist.point_mass(c)
    cfg = spatial.SpatialConfig(d=2, beta=2.0, theta=1.0, lam=1.0, r=5.0)
    assert spatial.radial_intensity(cfg, pm, c, math.inf) == pytest.approx(c, abs=1e-12)
    assert spatial.origin_degree_pmf(cfg, pm, 0) == pytest.approx(math.exp(-1), abs=1e-10)


def test_mixture_pmf_normalizes():
    kmax = stats.poisson_tail_cutoff(2 * math.pi * 0.75, 1e-10) + 5
    total = math.fsum(spatial.origin_degree_pmf(CFG, UNI, k) for k in range(kmax + 1))
    assert total >= 1.0 - 1e-8
    assert total <= 1.0 + 1e-8


def test_mixture_pmf_mean_identity():
    kmax = 60
    mean = math.fsum(k * spatial.origin_degree_pmf(CFG, UNI, k) for k in range(kmax))
    assert mean == pytest.approx(math.pi, abs=1e-6)


def test_mixture_unconditional_mean():
    params = {"dist": "uniform:0,1", "theta": 1.0, "d": 2, "beta": 2.0,
              "lam": 1.0, "r": 3.0, "mode": "mixture"}
    rep = stats.run_replicates("spatial", params, 3000, 43)
    expected = CFG.lam * spatial.sphere_surface(2) * dist.expectation(
        UNI, lambda x: spatial.radial_intensity(CFG, UNI, x)
    )
    assert expected == pytest.approx(math.pi, abs=1e-8)
    assert abs(rep.mean - expected) < 3 * rep.stderr


def test_mixture_pmf_regime_errors():
    par = dist.pareto(1.0, 1.0)
    cfg = spatial.SpatialConfig(d=2, beta=1.0, theta=1.0, lam=1.0, r=10.0)
    with pytest.raises(RegimeError):  # E[X^(d/beta)] = E[X^2] infinite
        spatial.origin_degree_pmf(cfg, par, 0)
    neg = spatial.SpatialConfig(d=2, beta=2.0, theta=-1.0, lam=1.0, r=10.0)
    with pytest.raises(RegimeError):
        spatial.origin_degree_pmf(neg, UNI, 0)


def test_standardized_pipeline_pure_poisson_clt():
    # deterministic Poisson parameter: the classical CLT must show through
    params = {"dist": "point:0.5", "theta": -1.0, "d": 2, "beta": 2.0,
              "lam": 1.0, "r": 100.0, "Cr": 5000.0}
    rep = stats.run_replicates("clt", params, 1000, 45)
    assert stats.ks_statistic(rep.samples, stats.normal_cdf) < 0.06
    assert abs(rep.mean) < 0.15
    assert 0.85 < rep.variance < 1.15


def test_mixture_sampler_zero_rate():
    # origin weight so low that no radius can connect: rate 0, degree 0
    assert spatial.radial_intensity(CFG, UNI, -5.0) == 0.0
    assert all(
        spatial.sample_origin_degree_mixture(CFG, UNI, -5.0, make_stream(6, i)) == 0
        for i in range(20)
    )


def test_standardized_centering_validation():
    with pytest.raises(DomainError):
        spatial.standardized_origin_degree(CFG, UNI, 0.0, make_stream(1))
