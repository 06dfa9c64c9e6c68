"""Spatial model: intensity quadrature vs closed forms, thinning exactness,
mixture law, and the standardized-degree pipeline."""

import math

import mpmath
import numpy as np
import pytest

from threshnet import dist, spatial, stats
from threshnet.errors import CapacityError, DomainError, NumericError, RegimeError
from threshnet.stats import make_stream
from law_ids import law_id

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


RADIAL_KINDS = [
    UNI,
    dist.exponential(1.0),
    dist.pareto(1.0, 3.0),
    dist.two_point(0.2, 0.5, 0.9),
    dist.finite_discrete([(0.1, 0.25), (0.5, 0.5), (1.1, 0.25)]),
    dist.point_mass(0.7),
]


@pytest.mark.parametrize("law", RADIAL_KINDS, ids=law_id)
@pytest.mark.parametrize(
    "cfg, r",
    [
        (CFG, None),
        (spatial.SpatialConfig(d=1, beta=1.0, theta=1.2, lam=1.0, r=3.0), math.inf),
        (spatial.SpatialConfig(d=3, beta=0.5, theta=0.8, lam=1.0, r=2.0), None),
    ],
    ids=["d2-r3", "d1-rinf", "d3-r2"],
)
def test_radial_intensity_array_equals_scalar_map(law, cfg, r):
    # unreachable, flat-only, cut-off and unbounded rows in one batch
    xs = np.array([[-3.0, -0.3, 0.0, 0.2], [0.5, 0.9, 1.5, 2.5]])
    values = spatial.radial_intensity(cfg, law, xs, r)
    assert values.shape == xs.shape
    assert values.tolist() == [
        [spatial.radial_intensity(cfg, law, float(x), r) for x in row] for row in xs
    ]


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


def _mp_survival(law, y):
    """P(X > y) in mpmath arithmetic."""
    if law.kind == "uniform":
        a, b = law.params
        return min(max((b - y) / (b - a), 0), 1)
    if law.kind == "exponential":
        return mpmath.exp(-law.params[0] * y) if y > 0 else 1
    if law.kind == "pareto":
        c, alpha = law.params
        return c * y**-alpha if y > c ** (1 / alpha) else 1
    return sum(p for a, p in law.atoms() if a > y)


@pytest.mark.parametrize("law", RADIAL_KINDS, ids=law_id)
def test_radial_intensity_finite_r_against_mpmath(law):
    # the radial integral itself, cut where theta * s**beta - x meets the
    # support ends or an atom: psi's increasing, decreasing and constant
    # thresholds all agree with it
    d, r = 3, 2.0
    lo, hi = law.support()
    ends = [lo, hi] + ([a for a, _ in law.atoms()] if law.is_discrete else [])
    with mpmath.workdps(20):
        for theta in (-0.5, 0.0, 0.8):
            for beta in (0.0, 0.5, 2.0):
                cfg = spatial.SpatialConfig(d=d, beta=beta, theta=theta, lam=1.0, r=r)
                for x in (-1.3, -0.2, 0.3, 1.7):
                    cuts = {0.0, r}
                    for end in ends:
                        q = (end + x) / theta if theta * beta != 0.0 else -1.0
                        if q > 0.0 and 0.0 < q ** (1 / beta) < r:
                            cuts.add(q ** (1 / beta))
                    exact = mpmath.quad(
                        lambda s: s ** (d - 1) * _mp_survival(law, theta * s**beta - x),
                        sorted(cuts),
                    )
                    value = spatial.radial_intensity(cfg, law, x)
                    assert value == pytest.approx(float(exact), rel=1e-10, abs=1e-13)


def test_radial_intensity_limit_exact_value():
    # C_inf(0) = E[X**6] / (3 * 0.8**6) = 720 / (3 * 0.8**6) under exp:1
    cfg = spatial.SpatialConfig(d=3, beta=0.5, theta=0.8, lam=1.0, r=1.0)
    value = spatial.radial_intensity(cfg, dist.exponential(1.0), 0.0, math.inf)
    assert value == pytest.approx(915.52734375, rel=1e-13)


@pytest.mark.parametrize("alpha, d, beta", [(3.0, 2, 1.0), (3.0, 3, 1.5), (1.2, 1, 1.0)])
def test_radial_intensity_limit_pareto_heavy_tail(alpha, d, beta):
    # C_inf(x) = E[(x + X)_+**k] / (theta**k d) with k = d / beta close to
    # alpha, so psi grows like v**(-k / alpha) in the upper-tail level v; for
    # integer k it is a binomial sum of E[X**j; X > t] = alpha t**(j - alpha)
    # / (alpha - j) at t = max(1, -x)
    law = dist.pareto(1.0, alpha)
    cfg = spatial.SpatialConfig(d=d, beta=beta, theta=0.8, lam=1.0, r=1.0)
    k = round(d / beta)
    for x in (-1.3, 0.0, 0.3, 1.7):
        t = max(1.0, -x)
        exact = math.fsum(math.comb(k, j) * x ** (k - j) * alpha * t ** (j - alpha) / (alpha - j)
                          for j in range(k + 1)) / (0.8**k * d)
        value = spatial.radial_intensity(cfg, law, x, math.inf)
        assert value == pytest.approx(exact, rel=1e-12)


def test_origin_degree_pmf_far_count():
    # a count near the mean of the stretched-exponential configuration: the
    # mixed Poisson of C_inf(x) = 720 / (3 * 0.8**6) * sum_{i<=6} x**i / i!
    # under exp:1
    cfg = spatial.SpatialConfig(d=3, beta=0.5, theta=0.8, lam=1.0, r=1.0)
    k = 12000
    with mpmath.workdps(30):
        scale = 4 * mpmath.pi * 240 / mpmath.mpf("0.8") ** 6

        def mean(x):
            return scale * sum(x**i / mpmath.factorial(i) for i in range(7))

        def density(x):
            m = mean(x)
            return mpmath.exp(-m + k * mpmath.log(m) - mpmath.loggamma(k + 1) - x)

        peak = mpmath.findroot(lambda x: mean(x) - k, 0.01)
        width = mpmath.sqrt(k) / mpmath.diff(mean, peak)
        cuts = [0] + [peak + j * width for j in range(-4, 31) if peak + j * width > 0]
        exact = mpmath.quad(density, cuts + [1, mpmath.inf])
    value = spatial.origin_degree_pmf(cfg, dist.exponential(1.0), k)
    assert value == pytest.approx(float(exact), rel=1e-9)


def test_direct_sampler_trivial_regimes():
    s = make_stream(1)
    assert spatial.sample_origin_degree_direct(CFG, UNI, 0.5, s) >= 0
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


def _direct_out_of_place(cfg, law, x0, stream):
    # the direct sampler as first written, one temporary per operation
    origin_weight = float(x0) if x0 is not None else law.sample(stream)
    count = int(stream.poisson(cfg.lam * spatial.ball_volume(cfg.d, cfg.r)))
    radii = cfg.r * stream.random(count) ** (1.0 / cfg.d)
    weights = law.sample(stream, count)
    return int(np.count_nonzero(origin_weight + weights > cfg.theta * radii**cfg.beta))


@pytest.mark.parametrize("x0", [None, 0.35])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_direct_sampler_in_place_equals_out_of_place(d, beta, x0):
    cfg = spatial.SpatialConfig(d=d, beta=beta, theta=1.0, lam=2.0, r=4.0)
    for law in (UNI, dist.exponential(1.0), dist.pareto(1.0, 3.0),
                dist.two_point(0.2, 0.5, 0.9)):
        fast, slow = make_stream(d * 31 + 7), make_stream(d * 31 + 7)
        for _ in range(3):
            assert spatial.sample_origin_degree_direct(cfg, law, x0, fast) == \
                _direct_out_of_place(cfg, law, x0, slow)


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


@pytest.mark.parametrize(
    "law, cfg, x, exact",
    [
        # C_inf(x) = (x + E[X]) / 2 at d = beta = 2, theta = 1, E[X] = 3/2
        (dist.pareto(1.0, 3.0), spatial.SpatialConfig(d=2, beta=2.0, theta=1.0, lam=1.0, r=1.0),
         0.2, 0.85),
        # C_inf(0) = int_0^inf s**2 exp(-0.8 s**0.5) ds = 240 / 0.8**6
        (dist.exponential(1.0), spatial.SpatialConfig(d=3, beta=0.5, theta=0.8, lam=1.0, r=1.0),
         0.0, 240 / 0.8**6),
    ],
    ids=["pareto3-d2-beta2", "exp-d3-beta0.5"],
)
def test_limiting_radial_intensity_long_tail(law, cfg, x, exact):
    # the tail rows of these integrals end in panels whose error estimates
    # are quadrature noise; they close at the error floor, so C_inf and the
    # mixed-Poisson pmf built on it are finite values, not NumericErrors
    assert spatial.radial_intensity(cfg, law, x, math.inf) == pytest.approx(exact, rel=1e-10)
    assert 0.0 <= spatial.origin_degree_pmf(cfg, law, 0) <= 1.0


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
    expected = spatial.mean_origin_degree(CFG, UNI)
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


@pytest.mark.parametrize("beta", [0.0, -1.0])
def test_divergent_limit_beta_is_a_regime_error(beta):
    cfg = spatial.SpatialConfig(d=2, beta=beta, theta=1.0, lam=1.0, r=math.inf)
    with pytest.raises(RegimeError, match="beta <= 0"):
        spatial.origin_degree_pmf(cfg, UNI, 0)
    with pytest.raises(RegimeError, match="beta <= 0"):
        spatial.radial_intensity(cfg, UNI, 0.5)
    with pytest.raises(RegimeError, match="beta <= 0"):
        spatial.radial_intensity(cfg, UNI, np.array([0.1, 0.5]))


def test_divergent_limit_moment_is_a_regime_error():
    # E[X**(d/beta)] = E[X**6] is infinite under pareto:1,1
    cfg = spatial.SpatialConfig(d=3, beta=0.5, theta=0.8, lam=1.0, r=math.inf)
    par = dist.pareto(1.0, 1.0)
    for x in (0.0, np.array([0.0, 2.0])):
        with pytest.raises(RegimeError, match=r"E\[\|X\|\*\*6\]"):
            spatial.radial_intensity(cfg, par, x)
    with pytest.raises(RegimeError, match=r"E\[\|X\|\*\*6\]"):
        spatial.mean_origin_degree(cfg, par)


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
    streams = (make_stream(6, i) for i in range(20))
    degrees = spatial.sample_origin_degree_mixture(CFG, UNI, -5.0, streams)
    assert degrees.shape == (20,) and (degrees == 0).all()


def test_standardized_centering_validation():
    with pytest.raises(DomainError):
        spatial.standardized_origin_degree(CFG, UNI, 0.0, [make_stream(1)])


def test_heavy_tail_quantile_overflow_names_the_law():
    # g = d / (beta alpha) = 1 / 1.01 gives tail power 101, whose levels leave
    # the floats at x = 1, the least weight; C_inf(1) = 1 + E[X] = 102 is finite
    cfg = spatial.SpatialConfig(d=1, beta=1.0, theta=1.0, lam=1.0, r=math.inf)
    with pytest.raises(NumericError, match=r"^pareto:1\.0,1\.01 quantile"):
        spatial.radial_intensity(cfg, dist.pareto(1.0, 1.01), 1.0)


@pytest.mark.parametrize("x0", [1e308, np.array([0.5, 1e308])])
def test_nan_origin_degree_rate_names_x0(x0):
    # x0 + X overflows in the closed form of C_r, whose true value is the ball
    with pytest.raises(NumericError, match=r"^the origin-degree rate at x0 = 1e\+308 is NaN$"):
        spatial.origin_degree_rate(CFG, UNI, x0)


def test_tiny_theta_reaches_the_whole_ball():
    # z / theta overflows at theta = 1e-320 and clips to r**beta
    cfg = spatial.SpatialConfig(d=2, beta=2.0, theta=1e-320, lam=1.0, r=3.0)
    assert spatial.radial_intensity(cfg, UNI, 0.5) == pytest.approx(4.5, rel=1e-15)
    assert spatial.radial_intensity(cfg, dist.exponential(1.0), 0.5) == pytest.approx(4.5)
