"""Limit-law oracles vs analytic values (uniform weights, threshold 1, unless
noted) and cross-checks with independent symbolic integration."""

import math
from fractions import Fraction

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
    beyond, each piece of E[h1**2] integrated in closed form."""
    with mpmath.workdps(40):
        r, t = mpmath.mpf(rate), mpmath.mpf(theta)
        f3 = 4 * mpmath.exp(-3 * r * t / 2) - 3 * mpmath.exp(-2 * r * t)
        light = mpmath.exp(-4 * r * t) * mpmath.expm1(3 * r * t / 2) / 3

        # u = rate (2x - theta): the integral of (1 + u)**2 exp(-u/2) du / 2 over [0, rate theta]
        def antiderivative(u):
            return -mpmath.exp(-u / 2) * ((1 + u) ** 2 + 4 * (1 + u) + 8)

        heavy = mpmath.exp(-5 * r * t / 2) * (antiderivative(r * t) - antiderivative(0))
        beyond = mpmath.exp(-3 * r * t) * (1 + r * t) ** 2
        return float(f3), float(light + heavy + beyond - f3**2)


def _exp_h1_exact(rate, theta, x):
    # the pieces of h1 in the docstring above
    with mpmath.workdps(40):
        r, t, x = mpmath.mpf(rate), mpmath.mpf(theta), mpmath.mpf(x)
        if x <= t / 2:
            return float(mpmath.exp(-2 * r * (t - x)))
        return float(mpmath.exp(-r * t) * (1 + r * (2 * min(x, t) - t)))


def test_triangle_probability_kink_beside_a_panel_edge():
    f3, _ = _exp_triangle_oracles_exact(*_KINK_CFG.dist.params, _KINK_CFG.theta)
    assert limits.triangle_probability(_KINK_CFG) == pytest.approx(f3, rel=1e-12, abs=0)


def test_triangle_kernel_variance_kink_beside_a_panel_edge():
    _, zeta1 = _exp_triangle_oracles_exact(*_KINK_CFG.dist.params, _KINK_CFG.theta)
    assert _kernel_variance(_KINK_CFG) == pytest.approx(zeta1, rel=1e-12, abs=0)


def _assert_triangle_oracles(cfg, xs, h1, f3, zeta1):
    # h1 on the weights xs, F3 and zeta1 against exact values, to 1e-12
    # relative, or equal to an exact 0
    values = limits.conditional_triangle_probability(cfg, np.array(xs, dtype=float))
    assert values.tolist() == pytest.approx(h1, rel=1e-12, abs=0)
    assert limits.triangle_probability(cfg) == pytest.approx(f3, rel=1e-12, abs=0)
    assert _kernel_variance(cfg) == pytest.approx(zeta1, rel=1e-12, abs=0)


@pytest.mark.parametrize("rate, theta", [(1.0, 1.0), (1.0, 1.4), (1.0, 40.0),
                                         tuple(_KINK_CFG.dist.params) + (_KINK_CFG.theta,),
                                         (5.0, 4.0), (5.0, 10.0), (8.0, 6.0)])
def test_triangle_oracles_exponential_closed_forms(rate, theta):
    # the light row never holds the kink at theta - inf = theta; rows that
    # did raised at theta = 40 and at x = 6.7 under exp:8, theta = 6
    cfg = limits.LimitConfig(dist.exponential(rate), theta)
    xs = [-0.5, 0.2 * theta, 0.5 * theta, 0.7 * theta, theta, 6.7, 3 * theta]
    _assert_triangle_oracles(cfg, xs, [_exp_h1_exact(rate, theta, x) for x in xs],
                             *_exp_triangle_oracles_exact(rate, theta))


def _pareto_triangle_oracles_exact(alpha, theta):
    """h1, F3 and zeta1 of pareto(1, alpha) at theta by mpmath, from the nested
    form: h1(x) = E[sf(theta - Y); theta - x < Y <= max(x, theta - x)]
    + sf(theta - x) sf(max(x, theta - x)), integrated against the law."""
    al, t = mpmath.mpf(alpha), mpmath.mpf(theta)

    def sf(u):
        return 1 if u <= 1 else u**-al

    def density(u):
        return al * u ** (-al - 1)

    def h1(x):
        x = mpmath.mpf(x)
        low, high = max(t - x, 1), max(x, t - x)
        if high <= low:
            return sf(t - x) * sf(high)
        cuts = sorted({low, min(max(t - 1, low), high), high})
        return (mpmath.quad(lambda y: sf(t - y) * density(y), cuts)
                + sf(t - x) * sf(high))

    cuts = [1, t / 2, t - 1, mpmath.inf]
    f3 = mpmath.quad(lambda x: h1(x) * density(x), cuts)
    second = mpmath.quad(lambda x: h1(x) ** 2 * density(x), cuts)
    return h1, float(f3), float(second - f3**2)


@pytest.mark.parametrize("alpha", [3.0, 1.5])
def test_triangle_oracles_pareto_against_mpmath(alpha):
    cfg = limits.LimitConfig(dist.pareto(1.0, alpha), 2.5)
    xs = [0.5, 1.1, 1.25, 1.3, 1.6, 2.0, 5.0]
    with mpmath.workdps(20):
        h1, f3, zeta1 = _pareto_triangle_oracles_exact(alpha, 2.5)
        _assert_triangle_oracles(cfg, xs, [float(h1(x)) for x in xs], f3, zeta1)


def _atom_oracles_exact(law, theta, xs, n=6):
    """Every oracle of an atom law as an exact sum over the atoms, adjacency
    taken from the float sum rule x + y > theta itself: h1 on xs, F3, zeta1
    and E[h1**2], the edge probability alpha, the degree pmf among n + 1
    vertices, the limit degree law's atoms, and the edge-conditioned
    covariance, variance and m2 = E[phi(A)**2 | edge] (absent without edges)."""
    atoms = [(x, Fraction(p)) for x, p in law.atoms()]
    phi = {x: sum((q for y, q in atoms if x + y > theta), Fraction(0)) for x, _ in atoms}

    def h1(x):
        return sum((p * q for y, p in atoms for z, q in atoms
                    if x + y > theta and x + z > theta and y + z > theta), Fraction(0))

    f3 = sum((p * h1(x) for x, p in atoms), Fraction(0))
    second = sum((p * h1(x) ** 2 for x, p in atoms), Fraction(0))
    alpha = sum((p * phi[x] for x, p in atoms), Fraction(0))
    exact = {"h1": [float(h1(x)) for x in xs], "f3": f3, "zeta1": second - f3**2,
             "second": second, "alpha": alpha, "phi": [(phi[x], p) for x, p in atoms],
             "pmf": [sum((p * math.comb(n, k) * phi[x] ** k * (1 - phi[x]) ** (n - k)
                          for x, p in atoms), Fraction(0)) for k in range(n + 1)]}
    if alpha:
        m1, m2 = (sum((p * phi[x] ** j for x, p in atoms), Fraction(0)) / alpha for j in (2, 3))
        m11 = sum((p * q * phi[x] * phi[y] for x, p in atoms for y, q in atoms
                   if x + y > theta), Fraction(0)) / alpha
        exact.update(cov=m11 - m1**2, var=m2 - m1**2, m2=m2)
    return exact


def _assert_atom_oracles(law, theta, cancel=0.0):
    """Every oracle of an atom law against the brute force, to 1e-12
    relative.  zeta1 and the covariance are differences of terms of the size
    of E[h1**2] and m2; with ``cancel`` they may also miss by that share of
    those terms, and the correlation by that share over the variance."""
    cfg = limits.LimitConfig(law, theta)
    xs = sorted({x for x, _ in law.atoms()} | {0.0, theta / 2, theta, 2 * theta})
    exact = _atom_oracles_exact(law, theta, xs)

    def close(exact_value, size=0):
        return pytest.approx(float(exact_value), rel=1e-12, abs=cancel * float(size))

    values = limits.conditional_triangle_probability(cfg, np.array(xs, dtype=float))
    assert values.tolist() == pytest.approx(exact["h1"], rel=1e-12, abs=0)
    f3 = limits.triangle_probability(cfg)
    assert f3 == close(exact["f3"])
    assert limits.triangle_kernel_variance(cfg, f3) == close(exact["zeta1"], exact["second"])
    assert limits.edge_probability(cfg) == close(exact["alpha"])
    pmf = [limits.degree_pmf(cfg, len(exact["pmf"]) - 1, k) for k in range(len(exact["pmf"]))]
    assert pmf == pytest.approx([float(v) for v in exact["pmf"]], rel=1e-12, abs=0)
    # the limit degree CDF at 0 and between its jump levels phi(atom)
    levels = sorted({0.0} | {float(v) for v, _ in exact["phi"]})
    for t in [0.0] + [(lo + hi) / 2 for lo, hi in zip(levels, levels[1:])]:
        mass = sum((p for v, p in exact["phi"] if v <= t), Fraction(0))
        assert limits.limit_degree_cdf(cfg, t) == close(mass)
    if not exact["alpha"]:
        with pytest.raises(DegenerateConditioningError):
            limits.edge_conditioned_correlation(cfg)
        return
    cov, corr = limits.edge_conditioned_correlation(cfg)
    assert cov == close(exact["cov"], exact["m2"])
    if exact["var"]:
        assert corr == close(exact["cov"] / exact["var"], exact["m2"] / exact["var"])
    else:
        assert corr == 0.0


_TINY = 5e-324  # the least subnormal; multiples of it add exactly


@pytest.mark.parametrize("law, theta", [
    (dist.two_point(0.2, 0.5, 0.9), 1.0),
    (dist.two_point(0.2, 0.5, 0.9), 1.2),
    # an atom at theta/2 and a pair of atoms summing to theta, neither adjacent
    (dist.finite_discrete([(0.25, 0.25), (0.5, 0.5), (0.75, 0.25)]), 1.0),
    (dist.finite_discrete([(_TINY, 0.25), (2 * _TINY, 0.5), (3 * _TINY, 0.25)]), 4 * _TINY),
    # theta/2 rounds up onto the heavy atom 2 * _TINY
    (dist.finite_discrete([(_TINY, 0.5), (2 * _TINY, 0.5)]), 3 * _TINY),
    # 0.1 + 0.9 == 1.0 is no edge, but theta - 0.9 = 0.0999... lies below 0.1
    (dist.parse_dist("discrete:0.1:0.3,0.5:0.4,0.9:0.3"), 1.0),
    (dist.parse_dist("discrete:0.1:0.3,0.5:0.4,0.9:0.3"), 1.4),
    (dist.finite_discrete([(0.1, 0.25), (0.5, 0.25), (0.9, 0.25), (0.95, 0.25)]), 1.0),
    (dist.finite_discrete([(0.3, 7 / 28), (0.4, 2 / 28), (0.7, 7 / 28), (0.8, 7 / 28),
                           (0.85, 4 / 28), (0.9, 1 / 28)]), 0.7),
], ids=["twopoint-1", "twopoint-1.2", "three-atoms", "three-subnormal", "odd-subnormal",
        "rounding-1", "rounding-1.4", "four-rounding", "six-rounding"])
def test_triangle_oracles_atom_laws_against_brute_force(law, theta):
    _assert_atom_oracles(law, theta)


# Atom laws on a grid of step 0.05, where a pair sum can land on theta and
# round across it, as no atom drawn from st.floats does.
_GRID_ATOMS = st.lists(st.tuples(st.integers(-20, 40), st.integers(1, 9)), min_size=1,
                       max_size=6, unique_by=lambda atom: atom[0]).map(
    lambda atoms: dist.finite_discrete(
        [(0.05 * i, w / sum(w for _, w in atoms)) for i, w in atoms]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_atom_oracles_on_a_decimal_grid_against_brute_force(data):
    law = data.draw(_GRID_ATOMS)
    sums = sorted({x + y for x, _ in law.atoms() for y, _ in law.atoms()})
    _assert_atom_oracles(law, data.draw(st.sampled_from(sums)), cancel=1e-12)


def _uniform_triangle_oracles_exact(a, b, theta, xs):
    """h1 on xs, F3 and zeta1 of uniform(a, b) at theta in sympy rationals.
    h1(x) is the area of {y, z > theta - x, y + z > theta} in [a, b]**2 over
    (b - a)**2, exact by the trapezoid rule between the kinks of its linear
    pieces; h1 is quadratic between the weights a, b, theta/2, theta - a and
    theta - b, so Boole's rule integrates h1 and h1**2 exactly there."""
    a, b, t = (sympy.Rational(v) for v in (a, b, theta))

    def h1(x):
        low = max(a, t - x)
        if low >= b:
            return sympy.Integer(0)
        ys = sorted({low, b} | {y for y in (t - a, t - low, t - b) if low < y < b})

        def width(y):  # of the z with z > theta - x and y + z > theta, in [a, b]
            return max(0, b - max(a, t - x, t - y))

        area = sum((y1 - y0) * (width(y0) + width(y1)) / 2 for y0, y1 in zip(ys, ys[1:]))
        return area / (b - a) ** 2

    cuts = sorted({a, b} | {x for x in (t / 2, t - a, t - b) if a < x < b})
    first = second = sympy.Integer(0)
    for x0, x1 in zip(cuts, cuts[1:]):
        step = (x1 - x0) / 4
        values = [h1(x0 + j * step) for j in range(5)]
        scale = 2 * step / 45 / (b - a)  # Boole's weights against the density 1/(b - a)
        first += scale * sum(w * v for w, v in zip((7, 32, 12, 32, 7), values))
        second += scale * sum(w * v * v for w, v in zip((7, 32, 12, 32, 7), values))
    return [float(h1(sympy.Rational(x))) for x in xs], float(first), float(second - first**2)


@pytest.mark.parametrize("a, b, theta", [
    (0.5, 1.0, 0.75),   # theta < 2a: every pair adjacent
    (0.0, 1.0, 1.0),    # the generic case
    (0.0, 1.0, 1.25),
    (-1.0, 1.0, 0.5),
    (0.25, 1.0, 1.0),   # theta - b < a: a light weight above a is adjacent to b
    (0.5, 1.5, 1.5),
    (0.0, 1.0, 2.0),    # theta >= 2b: no edge
    (0.0, 1.0, 2.5),
])
def test_triangle_oracles_uniform_against_sympy(a, b, theta):
    xs = [a - 0.5, a, (a + b) / 2, theta / 2, 0.9 * b, b, b + 1]
    cfg = limits.LimitConfig(dist.uniform(a, b), theta)
    _assert_triangle_oracles(cfg, xs, *_uniform_triangle_oracles_exact(a, b, theta, xs))


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 1.0), (0.3, 1.0), (5.0, 7.0)])
def test_triangle_oracles_uniform_thin_corner(a, b):
    # 2 - theta/sup = 2e-k: the heavy weights are a sliver of tail level s,
    # F3 = 2 s**3 and zeta1 = 46 s**5/15 - 4 s**6; nested quadrature lost F3 from k = 4
    law = dist.uniform(a, b)
    for k in range(1, 17):
        cfg = limits.LimitConfig(law, b * (2 - 2 * 10.0**-k))
        s = law.sf(cfg.theta / 2)
        assert limits.triangle_probability(cfg) == pytest.approx(2 * s**3, rel=1e-12, abs=0)
        assert _kernel_variance(cfg) == pytest.approx(
            46 * s**5 / 15 - 4 * s**6, rel=1e-12, abs=0)


def test_triangle_oracles_pareto_beyond_the_float_quantiles():
    # the heavy weights lie at subnormal tail levels, where the pareto quantile
    # overflows a float; F3 and zeta1 round to 0
    cfg = limits.LimitConfig(dist.pareto(2.0, 1.05), 1e300)
    assert limits.triangle_probability(cfg) == 0.0
    assert _kernel_variance(cfg) == 0.0


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


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (5.0, 7.0), (-1.0, 1.0)])
def test_edge_oracles_uniform_thin_corner(a, b):
    # 2b - theta = 1e-k (b - a): the heavy weights are a sliver of tail level s,
    # alpha = 2 s**2, m1 = 4 s/3, m2 = 2 s**2 and m11 = 5 s**2/3, so cov = -s**2/9
    # and corr = -0.5; tail-level quadrature lost alpha near theta = 2b
    law = dist.uniform(a, b)
    for k in range(1, 16):
        cfg = limits.LimitConfig(law, 2 * b - 10.0**-k * (b - a))
        s = law.sf(cfg.theta / 2)
        assert limits.edge_probability(cfg) == pytest.approx(2 * s * s, rel=1e-12, abs=0)
        cov, corr = limits.edge_conditioned_correlation(cfg)
        assert cov == pytest.approx(-s * s / 9, rel=1e-12, abs=0)
        assert corr == pytest.approx(-0.5, rel=1e-12, abs=0)


def _exp_edge_oracles_exact(rate, theta):
    """alpha, cov and corr of exp(rate) at theta, T = rate theta: phi(a) =
    exp(-rate (theta - a)) below theta, so alpha = e**-T (1 + T), alpha m1 =
    2 e**-T - e**-2T, alpha m2 = (3 e**-T - e**-3T)/2 and alpha m11 =
    e**-2T (1 + 2T + T**2/2)."""
    with mpmath.workdps(40):
        t = mpmath.mpf(rate) * mpmath.mpf(theta)
        e = mpmath.exp(-t)
        alpha = e * (1 + t)
        m1, m2 = (2 * e - e**2) / alpha, (3 * e - e**3) / 2 / alpha
        cov = e**2 * (1 + 2 * t + t**2 / 2) / alpha - m1**2
        return float(alpha), float(cov), float(cov / (m2 - m1**2))


@pytest.mark.parametrize("rate, theta", [(1.0, 1.0), (1.0, 1.4), (5.0, 4.0), (8.0, 6.0),
                                         (1.0, 40.0)])
def test_edge_oracles_exponential_closed_forms(rate, theta):
    # exp:8 at theta = 6 and exp:1 at theta = 40 raised in nested quadrature
    cfg = limits.LimitConfig(dist.exponential(rate), theta)
    alpha, cov, corr = _exp_edge_oracles_exact(rate, theta)
    assert limits.edge_probability(cfg) == pytest.approx(alpha, rel=1e-12, abs=0)
    assert limits.edge_conditioned_correlation(cfg) == pytest.approx((cov, corr), rel=1e-12, abs=0)


def _pareto_edge_oracles_exact(alpha, theta):
    """alpha, cov and corr of pareto(1, alpha) at theta by mpmath, m11 from
    the nested form E[phi(A) E[phi(B); B > theta - A]] / alpha."""
    al, t = mpmath.mpf(alpha), mpmath.mpf(theta)

    def density(u):
        return al * u ** (-al - 1)

    def phi(a):
        return 1 if t - a <= 1 else (t - a) ** -al

    def mean(g, low=1):  # E[g(X); X > low]
        return mpmath.quad(lambda u: g(u) * density(u),
                           sorted({low, max(low, t - 1)}) + [mpmath.inf])

    edge = mean(phi)
    m1, m2 = (mean(lambda a, j=j: phi(a) ** j) / edge for j in (2, 3))
    cov = mean(lambda a: phi(a) * mean(phi, max(1, t - a))) / edge - m1**2
    return float(edge), float(cov), float(cov / (m2 - m1**2))


@pytest.mark.parametrize("alpha", [3.0, 1.5])
def test_edge_oracles_pareto_against_mpmath(alpha):
    cfg = limits.LimitConfig(dist.pareto(1.0, alpha), 2.5)
    with mpmath.workdps(20):
        edge, cov, corr = _pareto_edge_oracles_exact(alpha, 2.5)
    assert limits.edge_probability(cfg) == pytest.approx(edge, rel=1e-12, abs=0)
    assert limits.edge_conditioned_correlation(cfg) == pytest.approx((cov, corr), rel=1e-12, abs=0)


@pytest.mark.parametrize("alpha, theta", [(1.0, 1e300), (1.5, 1e100)])
def test_edge_oracles_pareto_far_threshold(alpha, theta):
    # an edge is a weight near theta and any other weight: alpha = 2 sf(theta)
    # to leading order, and given an edge phi is about 1 at one end and about
    # 0 at the other, so corr = -1; tail-level quadrature gave alpha = sf(theta)
    cfg = limits.LimitConfig(dist.pareto(1.0, alpha), theta)
    assert limits.edge_probability(cfg) == pytest.approx(
        2 * cfg.dist.sf(theta), rel=1e-12, abs=0)
    assert limits.edge_conditioned_correlation(cfg)[1] == pytest.approx(-1.0, rel=1e-12, abs=0)


@pytest.mark.parametrize("law", [dist.uniform(0.0, 1.0), dist.exponential(1.0),
                                 dist.pareto(1.0, 3.0), dist.two_point(0.2, 0.5, 0.9)],
                         ids=law_id)
def test_edge_oracles_need_no_expectation(law, monkeypatch):
    # the edge probability and the correlation are light rows alone
    cfg = limits.LimitConfig(law, 1.0)
    expected = limits.edge_probability(cfg), limits.edge_conditioned_correlation(cfg)

    def refuse(*args, **kwargs):
        raise AssertionError("expectation called")

    monkeypatch.setattr(limits, "expectation", refuse)
    assert (limits.edge_probability(cfg), limits.edge_conditioned_correlation(cfg)) == expected


# Parameters of each of the six weight-law constructors, and the atom grid.
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
    "grid": _GRID_ATOMS,
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
