"""Quadrature oracles for the closed-form limit laws of the threshold graph.

Everything here is an expectation against the weight law F at threshold
theta: the exact finite-n degree pmf, the limiting degree law, the edge and
triangle probabilities, the conditional triangle mean and its variance (the
CLT variance driver), and the edge-conditioned weight correlation that
witnesses asymptotic dependence.

The degree, edge and correlation oracles are certified passes of
:func:`~threshnet.dist.expectation`, the correlation's inner integrals rows
of :func:`~threshnet.dist.expect_rows`, the partial expectation
E[g(X); lo < X <= hi].  The triangle oracles take the light/heavy identity
to the limit: heavy weights (y + y > theta) form a clique and light ones an
independent set, so h1, F3 and zeta1 are light rows
E[sf(theta - Y)**p; lo < Y <= theta/2], closed form under a uniform law,
plus one heavy row for zeta1.  Both primitives sum atoms exactly and
integrate continuous laws in quantile space.  Tails are survival functions
``sf`` throughout, never ``1 - cdf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import WeightDistribution, expect_rows, expectation
from .errors import DegenerateConditioningError, DomainError


@dataclass(frozen=True)
class LimitConfig:
    """Weight law + threshold: the arguments every oracle shares."""

    dist: WeightDistribution
    theta: float


def degree_pmf(cfg: LimitConfig, n: int, k: int) -> float:
    """P(degree = k) among n+1 vertices: the exact binomial mixture.

    The binomial factor is evaluated in log space so large n cannot
    overflow, and the edge probability ``sf(theta - x)`` of a weight x is
    the survival function itself, so a far upper tail keeps its precision.
    """
    if not 0 <= k <= n:
        raise DomainError("need 0 <= k <= n")
    dist, theta = cfg.dist, cfg.theta
    log_binom = (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )

    def term(x):
        p = dist.sf(theta - x)
        inside = (p > 0.0) & (p < 1.0)
        q = np.where(inside, p, 0.5)
        mixed = np.exp(log_binom + k * np.log(q) + (n - k) * np.log1p(-q))
        edge = np.where(p <= 0.0, float(k == 0), float(k == n))
        return np.where(inside, mixed, edge)

    return expectation(dist, term)


def limit_degree_cdf(cfg: LimitConfig, t: float) -> float:
    """CDF of the limiting degree fraction 1 - F(theta - X) at t.

    For continuous kinds this is exactly ``F(theta - q(1 - t))`` with ``q``
    the quantile function, evaluated from t itself and taken as the upper
    support bound at t = 0.  Discrete kinds sum atoms exactly: there
    ``1 - t`` can round past a cumulative mass at the jump levels
    ``t = 1 - F(theta - atom)``.
    """
    if t < 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    dist, theta = cfg.dist, cfg.theta
    if dist.is_discrete:
        return expectation(dist, lambda x: np.where(dist.sf(theta - x) <= t, 1.0, 0.0))
    upper = dist.support()[1] if t == 0.0 else float(dist._isf(t))
    return dist.cdf(theta - upper)


def edge_probability(cfg: LimitConfig) -> float:
    """P(X1 + X2 > theta) for two independent weights."""
    dist, theta = cfg.dist, cfg.theta
    return expectation(dist, lambda a: dist.sf(theta - a))


def conditional_triangle_probability(cfg: LimitConfig, x):
    """P(two fresh weights both exceed theta - x and sum above theta).

    This is the conditional mean h1(x) of the triangle kernel given one
    weight; ``x`` may be a float or an array, and the result has its shape.
    A light x has only heavy neighbours, which are adjacent, so
    h1(x) = sf(theta - x)**2.  A heavy x is adjacent to every heavy weight,
    and its triangle holds at most one light weight, which must exceed
    theta - x: h1(x) = s**2 + 2 E[sf(theta - Y); theta - x < Y <= theta/2].
    """
    half, s = _light_cut(cfg)
    xs = np.asarray(x, dtype=float)
    h = np.where(xs <= half, cfg.dist.sf(cfg.theta - xs) ** 2,
                 s * s + 2.0 * _light_row(cfg, 1, cfg.theta - xs))
    return float(h) if h.ndim == 0 else h


def _tail_kinks(dist: WeightDistribution, theta: float) -> list:
    """The weights y at which ``sf(theta - y)`` leaves 0 and reaches 1,
    ``theta - sup`` and ``theta - inf``; a partial expectation is cut there."""
    lo_s, hi_s = dist.support()
    return [theta - hi_s, theta - lo_s]


def _light_cut(cfg: LimitConfig) -> tuple[float, float]:
    """The largest light float y, y + y <= theta (theta/2 unless that rounds
    up), and the heavy mass s = sf(y)."""
    half = cfg.theta / 2.0
    half = math.nextafter(half, -math.inf) if half + half > cfg.theta else half
    return half, cfg.dist.sf(half)


def _light_row(cfg: LimitConfig, p: int, lo=-math.inf):
    """E[sf(theta - Y)**p; lo < Y <= theta/2], one row per ``lo``.  No kink of
    sf(theta - Y) cuts a row: theta - inf lies at or above theta/2 wherever a
    light weight exists, and theta - sup is -inf for every continuous law but
    uniform(a, b), where sf(theta - Y) rises at the density and the row is
    (s**(p+1) - sf(theta - max(lo, a))**(p+1)) / (p+1)."""
    dist, theta = cfg.dist, cfg.theta
    half, s = _light_cut(cfg)
    if dist.kind == "uniform":
        low = dist.sf(theta - np.maximum(lo, dist.params[0]))
        return (s ** (p + 1) - low ** (p + 1)) / (p + 1)
    return expect_rows(dist, lambda y: dist.sf(theta - y) ** p, lo, half)


def triangle_probability(cfg: LimitConfig) -> float:
    """P(three independent weights form a triangle): three heavies, or one
    light weight and two fresh neighbours of it, F3 = s**3 + 3 E[h1(Y); Y light]."""
    return float(_light_cut(cfg)[1] ** 3 + 3.0 * _light_row(cfg, 2))


def triangle_kernel_variance(cfg: LimitConfig, f3: float) -> float:
    """Variance of the conditional triangle probability of a random weight,
    given its mean ``f3 = triangle_probability(cfg)``.

    This is the component driving the triangle-density CLT: the light row of
    h1**2 plus E[h1(X)**2; X heavy].  Under uniform(a, b) a heavy weight of
    tail level w has h1 = 2 s**2 - max(w, c)**2, c = sf(theta - a).  Clamped
    at zero against rounding (it vanishes for degenerate laws).
    """
    dist, theta = cfg.dist, cfg.theta
    half, s = _light_cut(cfg)
    if dist.kind == "uniform":  # c (2 s2 - c**2)**2 plus (2 s2 - w**2)**2 integrated on [c, s]
        c, s2 = dist.sf(theta - dist.params[0]), s * s
        heavy = (c * (2.0 * s2 - c * c) ** 2 + 4.0 * s2 * s2 * (s - c)
                 - 4.0 * s2 * (s**3 - c**3) / 3.0 + (s**5 - c**5) / 5.0)
    else:  # one row up to the kink theta - inf, beyond which every light weight is a neighbour
        top, peak = max(half, theta - dist.support()[0]), (s * s + 2.0 * _light_row(cfg, 1)) ** 2
        heavy = dist.sf(top) * peak + (s * peak and expect_rows(  # the row is below s * peak
            dist, lambda x: conditional_triangle_probability(cfg, x) ** 2, half, top))
    return max(0.0, float(_light_row(cfg, 4) + heavy - f3**2))


def edge_conditioned_correlation(cfg: LimitConfig) -> tuple[float, float]:
    """Covariance and correlation of the limiting degree fractions of two
    adjacent tagged vertices.

    Under the joint weight law conditioned on an edge, the degree fractions
    converge to ``(sf(theta - a), sf(theta - b))``; a nonzero
    covariance witnesses that conditioning breaks asymptotic independence.
    Degenerate marginals report correlation 0.  Raises when no edge is
    possible at all.
    """
    dist, theta = cfg.dist, cfg.theta
    alpha = edge_probability(cfg)
    if alpha <= 0.0:
        raise DegenerateConditioningError(
            "no pair of weights can exceed theta; conditioning on an edge "
            "is degenerate"
        )

    def phi(a):
        return dist.sf(theta - a)

    # E[phi(A)], E[phi(A)**2] and E[phi(A) phi(B)] given A + B > theta; the
    # edge's probability given A is phi(A) itself
    m1 = expectation(dist, lambda a: phi(a) ** 2) / alpha
    m2 = expectation(dist, lambda a: phi(a) ** 3) / alpha
    kinks = _tail_kinks(dist, theta)
    m11 = expectation(dist, lambda a: phi(a) * expect_rows(
        dist, phi, theta - a, math.inf, points=kinks)) / alpha

    cov = m11 - m1 * m1
    var = m2 - m1 * m1
    corr = cov / var if var > 1e-12 else 0.0
    return cov, corr
