"""Quadrature oracles for the closed-form limit laws of the threshold graph.

Everything here is an expectation against the weight law F at threshold
theta: the exact finite-n degree pmf, the limiting degree law, the edge and
triangle probabilities, the conditional triangle mean and its variance (the
CLT variance driver), and the edge-conditioned weight correlation that
witnesses asymptotic dependence.

Every oracle is built from two primitives of :mod:`threshnet.dist`:
:func:`~threshnet.dist.expectation` for the outer expectations and
:func:`~threshnet.dist.expect_rows`, the partial expectation
E[g(X); lo < X <= hi], for the inner ones of the triangle and correlation
oracles.  Neither oracle tells atom laws from continuous ones: both
primitives sum atoms exactly and integrate continuous laws in quantile
space, so bounded and heavy-tailed supports share one code path.
Integrands are elementwise, so an expectation evaluates a whole quadrature
level at once, and the inner integrals of its nodes are the rows of one
:func:`~threshnet.dist.expect_rows` call, which bounds its own batches
(:func:`conditional_triangle_probability` takes any array of weights).
Tails are survival functions ``sf`` throughout, never ``1 - cdf``.  The
limiting degree CDF of a continuous law is closed form.
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
    Given the first fresh weight Y, the second must exceed theta - Y where
    theta - x < Y <= x, and theta - x where Y > max(x, theta - x), so

        h1(x) = E[sf(theta - Y); theta - x < Y <= max(x, theta - x)]
                + sf(theta - x) * sf(max(x, theta - x)),

    one :func:`threshnet.dist.expect_rows` batch over all ``x``, cut at the
    kinks of ``sf(theta - Y)``.  On x <= theta/2 the range is empty and the
    value is the exact square of a tail probability.
    """
    dist, theta = cfg.dist, cfg.theta
    xs = np.asarray(x, dtype=float)
    low, high = theta - xs, np.maximum(xs, theta - xs)
    inner = expect_rows(dist, lambda y: dist.sf(theta - y), low, high,
                        points=_tail_kinks(dist, theta))
    return inner + dist.sf(low) * dist.sf(high)


def _tail_kinks(dist: WeightDistribution, theta: float) -> list:
    """The weights y at which ``sf(theta - y)`` leaves 0 and reaches 1,
    ``theta - sup`` and ``theta - inf``; a partial expectation is cut there."""
    lo_s, hi_s = dist.support()
    return [theta - hi_s, theta - lo_s]


def triangle_probability(cfg: LimitConfig) -> float:
    """P(three independent weights form a triangle)."""
    return expectation(
        cfg.dist,
        lambda x: conditional_triangle_probability(cfg, x),
    )


def triangle_kernel_variance(cfg: LimitConfig, f3: float) -> float:
    """Variance of the conditional triangle probability of a random weight,
    given its mean ``f3 = triangle_probability(cfg)``.

    This is the component driving the triangle-density CLT; clamped at zero
    against quadrature noise (it vanishes for degenerate laws).
    """
    second = expectation(
        cfg.dist,
        lambda x: conditional_triangle_probability(cfg, x) ** 2,
    )
    return max(0.0, second - f3**2)


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
