"""Quadrature oracles for the closed-form limit laws of the threshold graph.

Everything here is an expectation against the weight law F at threshold
theta: the exact finite-n degree pmf, the limiting degree law, the edge and
triangle probabilities, the conditional triangle mean and its variance (the
CLT variance driver), and the edge-conditioned weight correlation that
witnesses asymptotic dependence.

All continuous-kind integrals run in quantile space, so bounded and
heavy-tailed supports share one code path, and one integrator does them
all: the array-valued Gauss-Legendre integrator
:func:`threshnet.dist.quad_checked`, called by
:func:`threshnet.dist.expectation` for the outer expectations and directly
for the inner one-dimensional integrals of the triangle and correlation
oracles.  Integrands are elementwise, so an expectation evaluates many
quadrature nodes at once, and the inner integrals of those nodes run as one
batch (:func:`conditional_triangle_probability` takes any array of
weights).  The limiting degree CDF of a continuous law is closed form.
Discrete kinds reduce to exact atom sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import WeightDistribution, expectation, quad_checked
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
        return expectation(
            dist,
            lambda x: np.where(1.0 - dist.cdf(theta - x) <= t, 1.0, 0.0),
        )
    upper = dist.support()[1] if t == 0.0 else float(dist._isf(t))
    return dist.cdf(theta - upper)


def edge_probability(cfg: LimitConfig) -> float:
    """P(X1 + X2 > theta) for two independent weights."""
    dist, theta = cfg.dist, cfg.theta
    return expectation(dist, lambda a: 1.0 - dist.cdf(theta - a))


def conditional_triangle_probability(cfg: LimitConfig, x):
    """P(two fresh weights both exceed theta - x and sum above theta).

    This is the conditional mean of the triangle kernel given one weight;
    ``x`` may be a float or an array, and the result has its shape.  On
    ``x <= theta/2`` the sum condition is implied and the value is the
    exact square of a tail probability; above, the two-dimensional
    probability is integrated in one dimension after conditioning on the
    smaller fresh weight, split at its breakpoints, in one batched
    quadrature over all such ``x``.
    """
    dist, theta = cfg.dist, cfg.theta
    xs = np.asarray(x, dtype=float).reshape(-1)
    low = theta - xs
    if dist.is_discrete:
        ys = np.array([y for y, _ in dist.atoms()])
        ps = np.array([p for _, p in dist.atoms()])
        below = low[:, None]
        tails = ps * (1.0 - dist.cdf(np.maximum(below, theta - ys)))
        terms = np.where(ys > below, tails, 0.0)
        out = np.array([math.fsum(row) for row in terms.tolist()])
    else:
        tail_low = 1.0 - dist.cdf(low)
        out = tail_low * tail_low
        upper = xs > theta / 2.0
        if upper.any():
            mid = quad_checked(
                lambda u: 1.0 - dist.cdf(theta - dist._ppf(u)),
                dist.cdf(low[upper]),
                dist.cdf(xs[upper]),  # theta - low
                points=_tail_kinks(dist, theta),
            )
            out[upper] = mid + (1.0 - dist.cdf(xs[upper])) * tail_low[upper]
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))


def _tail_kinks(dist: WeightDistribution, theta: float) -> list:
    """The quantile levels u at which ``1 - F(theta - ppf(u))`` leaves 0 and
    reaches 1: ``F(theta - sup)`` where the support is bounded above, and
    ``F(theta - inf)``.  An integral over u is split there."""
    lo_s, hi_s = dist.support()
    kinks = [dist.cdf(theta - hi_s)] if math.isfinite(hi_s) else []
    kinks.append(dist.cdf(theta - lo_s))
    return kinks


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
    converge to ``(1 - F(theta - a), 1 - F(theta - b))``; a nonzero
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
        return 1.0 - dist.cdf(theta - a)

    if dist.is_discrete:
        atoms = dist.atoms()
        m1 = m2 = m11 = 0.0
        for a, pa in atoms:
            for b, pb in atoms:
                if a + b > theta:
                    w = pa * pb
                    m1 += w * phi(a)
                    m2 += w * phi(a) ** 2
                    m11 += w * phi(a) * phi(b)
        m1, m2, m11 = m1 / alpha, m2 / alpha, m11 / alpha
    else:
        m1 = expectation(dist, lambda a: phi(a) ** 2) / alpha
        m2 = expectation(dist, lambda a: phi(a) ** 3) / alpha

        def outer(a):
            u0 = dist.cdf(theta - a)
            inner = np.zeros_like(u0)
            reach = u0 < 1.0
            if reach.any():
                inner[reach] = quad_checked(
                    lambda u: phi(dist._ppf(u)), u0[reach], 1.0,
                    points=_tail_kinks(dist, theta),
                )
            return phi(a) * inner

        m11 = expectation(dist, outer) / alpha

    cov = m11 - m1 * m1
    var = m2 - m1 * m1
    corr = cov / var if var > 1e-12 else 0.0
    return cov, corr
