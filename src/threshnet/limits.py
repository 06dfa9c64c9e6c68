"""Quadrature oracles for the closed-form limit laws of the threshold graph.

Everything here is an expectation against the weight law F at threshold
theta: the exact finite-n degree pmf, the limiting degree law, the edge and
triangle probabilities, the conditional triangle mean and its variance (the
CLT variance driver), and the edge-conditioned weight correlation that
witnesses asymptotic dependence.

All continuous-kind integrals run in quantile space, so bounded and
heavy-tailed supports share one code path: expectations through
:func:`threshnet.dist.expectation`, and the inner one-dimensional integrals
of the triangle and correlation oracles through the array-valued
Gauss-Legendre integrator :func:`threshnet.dist.quad_checked`.  The limiting
degree CDF of a continuous law is closed form.  Discrete kinds reduce to
exact atom sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dist import WeightDistribution, expectation, quad_checked
from .errors import DegenerateConditioningError, DomainError


@dataclass(frozen=True)
class LimitConfig:
    """Weight law + threshold + quadrature budget for the oracles."""

    dist: WeightDistribution
    theta: float
    quad_nodes: int = 256

    def __post_init__(self):
        if self.quad_nodes < 16:
            raise DomainError("quad_nodes must be >= 16")


def degree_pmf(cfg: LimitConfig, n: int, k: int) -> float:
    """P(degree = k) among n+1 vertices: the exact binomial mixture.

    The binomial factor is evaluated in log space so large n cannot
    overflow.
    """
    if not 0 <= k <= n:
        raise DomainError("need 0 <= k <= n")
    dist, theta = cfg.dist, cfg.theta
    log_binom = (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )

    def term(x: float) -> float:
        p = 1.0 - dist.cdf(theta - x)
        if p <= 0.0:
            return 1.0 if k == 0 else 0.0
        if p >= 1.0:
            return 1.0 if k == n else 0.0
        return math.exp(log_binom + k * math.log(p) + (n - k) * math.log1p(-p))

    return expectation(dist, term, limit=cfg.quad_nodes)


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
            lambda x: 1.0 if 1.0 - dist.cdf(theta - x) <= t else 0.0,
            limit=cfg.quad_nodes,
        )
    upper = dist.support()[1] if t == 0.0 else float(dist._isf(t))
    return dist.cdf(theta - upper)


def edge_probability(cfg: LimitConfig) -> float:
    """P(X1 + X2 > theta) for two independent weights."""
    dist, theta = cfg.dist, cfg.theta
    return expectation(dist, lambda a: 1.0 - dist.cdf(theta - a),
                       limit=cfg.quad_nodes)


def conditional_triangle_probability(cfg: LimitConfig, x: float) -> float:
    """P(two fresh weights both exceed theta - x and sum above theta).

    This is the conditional mean of the triangle kernel given one weight.
    On ``x <= theta/2`` the sum condition is implied and the value is the
    exact square of a tail probability; above, the two-dimensional
    probability is integrated in one dimension after conditioning on the
    smaller fresh weight, split at its breakpoints.
    """
    dist, theta = cfg.dist, cfg.theta
    low = theta - x
    if dist.is_discrete:
        return math.fsum(
            p * (1.0 - dist.cdf(max(low, theta - y)))
            for y, p in dist.atoms()
            if y > low
        )
    tail_low = 1.0 - dist.cdf(low)
    if x <= theta / 2.0:
        return tail_low * tail_low
    u_lo = dist.cdf(low)
    u_hi = dist.cdf(x)  # theta - low
    mid = 0.0
    if u_hi > u_lo:
        lo_s, hi_s = dist.support()
        brk = [dist.cdf(theta - hi_s)] if math.isfinite(hi_s) else []
        brk.append(dist.cdf(theta - lo_s))
        mid = quad_checked(
            lambda u: 1.0 - dist.cdf(theta - dist._ppf(u)),
            u_lo,
            u_hi,
            points=brk,
            limit=cfg.quad_nodes,
        )
    return mid + (1.0 - dist.cdf(x)) * tail_low


def triangle_probability(cfg: LimitConfig) -> float:
    """P(three independent weights form a triangle)."""
    return expectation(
        cfg.dist,
        lambda x: conditional_triangle_probability(cfg, x),
        limit=cfg.quad_nodes,
    )


def triangle_kernel_variance(cfg: LimitConfig) -> float:
    """Variance of the conditional triangle probability of a random weight.

    This is the component driving the triangle-density CLT; clamped at zero
    against quadrature noise (it vanishes for degenerate laws).
    """
    second = expectation(
        cfg.dist,
        lambda x: conditional_triangle_probability(cfg, x) ** 2,
        limit=cfg.quad_nodes,
    )
    return max(0.0, second - triangle_probability(cfg) ** 2)


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

    def phi(a: float) -> float:
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
        m1 = expectation(dist, lambda a: phi(a) ** 2, limit=cfg.quad_nodes) / alpha
        m2 = expectation(dist, lambda a: phi(a) ** 3, limit=cfg.quad_nodes) / alpha

        def outer(a: float) -> float:
            u0 = dist.cdf(theta - a)
            if u0 >= 1.0:
                return 0.0
            inner = quad_checked(
                lambda u: phi(dist._ppf(u)), u0, 1.0, limit=cfg.quad_nodes
            )
            return phi(a) * inner

        m11 = expectation(dist, outer, limit=cfg.quad_nodes) / alpha

    cov = m11 - m1 * m1
    var = m2 - m1 * m1
    corr = cov / var if var > 1e-12 else 0.0
    return cov, corr
