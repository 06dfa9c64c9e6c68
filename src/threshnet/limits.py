"""Quadrature oracles for the closed-form limit laws of the threshold graph.

Everything here is an expectation against the weight law F at threshold
theta: the exact finite-n degree pmf, the limiting degree law, the edge and
triangle probabilities, the conditional triangle mean and its variance (the
CLT variance driver), and the edge-conditioned weight correlation that
witnesses asymptotic dependence.

One edge rule serves every oracle: x is adjacent to the weights above
``_reach(x)``, so its edge probability is phi(x) = sf(reach(x)).  The degree
laws are certified passes of :func:`~threshnet.dist.expectation`; the rest
take the light/heavy identity to the limit: heavy weights (y + y > theta)
form a clique and light ones an independent set, so every other oracle is the
heavy mass s = sf(theta/2) and light rows E[phi(Y)**p w; lo < Y <= theta/2] of
:func:`~threshnet.dist.expect_rows` (one Gauss-Legendre row under a uniform
law), plus one heavy row for zeta1.  Both primitives sum atoms exactly and
integrate continuous laws in quantile space.  Tails are survival functions
``sf`` throughout, never ``1 - cdf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import WeightDistribution, expect_rows, expectation
from .errors import DegenerateConditioningError, DomainError
from .graph import _first_adjacent

# The 3-point Gauss-Legendre rule on [-1, 1]: exact for polynomials of degree 5.
_GL3_NODES, _GL3_WEIGHTS = np.sqrt(0.6) * np.arange(-1.0, 2.0), np.array([5.0, 8.0, 5.0]) / 9.0


@dataclass(frozen=True)
class LimitConfig:
    """Weight law + threshold: the arguments every oracle shares."""

    dist: WeightDistribution
    theta: float


def _reach(cfg: LimitConfig, x):
    """The weight above which a weight is adjacent to x: theta - x for a
    continuous law, else the largest atom y with x + y <= theta in floats
    (-inf if none), from the sum rule's own search: theta - x can round."""
    if not cfg.dist.is_discrete:
        return cfg.theta - x
    vals, xs = np.array([y for y, _ in cfg.dist.atoms()]), np.asarray(x, dtype=float)
    first = _first_adjacent(vals, cfg.theta, xs.reshape(-1)).reshape(xs.shape)
    return np.where(first > 0, vals[first - 1], -math.inf)


def degree_pmf(cfg: LimitConfig, n: int, k: int) -> float:
    """P(degree = k) among n+1 vertices: the exact binomial mixture.

    The binomial factor is evaluated in log space so large n cannot
    overflow, and the edge probability phi(x) of a weight x is the survival
    function itself, so a far upper tail keeps its precision.
    """
    if not 0 <= k <= n:
        raise DomainError("need 0 <= k <= n")
    log_binom = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)

    def term(x):
        p = cfg.dist.sf(_reach(cfg, x))
        inside = (p > 0.0) & (p < 1.0)
        q = np.where(inside, p, 0.5)
        mixed = np.exp(log_binom + k * np.log(q) + (n - k) * np.log1p(-q))
        edge = np.where(p <= 0.0, float(k == 0), float(k == n))
        return np.where(inside, mixed, edge)

    return expectation(cfg.dist, term)


def limit_degree_cdf(cfg: LimitConfig, t: float) -> float:
    """CDF of the limiting degree fraction phi(X) at t.

    For continuous kinds this is exactly ``F(theta - q(1 - t))`` with ``q``
    the quantile function, evaluated from t itself and taken as the upper
    support bound at t = 0.  Discrete kinds sum atoms exactly: there
    ``1 - t`` can round past a cumulative mass at the jump levels
    ``t = phi(atom)``.
    """
    if t < 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    dist, theta = cfg.dist, cfg.theta
    if dist.is_discrete:
        return expectation(dist, lambda x: np.where(dist.sf(_reach(cfg, x)) <= t, 1.0, 0.0))
    upper = dist.support()[1] if t == 0.0 else float(dist._isf(t))
    return dist.cdf(theta - upper)


def edge_probability(cfg: LimitConfig) -> float:
    """P(X1 + X2 > theta) for two independent weights: both heavy, or one
    light weight and a neighbour of it, alpha = s**2 + 2 E[phi(Y); Y light]."""
    return float(_light_cut(cfg)[1] ** 2 + 2.0 * _light_rows(cfg, 1))


def conditional_triangle_probability(cfg: LimitConfig, x):
    """P(two fresh weights both exceed theta - x and sum above theta).

    This is the conditional mean h1(x) of the triangle kernel given one
    weight; ``x`` may be a float or an array, and the result has its shape.
    A light x has only heavy neighbours, which are adjacent, so
    h1(x) = phi(x)**2.  A heavy x is adjacent to every heavy weight, and its
    triangle holds at most one light weight, which must lie above reach(x):
    h1(x) = s**2 + 2 E[phi(Y); reach(x) < Y <= theta/2].
    """
    (half, s), xs = _light_cut(cfg), np.asarray(x, dtype=float)
    reach = _reach(cfg, xs)
    h = np.where(xs <= half, cfg.dist.sf(reach) ** 2, s * s + 2.0 * _light_rows(cfg, 1, lo=reach))
    return float(h) if h.ndim == 0 else h


def _light_cut(cfg: LimitConfig) -> tuple[float, float]:
    """The largest light float y, y + y <= theta (theta/2 unless that rounds
    up), and the heavy mass s = sf(y)."""
    half = cfg.theta / 2.0
    half = math.nextafter(half, -math.inf) if half + half > cfg.theta else half
    return half, cfg.dist.sf(half)


def _light_rows(cfg: LimitConfig, p, q=1, lo=-math.inf):
    """E[phi(Y)**p w_q(Y); lo < Y <= theta/2] per row of p, q, lo broadcast;
    w_q = (A**q - B**q) / (A - B), summed as A**(q-1) + ... + B**(q-1), is the
    chance that Y is the least of q light weights, A = P(Y <= Y' <= theta/2)
    and B = P(Y < Y' <= theta/2).  phi has no kink in a row (theta - inf >= theta/2)
    but under uniform(a, b), where the row runs in u = B, phi = max(s - u, 0):
    one Gauss-Legendre row over [0, min(s, P(lo < Y <= theta/2))], exact here."""
    dist, (half, s) = cfg.dist, _light_cut(cfg)
    p, q, lo = np.broadcast_arrays(p, q, np.asarray(lo, dtype=float))
    if dist.kind == "uniform":
        a, b = dist.params
        top = min(half, b)
        m = np.clip((top - np.clip(lo, a, top)) / (b - a), 0.0, s)[..., None]
        u, p, q = 0.5 * m * (1.0 + _GL3_NODES), p[..., None], q[..., None]
        return (0.5 * m * _GL3_WEIGHTS * (s - u) ** p * q * u ** (q - 1)).sum(axis=-1)

    def row(y, p, q):
        b = dist.sf(y) - s
        a = dist.sf(np.nextafter(y, -math.inf)) - s if dist.is_discrete else b
        w = np.ones_like(b)
        for j in range(1, int(q.max(initial=1))):
            w = np.where(q > j, a**j + b * w, w)
        return dist.sf(_reach(cfg, y)) ** p * w
    return expect_rows(dist, row, lo, half, args=(p, q))


def triangle_probability(cfg: LimitConfig) -> float:
    """P(three independent weights form a triangle): three heavies, or one
    light weight and two fresh neighbours of it, F3 = s**3 + 3 E[h1(Y); Y light]."""
    return float(_light_cut(cfg)[1] ** 3 + 3.0 * _light_rows(cfg, 2))


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
    else:  # one row up to the kink theta - inf (every heavy atom: it rounds like theta - x)
        top = math.inf if dist.is_discrete else max(half, theta - dist.support()[0])
        peak = (s * s + 2.0 * _light_rows(cfg, 1)) ** 2
        heavy = dist.sf(top) * peak + (s * peak and expect_rows(  # the row is below s * peak
            dist, lambda x: conditional_triangle_probability(cfg, x) ** 2, half, top))
    return max(0.0, float(_light_rows(cfg, 4) + heavy - f3**2))


def edge_conditioned_correlation(cfg: LimitConfig) -> tuple[float, float]:
    """Covariance and correlation of the limiting degree fractions of two
    adjacent tagged vertices.

    Under the joint weight law conditioned on an edge, the degree fractions
    converge to ``(phi(a), phi(b))``; a nonzero covariance witnesses that
    conditioning breaks asymptotic independence.  A heavy x has phi(x) =
    s + g(x), g(x) = P(Y light, adjacent to x), and E[g**q; X heavy] is
    E[phi(least of q lights)], a light row of weight w_q.  A variance of at
    most 1e-12 m2 reports correlation 0; raises when no edge is possible.
    """
    s = _light_cut(cfg)[1]
    # E[phi**p w_q; Y light] for (p, q) = (1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3)
    e1, e2, e3, e1a, e2a, e1aa = _light_rows(cfg, [1, 2, 3, 1, 2, 1], [1, 1, 1, 2, 2, 3]).tolist()
    alpha = s * s + 2.0 * e1
    if alpha <= 0.0:
        raise DegenerateConditioningError(
            "no pair of weights can exceed theta; conditioning on an edge is degenerate")
    # E[phi(A)], E[phi(A)**2] and E[phi(A) phi(B)] given A + B > theta
    m1 = (e2 + s**3 + 2.0 * s * e1 + e1a) / alpha
    m2 = (e3 + s**4 + 3.0 * s * s * e1 + 3.0 * s * e1a + e1aa) / alpha
    m11 = ((s * s + e1) ** 2 + 2.0 * s * e2 + e1 * e1 + e2a) / alpha
    cov, var = m11 - m1 * m1, m2 - m1 * m1
    return cov, cov / var if var > 1e-12 * m2 else 0.0
