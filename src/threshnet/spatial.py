"""Spatial extension: Poisson points in a d-ball with threshold-in-distance
edges to the origin.

A point at distance s connects to the origin (weight x) iff
``x + X > theta * s**beta``, so the origin's degree inside radius r is, given
x, Poisson with parameter ``lam * surface_d * C_r(x)`` (thinning), where
``C_r(x) = E[psi(x + X)]`` and psi(z) is the measure ``s**(d-1) ds`` of the
radii a weight sum z reaches.  C_r is closed form for uniform weights and for
exponential ones at integer d/beta; any other law, atoms included, takes it
from :func:`threshnet.dist.expect_rows`, one row per weight.  The mixture
sampler draws the degree directly from that law; the direct sampler
materializes the point cloud.  Both are distributionally identical, and the
mixture path is O(1) in the radius.  The mixture sampler takes a campaign's
streams together, so the intensities of its random origin weights are
computed in batches, one per block of ``_STREAMS_PER_BATCH`` streams.

Only the radial coordinate of a point ever enters the connection rule, so the
direct sampler never materializes directions or radii: it turns its uniform
draws U into the cutoffs ``theta * (r * U**(1/d))**beta``, taken as
``theta * r**beta * U**(beta/d)``, and its weight draws into their sums with
the origin weight, in place, so each replicate holds two arrays of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from .dist import WeightDistribution, expect_rows, expectation, parse_dist
from .errors import COUNT_CAP, CapacityError, DomainError, NumericError, RegimeError
from .stats import register_experiment

# Streams per batch of the mixture sampler.  A law without a closed form takes one
# quadrature row per stream, about 7 KB of node arrays, so 1.75 MB a block at most.
_STREAMS_PER_BATCH = 256


@dataclass(frozen=True)
class SpatialConfig:
    """Dimension, distance exponent, threshold, intensity, ball radius."""

    d: int
    beta: float
    theta: float
    lam: float
    r: float

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise DomainError("dimension d must be 1, 2 or 3")
        if not self.lam > 0.0:
            raise DomainError("intensity lam must be > 0")
        if not self.r > 0.0:
            raise DomainError("radius r must be > 0")
        try:  # a float power beyond the floats raises OverflowError
            finite = all(map(math.isfinite, (self.r**self.d, self.theta * self.r**self.beta)))
        except OverflowError:
            finite = False
        if math.isfinite(self.r) and not finite:
            raise DomainError(f"radius r = {self.r!r}: r**d or theta * r**beta is not finite")


def sphere_surface(d: int) -> float:
    """Surface measure of the unit sphere in d dimensions.

    This is the polar-coordinate factor: integrating it against
    ``s**(d-1) ds`` gives the ball volume.
    """
    if d not in (1, 2, 3):
        raise DomainError("dimension d must be 1, 2 or 3")
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def ball_volume(d: int, r: float) -> float:
    return sphere_surface(d) * r**d / d


def radial_intensity(
    cfg: SpatialConfig, dist: WeightDistribution, x, r: float | None = None
):
    """C_r(x) = int_0^r s**(d-1) P(x + X > theta s**beta) ds, by Fubini the
    weight expectation E[psi(x + X)] of :func:`_psi`, at radius ``r`` (default
    the config radius; ``inf`` raises RegimeError where the limit diverges).
    ``x`` is a float (cached) or an array, computed in one batch."""
    r = cfg.r if r is None else r
    if not r > 0.0:
        raise DomainError("radius must be > 0")
    if math.isinf(r):
        _require_finite_limit(cfg, dist)
    if np.ndim(x) == 0:
        return _radial_intensity_cached(cfg.d, cfg.beta, cfg.theta, dist, float(x), float(r))
    xs = np.asarray(x, dtype=float)
    values = _radial_intensity_rows(cfg.d, cfg.beta, cfg.theta, dist, xs.ravel(), float(r))
    return values.reshape(xs.shape)


@lru_cache(maxsize=65536)
def _radial_intensity_cached(
    d: int, beta: float, theta: float, dist: WeightDistribution, x: float, r: float
) -> float:
    return float(_radial_intensity_rows(d, beta, theta, dist, np.array([x]), r)[0])


def _psi(z, d: int, beta: float, theta: float, r: float, integral: bool = False):
    """psi(z), the measure s**(d-1) ds of the set {s <= r : theta * s**beta < z}:
    [0, w) where theta * s**beta increases in s, (w, r] where it decreases, all
    or nothing where theta * beta = 0.  With ``integral``, an antiderivative of
    psi: z psi(z) less the integral of theta * s**beta over the set."""
    if theta * beta == 0.0:
        full = r**d / d
        return full * np.maximum(z - theta, 0.0) if integral else np.where(z > theta, full, 0.0)
    rb, sign = r**beta, math.copysign(1.0, theta * beta)
    p = np.clip(z / theta, 0.0, rb) if beta > 0.0 else np.maximum(z / theta, rb)  # w**beta
    head = p ** (d / beta) / d  # the measure of [0, w)
    psi = head if sign > 0.0 else rb ** (d / beta) / d - head
    if not integral:
        return psi
    moved = theta * (np.log(p) / beta if d + beta == 0.0 else p * head * d / (d + beta))
    return z * psi - sign * moved


@np.errstate(over="ignore", invalid="ignore")
def _radial_intensity_rows(
    d: int, beta: float, theta: float, dist: WeightDistribution, xs, r: float
) -> np.ndarray:
    """C_r = E[psi(x + X)] at each weight of the 1-D array ``xs``: closed forms for
    uniform and :func:`_exponential_rows`, else one :func:`expect_rows` batch, a row
    per weight cut where x + X crosses 0, theta * r**beta and theta.  At r = inf under
    pareto(c, alpha), psi grows like v**-g in the tail level v, g = d / (beta alpha)
    < 1, so the rows run in v**(1 - g).  A value beyond the floats is inf or NaN,
    silently: NaN exponential rows go to quadrature, which refuses a node that is not
    finite, and the origin-degree rate refuses NaN."""
    if dist.kind == "uniform":
        a, b = dist.params
        upper, lower = (_psi(xs + e, d, beta, theta, r, integral=True) for e in (b, a))
        return np.maximum((upper - lower) / (b - a), 0.0)
    values = np.full(xs.size, np.nan)
    if dist.kind == "exponential" and theta > 0.0 and beta > 0.0 and (d / beta).is_integer():
        values = _exponential_rows(d, beta, theta, dist.params[0], xs, r)
    todo = np.isnan(values)
    rest = xs[todo]
    heavy = dist.kind == "pareto" and math.isinf(r)
    power = 1.0 / (1.0 - d / (beta * dist.params[1])) if heavy else 1.0
    values[todo] = expect_rows(
        dist, lambda w, x: _psi(x + w, d, beta, theta, r), -math.inf, math.inf,
        points=np.stack([-rest, theta * r**beta - rest, theta - rest], axis=1),
        args=(rest,), tail_power=power)
    return np.maximum(values, 0.0)


def _exponential_rows(d: int, beta: float, theta: float, rate: float, xs, r: float):
    """C_r under exp(rate) at theta, beta > 0 and an integer k = d / beta:
    psi(x) plus ``scale`` times the finite-sum incomplete gamma, the integral
    of t**(k-1) exp(rate x - t) / (k-1)! over t = rate * theta * s**beta from
    rate * max(x, 0) to rate * theta * r**beta; NaN where the sums cancel."""
    k, start = round(d / beta), rate * np.maximum(xs, 0.0)
    # t at both ends, r = inf standing as the largest float (its sum is 0)
    t = np.stack([start, np.maximum(start, min(rate * theta * r**beta, np.finfo(float).max))])
    # exp(rate x - t) * sum_{j<k} t**j / j!, a sum of positive terms
    head, end = np.cumprod([np.exp(rate * xs - t)] + [t / j for j in range(1, k)], axis=0).sum(0)
    scale = math.factorial(k - 1) / (beta * (rate * theta) ** k)
    values = _psi(xs, d, beta, theta, r) + scale * (head - end)
    return np.where(2 * k * np.finfo(float).eps * scale * head > 1e-12 * values, np.nan, values)


def sample_origin_degree_direct(
    cfg: SpatialConfig,
    dist: WeightDistribution,
    x0: float | None,
    stream: np.random.Generator,
) -> int:
    """Origin degree by simulating the whole Poisson cloud in the ball."""
    expected_points = cfg.lam * ball_volume(cfg.d, cfg.r)
    if expected_points > COUNT_CAP:
        raise CapacityError(
            f"direct simulation needs ~{expected_points:.3g} points, over the "
            f"cap of {COUNT_CAP:.3g}; use the mixture sampler"
        )
    origin_weight = float(x0) if x0 is not None else dist.sample(stream)
    count = int(stream.poisson(expected_points))
    # cutoffs theta * (r * U**(1/d))**beta in one power, and weight sums, in place
    cutoff = stream.random(count)
    if cfg.beta != cfg.d:
        cutoff **= cfg.beta / cfg.d
    cutoff *= cfg.theta * cfg.r**cfg.beta
    sums = dist.sample(stream, count)
    sums += origin_weight
    return int(np.count_nonzero(sums > cutoff))


def sample_origin_degree_mixture(
    cfg: SpatialConfig,
    dist: WeightDistribution,
    x0: float | None,
    streams,
) -> np.ndarray:
    """Origin degrees drawn from their exact conditional Poisson law, one
    from each stream of the iterable ``streams``.

    With ``x0`` fixed the rate is computed once and the streams are used one
    at a time.  Otherwise the streams go in blocks of ``_STREAMS_PER_BATCH``:
    each stream of a block draws its origin weight, one batched intensity
    call gives the rates of all of them, and each stream then draws its
    Poisson variate, so memory does not grow with the stream count.
    """
    if x0 is not None:
        mu = origin_degree_rate(cfg, dist, float(x0))
        return np.array([_poisson(stream, mu) for stream in streams], dtype=float)
    streams, degrees = iter(streams), []
    while block := list(islice(streams, _STREAMS_PER_BATCH)):
        weights = np.array([dist.sample(stream) for stream in block])
        mus = origin_degree_rate(cfg, dist, weights).tolist()
        degrees += [_poisson(stream, mu) for stream, mu in zip(block, mus)]
    return np.array(degrees, dtype=float)


def _poisson(stream: np.random.Generator, mu: float) -> int:
    try:
        return stream.poisson(mu)
    except ValueError:  # numpy refuses a rate above about 9.2e18
        raise CapacityError(f"the Poisson rate {mu:.6g} is beyond numpy's sampler") from None


def origin_degree_rate(cfg: SpatialConfig, dist: WeightDistribution, x):
    """Poisson parameter of the origin degree given the origin weight ``x``,
    a float or an array (see :func:`radial_intensity`); NumericError where it is NaN."""
    rate = cfg.lam * sphere_surface(cfg.d) * radial_intensity(cfg, dist, x)
    nan = np.isnan(rate)
    if nan.any():  # named by the first origin weight with a NaN rate
        raise NumericError(f"the origin-degree rate at x0 = {np.asarray(x)[nan][0]:g} is NaN")
    return rate


def _require_finite_limit(cfg: SpatialConfig, dist: WeightDistribution) -> None:
    if not (cfg.theta > 0.0 and cfg.beta > 0.0):
        raise RegimeError("the limiting intensity integral diverges for theta <= 0 or beta <= 0")
    if not dist.has_finite_abs_moment(cfg.d / cfg.beta):
        raise RegimeError(
            f"E[|X|**(d/beta)] = E[|X|**{cfg.d / cfg.beta:g}] is infinite, so "
            "the limit degree law does not exist; use the standardized CLT "
            "path with an explicit centering sequence instead"
        )


def mean_origin_degree(cfg: SpatialConfig, dist: WeightDistribution) -> float:
    """Mean origin degree over a random origin weight, lam c_d E[C_r(X)]."""
    mean = expectation(dist, lambda x: radial_intensity(cfg, dist, x))
    return cfg.lam * sphere_surface(cfg.d) * mean


def origin_degree_pmf(cfg: SpatialConfig, dist: WeightDistribution, k: int) -> float:
    """Limiting origin-degree pmf: a mixed Poisson over the weight law."""
    if k < 0:
        raise DomainError("k must be >= 0")

    def pmf(x):  # the Poisson pmf at k of each weight's limiting mean
        mean = cfg.lam * sphere_surface(cfg.d) * radial_intensity(cfg, dist, x, math.inf)
        pos = np.where(mean > 0.0, mean, 1.0)
        mixed = np.exp(-pos + k * np.log(pos) - math.lgamma(k + 1.0))
        return np.where(mean > 0.0, mixed, float(k == 0))

    return expectation(dist, pmf)


def standardized_origin_degree(
    cfg: SpatialConfig,
    dist: WeightDistribution,
    centering: float,
    streams,
) -> np.ndarray:
    """(degree - lam c_d Cr) / sqrt(lam c_d Cr) of the mixture origin degree
    drawn from each stream.

    ``centering`` is the caller-supplied centering sequence value Cr (no
    general recipe exists; it is model-specific).
    """
    if not centering > 0.0:
        raise DomainError("centering must be > 0")
    scale = cfg.lam * sphere_surface(cfg.d) * centering
    if not 0.0 < scale < math.inf:
        raise NumericError(f"lam c_d Cr = {scale!r} at Cr = {centering!r} is not a positive float")
    delta = sample_origin_degree_mixture(cfg, dist, None, streams)
    return (delta - scale) / math.sqrt(scale)


# ---------------------------------------------------------------------------
# registered experiments


def _config_from_params(params: dict) -> tuple[SpatialConfig, WeightDistribution]:
    cfg = SpatialConfig(
        d=int(params["d"]),
        beta=float(params["beta"]),
        theta=float(params["theta"]),
        lam=float(params["lam"]),
        r=float(params["r"]),
    )
    return cfg, parse_dist(params["dist"])


@register_experiment("spatial")
def _spatial_experiment(params: dict, streams) -> list | np.ndarray:
    cfg, dist = _config_from_params(params)
    x0 = params.get("x0")
    if params.get("mode", "mixture") == "direct":
        return [sample_origin_degree_direct(cfg, dist, x0, stream) for stream in streams]
    return sample_origin_degree_mixture(cfg, dist, x0, streams)


@register_experiment("clt")
def _clt_experiment(params: dict, streams) -> np.ndarray:
    cfg, dist = _config_from_params(params)
    return standardized_origin_degree(cfg, dist, float(params["Cr"]), streams)
