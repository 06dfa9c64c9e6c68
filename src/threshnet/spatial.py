"""Spatial extension: Poisson points in a d-ball with threshold-in-distance
edges to the origin.

A point at distance s connects to the origin (weight x) iff
``x + X > theta * s**beta``, so the origin's degree inside radius r is, given
x, Poisson with parameter ``lam * surface_d * integral_0^r s**(d-1) *
(1 - F(theta * s**beta - x)) ds`` (thinning).  The mixture sampler draws the
degree directly from that law; the direct sampler materializes the point
cloud.  Both are distributionally identical, and the mixture path is O(1) in
the radius.  The mixture sampler takes a campaign's streams together, so
the radial integrals of its random origin weights run as batched
quadratures, one per block of ``_STREAMS_PER_BATCH`` streams.

Only the radial coordinate of a point ever enters the connection rule, so
the direct sampler draws radii (``r * U**(1/d)``) and never materializes
directions.  It turns the radius draws into their cutoffs
``theta * radius**beta`` and the weight draws into their sums with the
origin weight in place, so each replicate holds two arrays of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from .dist import WeightDistribution, expectation, parse_dist, quad_checked
from .errors import CapacityError, DomainError, RegimeError
from .stats import register_experiment

DIRECT_POINT_CAP = 100_000_000
# Streams per batched radial quadrature of the mixture sampler.  Its node
# arrays take about 7 KB per stream (11 KB at r = inf, a head and a tail),
# so a block bounds them at about 3 MB whatever the replicate count.
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
    """The radial integral C_r(x) = int_0^r s**(d-1) (1 - F(theta s**beta - x)) ds.

    ``r`` defaults to the config radius and may be ``inf`` for the limiting
    value.  For bounded-support laws the integrand vanishes beyond the cutoff
    radius ``((sup support + x) / theta)**(1/beta)``, which is split (or used
    to truncate) exactly.  ``x`` may be a float (cached) or an array, whose
    values are integrated in one batched quadrature.
    """
    if r is None:
        r = cfg.r
    if not r > 0.0:
        raise DomainError("radius must be > 0")
    if np.ndim(x) == 0:
        return _radial_intensity_cached(
            cfg.d, cfg.beta, cfg.theta, dist, float(x), float(r)
        )
    xs = np.asarray(x, dtype=float)
    values = _radial_intensity_rows(cfg.d, cfg.beta, cfg.theta, dist, xs.ravel(), float(r))
    return values.reshape(xs.shape)


@lru_cache(maxsize=65536)
def _radial_intensity_cached(
    d: int, beta: float, theta: float, dist: WeightDistribution, x: float, r: float
) -> float:
    return float(_radial_intensity_rows(d, beta, theta, dist, np.array([x]), r)[0])


def _radial_intensity_rows(
    d: int, beta: float, theta: float, dist: WeightDistribution, xs, r: float
) -> np.ndarray:
    """C_r at every weight of the 1-D array ``xs``.  Each weight contributes
    one integral, or a head and a tail when its range is unbounded, and all
    of them run in one call of :func:`quad_checked`."""

    def integrand(s, x):
        return s ** (d - 1) * (1.0 - dist.cdf(theta * s**beta - x))

    lo_s, hi_s = dist.support()
    atoms = [atom for atom, _ in dist.atoms()] if dist.is_discrete else []
    rows = []  # (index into xs, lo, hi, breakpoints) of each integral
    for i, x in enumerate(xs.tolist()):
        upper = r
        breakpoints = []
        if theta > 0.0 and beta > 0.0:
            if math.isfinite(hi_s):
                cut = hi_s + x
                upper = min(upper, (cut / theta) ** (1.0 / beta)) if cut > 0.0 else 0.0
            flat = lo_s + x  # below this radius the integrand is s**(d-1) exactly
            if flat > 0.0:
                breakpoints.append((flat / theta) ** (1.0 / beta))
            # the survival factor jumps where theta * s**beta - x crosses an atom
            for atom in atoms:
                if atom + x > 0.0:
                    breakpoints.append(((atom + x) / theta) ** (1.0 / beta))
        if upper <= 0.0:
            continue
        if math.isinf(upper):
            split = max([1.0] + [b for b in breakpoints if math.isfinite(b)])
            rows += [(i, 0.0, split, breakpoints), (i, split, math.inf, [])]
        else:
            rows.append((i, 0.0, upper, breakpoints))
    values = np.zeros(xs.size)
    if rows:
        index, lo, hi, cuts = zip(*rows)
        points = np.full((len(rows), max(map(len, cuts))), np.nan)
        for j, row_cuts in enumerate(cuts):
            points[j, : len(row_cuts)] = row_cuts
        index = np.array(index)
        parts = quad_checked(integrand, np.array(lo), np.array(hi), points=points,
                             args=(xs[index],))
        np.add.at(values, index, parts)  # a head plus its tail
    return np.maximum(values, 0.0)


def sample_origin_degree_direct(
    cfg: SpatialConfig,
    dist: WeightDistribution,
    x0: float | None,
    stream: np.random.Generator,
    point_cap: float = DIRECT_POINT_CAP,
) -> int:
    """Origin degree by simulating the whole Poisson cloud in the ball."""
    expected_points = cfg.lam * ball_volume(cfg.d, cfg.r)
    if expected_points > point_cap:
        raise CapacityError(
            f"direct simulation needs ~{expected_points:.3g} points, over the "
            f"cap of {point_cap:.3g}; use the mixture sampler"
        )
    origin_weight = float(x0) if x0 is not None else dist.sample(stream)
    count = int(stream.poisson(expected_points))
    # cutoffs theta * (r * U**(1/d))**beta and weight sums, both in place
    cutoff = stream.random(count)
    cutoff **= 1.0 / cfg.d
    cutoff *= cfg.r
    cutoff **= cfg.beta
    cutoff *= cfg.theta
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
    each stream of a block draws its origin weight, one batched radial
    quadrature gives the rates of all of them, and each stream then draws
    its Poisson variate, so memory does not grow with the stream count.
    """
    if x0 is not None:
        mu = origin_degree_rate(cfg, dist, float(x0))
        return np.array([stream.poisson(mu) for stream in streams], dtype=float)
    streams, degrees = iter(streams), []
    while block := list(islice(streams, _STREAMS_PER_BATCH)):
        weights = np.array([dist.sample(stream) for stream in block])
        mus = origin_degree_rate(cfg, dist, weights).tolist()
        degrees += [stream.poisson(mu) for stream, mu in zip(block, mus)]
    return np.array(degrees, dtype=float)


def origin_degree_rate(cfg: SpatialConfig, dist: WeightDistribution, x):
    """Poisson parameter of the origin degree given the origin weight ``x``,
    a float or an array (see :func:`radial_intensity`)."""
    return cfg.lam * sphere_surface(cfg.d) * radial_intensity(cfg, dist, x)


def _require_finite_limit(cfg: SpatialConfig, dist: WeightDistribution) -> None:
    if cfg.theta <= 0.0:
        raise RegimeError(
            "the limiting intensity integral diverges for theta <= 0"
        )
    if not dist.has_finite_abs_moment(cfg.d / cfg.beta):
        raise RegimeError(
            f"E[|X|**(d/beta)] = E[|X|**{cfg.d / cfg.beta:g}] is infinite, so "
            "the limit degree law does not exist; use the standardized CLT "
            "path with an explicit centering sequence instead"
        )


def origin_degree_pmf(cfg: SpatialConfig, dist: WeightDistribution, k: int) -> float:
    """Limiting origin-degree pmf: a mixed Poisson over the weight law."""
    if k < 0:
        raise DomainError("k must be >= 0")
    _require_finite_limit(cfg, dist)

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
