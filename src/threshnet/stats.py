"""Monte Carlo campaign runner and goodness-of-fit instruments.

Replicate streams
-----------------
Replicate ``i`` of a campaign with master seed ``s`` uses an independent
PCG64 generator seeded with ``substream_seed(s, i)``, a fixed SplitMix64
avalanche of the pair (documented so the seed -> sample mapping is stable):

    z = splitmix64(s) + (i + 1) * 0x9E3779B97F4A7C15   (mod 2**64)
    seed_i = splitmix64(z)

Reports are therefore byte-identical for identical inputs.  Sample moments
are reduced with exact summation (math.fsum) so the reduction order cannot
perturb reported means.

Experiments
-----------
A registered experiment is ``fn(params, streams) -> rows``: it is called
once per campaign with the lazy sequence ``make_stream(s, i)`` for
``i = 0 .. R-1`` and returns the R sample rows in stream order.  It parses
``params`` once, and it draws replicate ``i``'s numbers from stream ``i``
alone, in the order a single replicate would, so a row does not depend on
the other streams.  Experiments that need nothing across replicates consume
the streams one at a time, so no campaign holds all R generators; the
spatial mixture holds one block of them at a time to evaluate the block's
radial integrals in one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NumericError, UsageError, check_count

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def substream_seed(master_seed: int, index: int) -> int:
    """64-bit seed for replicate ``index`` of a campaign; see module docs."""
    z = (_splitmix64(master_seed) + (index + 1) * _GOLDEN64) & _MASK64
    return _splitmix64(z)


def make_stream(master_seed: int, index: int = 0) -> np.random.Generator:
    """Independent random stream for one replicate."""
    return np.random.Generator(np.random.PCG64(substream_seed(master_seed, index)))


# ---------------------------------------------------------------------------
# experiment registry (populated by the owning modules at import time)

_EXPERIMENTS: dict[str, tuple[Callable, Optional[tuple[str, ...]]]] = {}


def register_experiment(name: str, columns: Optional[tuple[str, ...]] = None):
    def deco(fn):
        _EXPERIMENTS[name] = (fn, columns)
        return fn

    return deco


@dataclass
class ReplicateReport:
    """Result of one Monte Carlo campaign."""

    experiment: str
    config: dict
    seed: int
    replicates: int
    columns: Optional[tuple[str, ...]]
    samples: np.ndarray  # shape (R,) or (R, m)
    mean: object  # float or list of floats
    variance: object
    stderr: object
    gof: Optional[dict] = None
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "experiment": self.experiment,
            "config": self.config,
            "seed": self.seed,
            "R": self.replicates,
            "mean": self.mean,
            "variance": self.variance,
            "stderr": self.stderr,
            "gof": self.gof,
        }
        if self.columns is not None:
            out["columns"] = list(self.columns)
        out.update(self.extras)
        return out


def _column_moments(col: np.ndarray) -> tuple[float, float, float]:
    n = col.size
    mean = math.fsum(col) / n
    var = math.fsum((x - mean) ** 2 for x in col) / (n - 1) if n > 1 else 0.0
    return mean, var, math.sqrt(var / n)


def run_replicates(
    experiment: str,
    params: dict,
    replicates: int,
    master_seed: int,
) -> ReplicateReport:
    """Run ``replicates`` independent replicates of a named experiment.

    The experiment is called once, and replicate ``i`` draws from the stream
    derived from ``(master_seed, i)``; see the module docs.
    """
    if experiment not in _EXPERIMENTS:
        raise UsageError(
            f"unknown experiment {experiment!r}; known: {', '.join(sorted(_EXPERIMENTS))}"
        )
    replicates = check_count(replicates, 1, "a campaign", "R")
    fn, columns = _EXPERIMENTS[experiment]
    streams = (make_stream(master_seed, i) for i in range(replicates))
    samples = np.asarray(fn(params, streams), dtype=float)
    with np.errstate(over="ignore"):  # a moment beyond the floats is refused below
        if samples.ndim == 1:
            mean, var, se = _column_moments(samples)
        else:
            mean, var, se = map(list, zip(*map(_column_moments, samples.T)))
    for name, value in (("mean", mean), ("variance", var), ("stderr", se)):
        if not np.isfinite(value).all():
            raise NumericError(f"the sample {name} is not finite: {value}")
    return ReplicateReport(
        experiment=experiment,
        config=dict(params),
        seed=master_seed,
        replicates=replicates,
        columns=columns,
        samples=samples,
        mean=mean,
        variance=var,
        stderr=se,
    )


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov


def ks_statistic(samples, cdf) -> float:
    """Sup distance between the sample ECDF and a right-continuous reference
    CDF, exact for continuous and stepped references alike: at each sorted
    sample the upper gap reads the reference there, the lower gap its left
    limit (its value at the next float below), so a sample on a jump of the
    reference is not counted against it."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    if n == 0:
        raise DomainError("ks_statistic requires a nonempty sample")
    fvals = np.asarray([cdf(float(x)) for x in xs], dtype=float)
    flefts = np.asarray([cdf(float(x)) for x in np.nextafter(xs, -np.inf)], dtype=float)
    i = np.arange(1, n + 1, dtype=float)
    d_plus = np.max(i / n - fvals)
    d_minus = np.max(flefts - (i - 1.0) / n)
    return float(max(d_plus, d_minus, 0.0))


def ecdf(sample):
    """The right-continuous empirical CDF of a nonempty sample, a callable."""
    xs = np.sort(np.asarray(sample, dtype=float))
    if xs.size == 0:
        raise DomainError("ecdf requires a nonempty sample")

    def cdf(t: float) -> float:
        return float(np.searchsorted(xs, t, side="right")) / xs.size

    return cdf


def ks_two_sample(a, b) -> float:
    """Sup distance between two sample ECDFs: :func:`ks_statistic` of ``a``
    against the ECDF of ``b``, exact for tied and discrete data."""
    return ks_statistic(a, ecdf(b))


def kolmogorov_sf(t: float) -> float:
    """Upper tail of the Kolmogorov distribution, P(sup|B(F)| > t)."""
    if t <= 0.0:
        return 1.0
    total = 0.0
    for j in range(1, 101):
        term = 2.0 * (-1.0) ** (j - 1) * math.exp(-2.0 * j * j * t * t)
        total += term
        if abs(term) < 1e-16:
            break
    return min(1.0, max(0.0, total))


# ---------------------------------------------------------------------------
# chi-square goodness of fit


def _gamma_upper_reg(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) at a half-integer or
    integer ``a`` (the chi-square tail at 2a degrees of freedom).

    Closed form, a sum of positive terms: erfc(sqrt(x)) when a is a
    half-integer, plus x**b exp(-x) / Gamma(b + 1) for b = a mod 1,
    a mod 1 + 1, ... below a.
    """
    if not (a > 0.0 and (2.0 * a).is_integer() and x >= 0.0):
        raise DomainError("gamma tail requires 2a a positive integer and x >= 0")
    if x in (0.0, math.inf):
        return float(x == 0.0)
    start = a % 1.0
    head = math.erfc(math.sqrt(x)) if start else 0.0
    terms = (math.exp(-x + b * math.log(x) - math.lgamma(b + 1.0))
             for b in (start + j for j in range(int(a - start))))
    return min(1.0, math.fsum([head, *terms]))


# The least expected count of a chi-square cell.
_MIN_EXPECTED = 5.0


def chi_square_gof(observed, probs):
    """Pearson chi-square test of counts against cell probabilities.

    Starved cells are merged inward from both tails until every expected
    count reaches ``_MIN_EXPECTED``; remaining starvation is an error.
    Returns ``(statistic, dof, p_value)`` with ``dof = cells - 1``.
    """
    obs = [float(o) for o in observed]
    prb = [float(p) for p in probs]
    if len(obs) != len(prb) or len(obs) < 2:
        raise DomainError("observed and probs must have equal length >= 2")
    if abs(math.fsum(prb) - 1.0) > 1e-9:
        raise DomainError("cell probabilities must sum to 1")
    n = math.fsum(obs)
    while len(obs) > 1 and n * prb[-1] < _MIN_EXPECTED:
        obs[-2] += obs[-1]
        prb[-2] += prb[-1]
        del obs[-1], prb[-1]
    while len(obs) > 1 and n * prb[0] < _MIN_EXPECTED:
        obs[1] += obs[0]
        prb[1] += prb[0]
        del obs[0], prb[0]
    expected = [n * p for p in prb]
    if any(e < _MIN_EXPECTED for e in expected) or len(obs) < 2:
        raise DomainError(
            f"cell starvation: {len(obs)} cells left with an expected count "
            f"below {_MIN_EXPECTED}"
        )
    stat = math.fsum((o - e) ** 2 / e for o, e in zip(obs, expected))
    dof = len(obs) - 1
    return stat, dof, _gamma_upper_reg(dof / 2.0, stat / 2.0)


# ---------------------------------------------------------------------------
# reference laws


def normal_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def poisson_pmf(mean: float, k: int) -> float:
    """Poisson probability mass, evaluated in log space."""
    if mean < 0.0:
        raise DomainError("poisson mean must be >= 0")
    if k < 0:
        return 0.0
    if mean == 0.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(-mean + k * math.log(mean) - math.lgamma(k + 1.0))


def poisson_tail_cutoff(mean: float, eps: float = 1e-10) -> int:
    """Smallest K with P(Poisson(mean) > K) < eps."""
    if mean < 0.0:
        raise DomainError("poisson mean must be >= 0")
    if mean == 0.0:
        return 0
    k = 0
    term = math.exp(-mean)
    cum = term
    cap = int(mean + 20.0 * math.sqrt(mean) + 200.0)
    while cum < 1.0 - eps and k < cap:
        k += 1
        term *= mean / k
        cum += term
    return k
