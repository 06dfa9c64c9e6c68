"""Weight laws: CDF/quantile/sampling, expectations against the law, and the
split-support check.

A :class:`WeightDistribution` is an immutable value describing one of six
parametric kinds:

====================  =============================  =========================
kind                  params                         support
====================  =============================  =========================
``uniform``           ``(a, b)``                     ``[a, b]``
``exponential``       ``(rate,)``                    ``[0, inf)``
``pareto``            ``(scale_c, alpha)``           ``[scale_c**(1/alpha), inf)``
``two_point``         ``(x1, p1, x2)``               ``{x1, x2}``
``discrete``          ``((x1, p1), (x2, p2), ...)``  atom set
``point``             ``(c,)``                       ``{c}``
====================  =============================  =========================

The pareto kind has CDF ``1 - scale_c * x**(-alpha)`` on its support.

Expectations against the law are computed by quantile transform: continuous
kinds integrate ``g(quantile(u))`` over ``u in (0, 1)`` with adaptive
bisection quadrature (so unbounded supports need no truncation), discrete
kinds sum atoms exactly.  Atoms are never smoothed.  Quantiles of nodes above
``u = 1/2`` are taken from ``1 - u`` directly, so finite tail moments of
unbounded laws stay finite.

:func:`quad_checked` integrates array-valued integrands on ``[lo, hi]`` (with
``hi`` possibly infinite) for the oracles in ``limits`` and ``spatial``:
composite 21-node Gauss-Legendre panels that start at the caller's
breakpoints, refined by halving, every level in one vectorized call of the
integrand.  Only numpy is needed at run time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError

_CONTINUOUS_KINDS = ("uniform", "exponential", "pareto")
_DISCRETE_KINDS = ("two_point", "discrete", "point")

# Probability tolerance for validating discrete weights.
_PROB_TOL = 1e-12


@dataclass(frozen=True)
class WeightDistribution:
    """One weight law; see the module docstring for the kind/params table."""

    kind: str
    params: tuple

    # -- structure ---------------------------------------------------------

    @property
    def is_discrete(self) -> bool:
        return self.kind in _DISCRETE_KINDS

    def atoms(self) -> tuple[tuple[float, float], ...]:
        """(value, probability) pairs, ascending by value; discrete kinds only."""
        if self.kind == "point":
            return ((self.params[0], 1.0),)
        if self.kind == "two_point":
            x1, p1, x2 = self.params
            return ((x1, p1), (x2, 1.0 - p1))
        if self.kind == "discrete":
            return self.params
        raise DomainError(f"{self.kind} law has no atoms")

    def support(self) -> tuple[float, float]:
        """Closed support bounds; upper bound may be ``inf``."""
        if self.kind == "uniform":
            return self.params[0], self.params[1]
        if self.kind == "exponential":
            return 0.0, math.inf
        if self.kind == "pareto":
            c, alpha = self.params
            return c ** (1.0 / alpha), math.inf
        xs = [x for x, _ in self.atoms()]
        return xs[0], xs[-1]

    # -- CDF / quantile ----------------------------------------------------

    def cdf(self, x):
        """P(X <= x); accepts scalars or arrays."""
        xv = np.asarray(x, dtype=float)
        if self.kind == "uniform":
            a, b = self.params
            out = np.clip((xv - a) / (b - a), 0.0, 1.0)
        elif self.kind == "exponential":
            (rate,) = self.params
            out = np.where(xv < 0.0, 0.0, -np.expm1(-rate * np.maximum(xv, 0.0)))
        elif self.kind == "pareto":
            c, alpha = self.params
            xm = c ** (1.0 / alpha)
            out = np.where(xv < xm, 0.0, 1.0 - c * np.maximum(xv, xm) ** (-alpha))
        else:
            vals, cum = self._atom_tables()
            out = cum[np.searchsorted(vals, xv, side="right")]
        return float(out) if np.isscalar(x) or xv.ndim == 0 else out

    def cdf_left(self, x):
        """P(X < x): the left limit of the CDF (differs only at atoms)."""
        if not self.is_discrete:
            return self.cdf(x)
        xv = np.asarray(x, dtype=float)
        vals, cum = self._atom_tables()
        out = cum[np.searchsorted(vals, xv, side="left")]
        return float(out) if np.isscalar(x) or xv.ndim == 0 else out

    def mass_open(self, lo: float, hi: float) -> float:
        """P(X in (lo, hi)), exact for every kind.

        Positive iff the open interval meets the support, which is the probe
        the split-support check relies on.
        """
        if not hi > lo:
            return 0.0
        lo_cdf = 0.0 if lo == -math.inf else self.cdf(lo)
        hi_cdf = 1.0 if hi == math.inf else self.cdf_left(hi)
        return max(0.0, hi_cdf - lo_cdf)

    def quantile(self, p):
        """Generalized inverse CDF: inf{x : F(x) >= p} for 0 < p < 1."""
        pv = np.asarray(p, dtype=float)
        if np.any(pv <= 0.0) or np.any(pv >= 1.0):
            raise DomainError("quantile requires 0 < p < 1")
        out = self._ppf(pv)
        return float(out) if np.isscalar(p) or pv.ndim == 0 else out

    def _ppf(self, u):
        # Same generalized inverse as quantile() but also defined at u = 0,
        # where it returns the lower support bound; used by the sampler.
        if self.kind == "uniform":
            a, b = self.params
            return a + (b - a) * u
        if self.kind == "exponential":
            (rate,) = self.params
            return -np.log1p(-u) / rate
        if self.kind == "pareto":
            c, alpha = self.params
            return (c / (1.0 - u)) ** (1.0 / alpha)
        vals, cum = self._atom_tables()
        return vals[np.searchsorted(cum[1:], u, side="left")]

    def _isf(self, v):
        # The quantile at 1 - v, computed from v itself (continuous kinds), so
        # that upper-tail levels keep their precision where 1 - v would round
        # to 1.
        if self.kind == "uniform":
            a, b = self.params
            return b - (b - a) * v
        if self.kind == "exponential":
            (rate,) = self.params
            return -np.log(v) / rate
        if self.kind == "pareto":
            c, alpha = self.params
            return (c / v) ** (1.0 / alpha)
        raise DomainError(f"{self.kind} law has no upper-tail quantile")

    def _atom_tables(self):
        vals = np.array([x for x, _ in self.atoms()], dtype=float)
        cum = np.concatenate([[0.0], np.cumsum([p for _, p in self.atoms()])])
        cum[-1] = 1.0  # snap away the summation residual
        return vals, cum

    # -- sampling ----------------------------------------------------------

    def sample(self, stream: np.random.Generator, size=None):
        """Draw from the law by inverse transform of ``stream.random``."""
        u = stream.random(size)
        out = self._ppf(u)
        return float(out) if size is None else np.asarray(out, dtype=float)

    # -- misc --------------------------------------------------------------

    def has_finite_abs_moment(self, order: float) -> bool:
        """Whether E[|X|**order] is finite."""
        if self.kind == "pareto":
            return order < self.params[1]
        return True  # bounded support or exponential tail


# ---------------------------------------------------------------------------
# constructors


def uniform(a: float, b: float) -> WeightDistribution:
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError("uniform requires finite a < b")
    return WeightDistribution("uniform", (float(a), float(b)))


def exponential(rate: float) -> WeightDistribution:
    if not (math.isfinite(rate) and rate > 0.0):
        raise DomainError("exponential requires rate > 0")
    return WeightDistribution("exponential", (float(rate),))


def pareto(scale_c: float, alpha: float) -> WeightDistribution:
    if not (scale_c > 0.0 and alpha > 0.0):
        raise DomainError("pareto requires scale_c > 0 and alpha > 0")
    return WeightDistribution("pareto", (float(scale_c), float(alpha)))


def two_point(x1: float, p1: float, x2: float) -> WeightDistribution:
    if not x1 < x2:
        raise DomainError("two_point requires x1 < x2")
    if not 0.0 < p1 < 1.0:
        raise DomainError("two_point requires 0 < p1 < 1")
    return WeightDistribution("two_point", (float(x1), float(p1), float(x2)))


def finite_discrete(atoms) -> WeightDistribution:
    pairs = tuple(sorted((float(x), float(p)) for x, p in atoms))
    if not pairs:
        raise DomainError("discrete law needs at least one atom")
    xs = [x for x, _ in pairs]
    if len(set(xs)) != len(xs):
        raise DomainError("discrete atoms must be distinct")
    if any(p <= 0.0 for _, p in pairs):
        raise DomainError("atom probabilities must be positive")
    if abs(math.fsum(p for _, p in pairs) - 1.0) > _PROB_TOL:
        raise DomainError("atom probabilities must sum to 1")
    return WeightDistribution("discrete", pairs)


def point_mass(c: float) -> WeightDistribution:
    if not math.isfinite(c):
        raise DomainError("point mass requires a finite value")
    return WeightDistribution("point", (float(c),))


def parse_dist(spec: str) -> WeightDistribution:
    """Parse a distribution spec string.

    Formats: ``uniform:a,b`` | ``exp:rate`` | ``pareto:C,alpha`` |
    ``twopoint:x1,p1,x2`` | ``discrete:x1:p1,x2:p2,...`` | ``point:c``.
    """
    try:
        name, _, arg = spec.partition(":")
        name = name.strip().lower()
        if name == "uniform":
            a, b = (float(t) for t in arg.split(","))
            return uniform(a, b)
        if name == "exp":
            return exponential(float(arg))
        if name == "pareto":
            c, alpha = (float(t) for t in arg.split(","))
            return pareto(c, alpha)
        if name == "twopoint":
            x1, p1, x2 = (float(t) for t in arg.split(","))
            return two_point(x1, p1, x2)
        if name == "discrete":
            pairs = []
            for item in arg.split(","):
                x, p = item.split(":")
                pairs.append((float(x), float(p)))
            return finite_discrete(pairs)
        if name == "point":
            return point_mass(float(arg))
    except DomainError:
        raise
    except Exception as exc:
        raise DomainError(f"malformed distribution spec {spec!r}: {exc}") from exc
    raise DomainError(f"unknown distribution kind in spec {spec!r}")


# ---------------------------------------------------------------------------
# expectations


def expectation(dist: WeightDistribution, g, *, limit: int = 256) -> float:
    """Integrate ``g`` against the weight law.

    Discrete kinds sum atoms exactly.  Continuous kinds integrate
    ``g(quantile(u))`` over ``u in (0, 1)`` with adaptive bisection
    quadrature; ``limit`` scales the refinement budget.  ``g`` must accept a
    scalar and return a finite scalar wherever the law has mass.
    """
    if dist.is_discrete:
        terms = []
        for x, p in dist.atoms():
            gx = g(x)
            if not math.isfinite(gx):
                raise NumericError(f"integrand not finite at atom x={x}")
            terms.append(p * gx)
        return math.fsum(terms)

    def cell(a, b):
        # Nodes above u = 1/2 take their quantile from v = 1 - u, which is
        # computed without rounding, so no node lands on u = 1 (where an
        # unbounded support has an infinite quantile) and finite tail
        # moments stay finite.
        half = 0.5 * (b - a)
        u = a + half * (_GL_NODES + 1.0)
        v = (1.0 - b) + half * (1.0 - _GL_NODES)
        xs = np.where(u <= 0.5, dist._ppf(np.minimum(u, 0.5)), dist._isf(v))
        terms = []
        for x, w in zip(xs.tolist(), _GL_WEIGHT_LIST):
            gx = g(x)
            if not math.isfinite(gx):
                raise NumericError(f"integrand not finite at x={x}")
            terms.append(w * gx)
        return half * math.fsum(terms)

    # Two full adaptive passes over incommensurate seed partitions.  A jump
    # of g can hide only in the node-free sliver beside a persistent cell
    # edge of one partition; the edges of the other partition fall elsewhere,
    # so agreement certifies the value.
    budget = 64 * limit
    first = _adaptive_unit_integral(cell, 8, budget=budget)
    second = _adaptive_unit_integral(cell, 7, budget=budget)
    if abs(first - second) <= 5e-9 * max(1.0, abs(first)):
        return 0.5 * (first + second)
    third = _adaptive_unit_integral(cell, 11, budget=budget)
    candidates = sorted([first, second, third])
    if candidates[1] - candidates[0] <= candidates[2] - candidates[1]:
        close = (candidates[0], candidates[1])
    else:
        close = (candidates[1], candidates[2])
    if abs(close[0] - close[1]) <= 5e-9 * max(1.0, abs(close[1])):
        return 0.5 * (close[0] + close[1])
    raise NumericError("quadrature passes disagree; integrand too irregular")


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(21)
_GL_WEIGHT_LIST = _GL_WEIGHTS.tolist()


def _adaptive_unit_integral(
    cell, n_seeds: int, abstol: float = 1e-10, budget: int = 16384
) -> float:
    """Adaptive bisection quadrature on (0, 1) without extrapolation.

    ``cell(a, b)`` is the Gauss-Legendre value of the integrand on [a, b].
    Extrapolating integrators can lock onto a confidently wrong value at an
    interior jump; plain interval halving cannot.  A cell is accepted only
    when its value agrees with the sum over its halves within a
    width-proportional tolerance, so a visible jump keeps its cell splitting
    until the width (hence the possible error) is negligible.
    """
    seeds = [(i / n_seeds, (i + 1) / n_seeds) for i in range(n_seeds)]
    stack = [(a, b, cell(a, b)) for a, b in seeds]
    accepted: list[float] = []
    used = len(stack)
    while stack:
        a, b, whole = stack.pop()
        mid = 0.5 * (a + b)
        left = cell(a, mid)
        right = cell(mid, b)
        used += 2
        if abs(whole - (left + right)) <= max(abstol * (b - a), 1e-16) or (
            b - a
        ) <= 1e-14:
            accepted.append(left + right)
            continue
        if used > budget:
            raise NumericError(
                f"adaptive quadrature exceeded its budget of {budget} panels"
            )
        stack.append((a, mid, left))
        stack.append((mid, b, right))
    return math.fsum(accepted)


# Panels close at this error, relative to the integral of |f| and shared out
# by width; an error estimate above _QUAD_FAIL_RTOL raises.
_QUAD_RTOL = 1e-11
_QUAD_FAIL_RTOL = 1e-6


def _gl_panels(g, starts, ends, span: str):
    """Gauss-Legendre values of ``g`` and of ``|g|`` on every panel, from one
    call of ``g`` on the array of all their nodes."""
    half = 0.5 * (ends - starts)
    nodes = (starts + half)[:, None] + half[:, None] * _GL_NODES
    vals = np.broadcast_to(np.asarray(g(nodes.ravel()), dtype=float), nodes.size)
    vals = vals.reshape(nodes.shape)
    if not np.all(np.isfinite(vals)):
        bad = nodes[~np.isfinite(vals)][0]
        raise NumericError(f"integrand not finite at node {bad} of {span}")
    value = half * (vals * _GL_WEIGHTS).sum(axis=1)
    return value, half * (np.abs(vals) * _GL_WEIGHTS).sum(axis=1)


def quad_checked(f, lo: float, hi: float, *, points=None, limit: int = 256) -> float:
    """Integrate ``f`` over [lo, hi] with adaptive Gauss-Legendre panels.

    ``f`` maps an array of nodes to an array of values.  ``lo`` must be
    finite; ``hi`` may be ``inf``, in which case ``s = lo + t/(1 - t)`` maps
    the range onto ``t in [0, 1)``.  The first panels run between the
    breakpoints ``points`` that lie inside (lo, hi).  Each level evaluates
    every open panel's halves (and, at the first level, the panel itself)
    in one call of ``f``; a panel closes when whole and halves agree within
    its width's share of 1e-11 times the integral of |f|, and its halves'
    sum is kept.  Raises NumericError on a non-finite integrand value, when
    more than ``limit`` panels are needed, or when the summed error
    estimate exceeds 1e-6 of the integral of |f|.
    """
    if not (math.isfinite(lo) and lo <= hi):
        raise DomainError(f"quadrature needs a finite lo <= hi, got [{lo}, {hi}]")
    if lo == hi:
        return 0.0
    span = f"[{lo}, {hi}]"
    cuts = sorted({float(p) for p in points or () if lo < p < hi})
    budget = max(limit, 2 * len(cuts) + 16)
    g = f
    if math.isinf(hi):

        def g(t, s0=lo):
            rest = 1.0 - t
            return f(s0 + t / rest) / (rest * rest)

        cuts = [(p - lo) / (1.0 + p - lo) for p in cuts]
        lo, hi = 0.0, 1.0
    a = np.array([lo, *cuts])
    b = np.array([*cuts, hi])
    whole = None
    kept_values: list = []
    kept_errors: list = []
    n_kept = 0
    while a.size:
        n = a.size
        mid = 0.5 * (a + b)
        starts, ends = np.concatenate([a, mid]), np.concatenate([mid, b])
        if whole is None:  # first level: the panels themselves, then halves
            est, mass = _gl_panels(g, np.concatenate([a, starts]),
                                   np.concatenate([b, ends]), span)
            whole, est = est[:n], est[n:]
            scale = float(mass[n:].sum())  # the integral of |f|
        else:
            est, _ = _gl_panels(g, starts, ends, span)
        left, right = est[:n], est[n:]
        err = np.abs(whole - (left + right))
        unsplittable = (mid <= a) | (mid >= b)
        done = (err <= _QUAD_RTOL * scale * (b - a) / (hi - lo)) | unsplittable
        kept_values.append((left + right)[done])
        kept_errors.append(err[done])
        n_kept += int(done.sum())
        split = ~done
        if n_kept + 2 * int(split.sum()) > budget:
            raise NumericError(
                f"quadrature on {span} exhausted its budget of {budget} panels"
            )
        a, b = starts[np.tile(split, 2)], ends[np.tile(split, 2)]
        whole = est[np.tile(split, 2)]
    value = math.fsum(np.concatenate(kept_values).tolist())
    error = math.fsum(np.concatenate(kept_errors).tolist())
    if error > _QUAD_FAIL_RTOL * scale:
        raise NumericError(
            f"quadrature did not converge on {span}: "
            f"value={value}, error estimate={error}"
        )
    return value


# ---------------------------------------------------------------------------
# split-support check


def check_split_support(dist: WeightDistribution, theta: float):
    """Test for support points ``u < theta/2 < v`` with ``u + v > theta``.

    When such a pair exists the threshold graph has genuinely interacting
    light and heavy vertices; otherwise it degenerates into isolated vertices
    plus one complete clique.  Returns ``(holds, witness)`` where ``witness``
    is a concrete ``(u, v)`` pair when ``holds``.

    Equivalent support formulation (with ``v_sup`` the essential supremum):
    the check holds iff the open intervals ``(theta/2, inf)`` and
    ``(theta - v_sup, theta/2)`` both carry support points, which is decided
    exactly through open-interval masses.
    """
    if not math.isfinite(theta):
        raise DomainError("theta must be finite")
    half = theta / 2.0
    lo_sup, hi_sup = dist.support()
    if dist.mass_open(half, math.inf) <= 0.0:
        return False, None
    u_lo = -math.inf if hi_sup == math.inf else theta - hi_sup
    if dist.mass_open(u_lo, half) <= 0.0:
        return False, None

    if dist.is_discrete:
        cand_u = [x for x, _ in dist.atoms() if u_lo < x < half]
        u = cand_u[-1]
        v = max(x for x, _ in dist.atoms())
    else:
        p_lo = 0.0 if u_lo == -math.inf else dist.cdf(u_lo)
        u = dist.quantile(0.5 * (p_lo + dist.cdf_left(half)))
        v_lo = max(half, theta - u)
        v = dist.quantile(0.5 * (dist.cdf(v_lo) + 1.0))
    assert u < half < v and u + v > theta
    return True, (u, v)
