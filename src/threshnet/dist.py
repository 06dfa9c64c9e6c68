"""Weight laws: CDF/quantile/sampling, expectations against the law, and the
split-support check.

A :class:`WeightDistribution` is an immutable value describing one of four
parametric kinds:

====================  =============================  =========================
kind                  params                         support
====================  =============================  =========================
``uniform``           ``(a, b)``                     ``[a, b]``
``exponential``       ``(rate,)``                    ``[0, inf)``
``pareto``            ``(scale_c, alpha)``           ``[scale_c**(1/alpha), inf)``
``discrete``          ``((x1, p1), (x2, p2), ...)``  atom set
====================  =============================  =========================

The pareto kind has CDF ``1 - scale_c * x**(-alpha)`` on its support.
:func:`two_point` and :func:`point_mass` build ``discrete`` laws of two atoms
and of one.

Sampling is the inverse transform of ``stream.random``.  An array draw is
transformed in place by the same formulas as the quantile, so the returned
array is the only one of the draw's size; a scalar draw is a Python float.

Expectations against the law run in the tail level ``v = sf(x)``: for a
continuous law :func:`expect_rows`, the one partial expectation
E[g(X); lo < X <= hi], integrates ``g(isf(v))`` over [sf(hi), sf(lo)], so
unbounded supports need no truncation and no node rounds onto an infinite
upper end; a lower support end is finite, and v resolves it only to the
spacing of floats near 1, about 1.1e-16.  Atom laws sum atoms exactly.

One integrator does all the quadrature: :func:`quad_checked`, composite
21-node Gauss-Legendre panels on a finite ``[lo, hi]`` that start at the
caller's breakpoints and are refined by halving, every level in one call of
the integrand.  Given arrays of bounds it integrates all rows in one batch,
each row exactly as a call of its own.  :func:`expect_rows` runs it on one
row per range; :func:`expectation` runs :func:`expect_rows` on two seed
partitions in one batch and certifies the value by their agreement.

Every integrand is elementwise: it maps an array of points to an array of
values (a constant is broadcast), and its value at a point must not depend
on the other points of the array.  :func:`expectation` calls ``g`` on 1-D
arrays of at most 168 quadrature nodes, or once on all atoms of a discrete
law.  Only numpy is needed at run time, and the 21-node rule is written out,
so ``numpy.polynomial`` is never imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError

# Probability tolerance for validating discrete weights.
_PROB_TOL = 1e-12

# Values per block of an in-place array draw: bounds its index temporaries.
_SAMPLE_BLOCK = 2**16


@dataclass(frozen=True)
class WeightDistribution:
    """One weight law; see the module docstring for the kind/params table."""

    kind: str
    params: tuple

    # -- structure ---------------------------------------------------------

    @property
    def is_discrete(self) -> bool:
        return self.kind == "discrete"

    def atoms(self) -> tuple[tuple[float, float], ...]:
        """(value, probability) pairs, ascending by value; discrete laws only."""
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
        return self.atoms()[0][0], self.atoms()[-1][0]

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
            vals, cum, _ = self._atom_tables()
            out = cum[np.searchsorted(vals, xv, side="right")]
        return float(out) if np.isscalar(x) or xv.ndim == 0 else out

    def sf(self, x):
        """P(X > x).  Every kind evaluates the tail itself, not
        ``1 - cdf(x)``, which rounds away an upper tail below about 1e-16:
        atom laws take their masses cumulated from the top."""
        xv = np.asarray(x, dtype=float)
        if self.kind == "uniform":
            a, b = self.params
            out = np.clip((b - xv) / (b - a), 0.0, 1.0)
        elif self.kind == "exponential":
            (rate,) = self.params
            out = np.exp(-rate * np.maximum(xv, 0.0))
        elif self.kind == "pareto":
            c, alpha = self.params
            xm = c ** (1.0 / alpha)
            out = np.where(xv < xm, 1.0, c * np.maximum(xv, xm) ** (-alpha))
        else:
            vals, _, tail = self._atom_tables()
            out = tail[np.searchsorted(vals, xv, side="right")]
        return float(out) if np.isscalar(x) or xv.ndim == 0 else out

    def _ppf(self, u, out=None):
        # The generalized inverse CDF inf{x : F(x) >= u} for 0 < u < 1, and
        # the lower support bound at u = 0, which the sampler can draw.  With
        # ``out`` (an array of u's shape, u itself allowed) the quantiles are
        # written there; without it the input is never changed.
        if self.kind == "uniform":
            a, b = self.params
            x = np.multiply(u, b - a, out=out)
            x += a
            return x
        if self.kind == "exponential":
            (rate,) = self.params
            x = np.negative(np.log1p(np.negative(u, out=out), out=out), out=out)
            x /= rate
            return x
        if self.kind == "pareto":
            c, alpha = self.params
            x = np.divide(c, np.subtract(1.0, u, out=out), out=out)
            if np.ndim(x) == 0:
                # a scalar keeps Python's power: numpy's array power rounds
                # differently, and Python's raises on overflow
                try:
                    return float(x) ** (1.0 / alpha)
                except OverflowError:
                    raise NumericError(
                        f"pareto:{c!r},{alpha!r} quantile at u = {float(u)!r} "
                        "overflows a float") from None
            with np.errstate(over="ignore"):  # a quantile beyond the floats is inf
                x **= 1.0 / alpha
            return x
        vals, cum, _ = self._atom_tables()
        return np.take(vals, np.searchsorted(cum[1:], u, side="left"), out=out)

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
            with np.errstate(over="ignore", divide="ignore"):  # beyond the floats: inf
                return (c / v) ** (1.0 / alpha)
        raise DomainError(f"{self.kind} law has no upper-tail quantile")

    def _atom_tables(self):
        # values; P(X <= x) and P(X > x) at index searchsorted(vals, x, "right")
        vals, probs = (np.array(column) for column in zip(*self.atoms()))
        cum = np.concatenate([[0.0], np.cumsum(probs)])
        tail = np.concatenate([np.cumsum(probs[::-1])[::-1], [0.0]])
        cum[-1] = tail[0] = 1.0  # snap away the summation residual
        return vals, cum, tail

    # -- sampling ----------------------------------------------------------

    def sample(self, stream: np.random.Generator, size=None):
        """Draw from the law by inverse transform of ``stream.random``; an
        array draw is transformed in place, ``_SAMPLE_BLOCK`` values at a time."""
        u = stream.random(size)
        if size is None:
            return float(self._ppf(u))
        flat = u.reshape(-1)
        for start in range(0, flat.size, _SAMPLE_BLOCK):
            block = flat[start:start + _SAMPLE_BLOCK]
            self._ppf(block, out=block)
        return u

    # -- misc --------------------------------------------------------------

    def has_finite_abs_moment(self, order: float) -> bool:
        """Whether E[|X|**order] is finite."""
        if self.kind == "pareto":
            return order < self.params[1]
        return True  # bounded support or exponential tail


# ---------------------------------------------------------------------------
# constructors


def uniform(a: float, b: float) -> WeightDistribution:
    if not (a < b and math.isfinite(b - a)):  # an infinite or nan end fails too
        raise DomainError("uniform requires finite a < b whose width b - a is a finite float")
    return WeightDistribution("uniform", (float(a), float(b)))


def exponential(rate: float) -> WeightDistribution:
    if not (0.0 < rate < math.inf and math.isfinite(1.0 / rate)):
        raise DomainError("exponential requires a finite rate > 0 whose 1/rate is a finite float")
    return WeightDistribution("exponential", (float(rate),))


def pareto(scale_c: float, alpha: float) -> WeightDistribution:
    if not (0.0 < scale_c < math.inf and 0.0 < alpha < math.inf):
        raise DomainError("pareto requires finite scale_c > 0 and alpha > 0")
    with np.errstate(over="ignore"):  # the lower support bound; an overflow gives inf
        low = np.float64(scale_c) ** (1.0 / alpha)
    if not 0.0 < low < math.inf:
        raise DomainError(f"pareto needs 0 < scale_c**(1/alpha) < inf in floats, got {low}")
    return WeightDistribution("pareto", (float(scale_c), float(alpha)))


def two_point(x1: float, p1: float, x2: float) -> WeightDistribution:
    if not (math.isfinite(x1) and math.isfinite(x2) and x1 < x2):
        raise DomainError("two_point requires finite x1 < x2")
    if not 0.0 < p1 < 1.0:
        raise DomainError("two_point requires 0 < p1 < 1")
    return finite_discrete([(x1, p1), (x2, 1.0 - p1)])


def finite_discrete(atoms) -> WeightDistribution:
    pairs = tuple(sorted((float(x), float(p)) for x, p in atoms))
    if not pairs:
        raise DomainError("discrete law needs at least one atom")
    xs = [x for x, _ in pairs]
    if len(set(xs)) != len(xs):
        raise DomainError("discrete atoms must be distinct")
    if not all(math.isfinite(x) and 0.0 < p < math.inf for x, p in pairs):
        raise DomainError("discrete atoms must be finite with positive probabilities")
    if abs(math.fsum(p for _, p in pairs) - 1.0) > _PROB_TOL:
        raise DomainError("atom probabilities must sum to 1")
    return WeightDistribution("discrete", pairs)


def point_mass(c: float) -> WeightDistribution:
    if not math.isfinite(c):
        raise DomainError("point mass requires a finite value")
    return finite_discrete([(c, 1.0)])


# The spec names whose argument is a comma-separated list of numbers.
_SPEC_CONSTRUCTORS = {"uniform": uniform, "exp": exponential, "pareto": pareto,
                      "twopoint": two_point, "point": point_mass}


def parse_dist(spec: str) -> WeightDistribution:
    """Parse a distribution spec string.

    Formats: ``uniform:a,b`` | ``exp:rate`` | ``pareto:C,alpha`` |
    ``twopoint:x1,p1,x2`` | ``discrete:x1:p1,x2:p2,...`` | ``point:c``.
    """
    try:
        name, _, arg = spec.partition(":")
        name = name.strip().lower()
        if name == "discrete":
            return finite_discrete([(float(x), float(p)) for x, p in
                                    (item.split(":") for item in arg.split(","))])
        if name in _SPEC_CONSTRUCTORS:
            return _SPEC_CONSTRUCTORS[name](*(float(t) for t in arg.split(",")))
    except DomainError:
        raise
    except Exception as exc:
        raise DomainError(f"malformed distribution spec {spec!r}: {exc}") from exc
    raise DomainError(f"unknown distribution kind in spec {spec!r}")


# ---------------------------------------------------------------------------
# expectations


def _values_at(g, xs, what: str):
    """``g`` on the node array ``xs`` in one call, broadcast to its shape and
    checked finite."""
    vals = np.broadcast_to(np.asarray(g(xs), dtype=float), xs.shape)
    bad = ~np.isfinite(vals)
    if bad.any():
        raise NumericError(f"integrand not finite at {what}={xs[bad][0]}")
    return vals


def expectation(dist: WeightDistribution, g) -> float:
    """Integrate ``g`` against the weight law.

    Discrete kinds sum atoms exactly through :func:`expect_rows`.
    Continuous kinds run each seed partition, k equal cells of the tail
    level cut at the weights ``isf(j/k)``, as two :func:`expect_rows` rows
    split at ``isf((k//2)/k)``; the 8- and 7-cell passes share a batch.
    ``g`` is elementwise: it maps a 1-D array of weights (at most
    ``_NODES_PER_CALL`` nodes, or all atoms of a discrete law) to an array
    of values of the same shape, or to a constant, and must be finite
    wherever the law has mass.
    """
    if dist.is_discrete:
        return expect_rows(dist, g, -math.inf, math.inf)

    def chunked(xs):
        return np.concatenate([_values_at(g, xs[i:i + _NODES_PER_CALL], "x")
                               for i in range(0, xs.size, _NODES_PER_CALL)])

    def passes(seed_counts):
        # rows (middle edge, inf] and (-inf, middle edge] of each partition
        edges = np.full((2 * len(seed_counts), max(seed_counts) - 1), np.nan)
        lo, hi = np.full(edges.shape[0], -math.inf), np.full(edges.shape[0], math.inf)
        for i, k in enumerate(seed_counts):
            edges[2 * i:2 * i + 2, :k - 1] = dist._isf(np.arange(1, k) / k)
            lo[2 * i] = hi[2 * i + 1] = edges[2 * i, k // 2 - 1]
        values = expect_rows(dist, chunked, lo, hi, points=edges)
        return (values[0::2] + values[1::2]).tolist()

    # Two passes over incommensurate seed partitions.  A jump of g can hide
    # only in the node-free sliver beside a persistent panel edge of one
    # partition; the seed edges of the other partition fall elsewhere, so
    # agreement certifies the value.
    first, second = passes((8, 7))
    if abs(first - second) <= 5e-9 * max(1.0, abs(first)):
        return 0.5 * (first + second)
    (third,) = passes((11,))
    candidates = sorted([first, second, third])
    if candidates[1] - candidates[0] <= candidates[2] - candidates[1]:
        close = (candidates[0], candidates[1])
    else:
        close = (candidates[1], candidates[2])
    if abs(close[0] - close[1]) <= 5e-9 * max(1.0, abs(close[1])):
        return 0.5 * (close[0] + close[1])
    raise NumericError("quadrature passes disagree; integrand too irregular")


def expect_rows(dist: WeightDistribution, g, lo, hi, *, points=None, args=(),
                tail_power: float = 1.0):
    """E[g(X, *args); lo < X <= hi] for each row of the ranges.

    ``lo``, ``hi`` (either may be infinite) and the arrays in ``args``
    broadcast to m rows; ``g`` is elementwise, called with each weight's row
    arguments.  Atom laws sum the atoms in each range with ``math.fsum``.
    Continuous laws run one :func:`quad_checked` batch in the tail level
    ``v = sf(x)`` over [sf(hi), sf(lo)], nodes mapped through the upper-tail
    quantile, cut at ``sf(points)`` (weights, 1-D or (m, p) padded with NaN);
    with ``tail_power`` p the rows run in ``v**(1/p)`` instead, which smooths
    a singularity of g like ``v**(1/p - 1)`` at v = 0.  Raises NumericError,
    naming the atom or node, where ``g`` is not finite.  Returns a float for
    scalar inputs, else an array of the broadcast shape.
    """
    lo, hi, *extra = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                         np.asarray(hi, dtype=float), *args)
    shape = lo.shape
    lo, hi, *extra = (np.ravel(a) for a in (lo, hi, *extra))
    if dist.is_discrete:
        xs, ps = (np.array(column) for column in zip(*dist.atoms()))
        rows, cols = np.nonzero((xs > lo[:, None]) & (xs <= hi[:, None]))
        terms = np.zeros((lo.size, xs.size))
        terms[rows, cols] = ps[cols] * _values_at(
            lambda w: g(w, *(a[rows] for a in extra)), xs[cols], "atom x")
        values = np.array([math.fsum(row) for row in terms.tolist()])
    else:
        power = float(tail_power)

        def integrand(t, *row_args):
            x = dist._isf(v := t**power)
            if np.isinf(x).any():  # the least level has the largest quantile
                raise NumericError(f"{dist.kind}:{','.join(map(repr, dist.params))} quantile "
                                   f"at tail level {float(v.min())!r} overflows a float")
            return power * t ** (power - 1.0) * g(x, *row_args)

        def level(x):  # sf(x) ** (1/p), the row variable at weight x
            return dist.sf(np.asarray(x, dtype=float)) ** (1.0 / power)

        top = level(lo)
        values = quad_checked(integrand, np.minimum(level(hi), top), top,
                              points=None if points is None else level(points), args=extra)
    return float(values[0]) if not shape else values.reshape(shape)


# Nodes in one call of an expectation's integrand.  It bounds the memory of
# integrands that run a batched quadrature per node.
_NODES_PER_CALL = 168


# The 21-point Gauss-Legendre rule on [-1, 1], as numpy.polynomial's
# leggauss(21) gives it, written out so that neither that module nor the
# eigenvalue solve behind it runs at import.
_GL_NODES = np.array([
    -0.9937521706203895, -0.9672268385663063, -0.9200993341504008,
    -0.8533633645833173, -0.7684399634756779, -0.6671388041974123,
    -0.5516188358872198, -0.4243421202074388, -0.2880213168024011,
    -0.1455618541608951, 0.0, 0.1455618541608951,
    0.2880213168024011, 0.4243421202074388, 0.5516188358872198,
    0.6671388041974123, 0.7684399634756779, 0.8533633645833173,
    0.9200993341504008, 0.9672268385663063, 0.9937521706203895,
])
_GL_WEIGHTS = np.array([
    0.01601722825777436, 0.03695378977085188, 0.05713442542685717,
    0.07610011362837911, 0.09344442345603395, 0.1087972991671484,
    0.12183141605372864, 0.13226893863333763, 0.1398873947910734,
    0.14452440398997027, 0.1460811336496907, 0.14452440398997027,
    0.1398873947910734, 0.13226893863333763, 0.12183141605372864,
    0.1087972991671484, 0.09344442345603395, 0.07610011362837911,
    0.05713442542685717, 0.03695378977085188, 0.01601722825777436,
])

# Panels close at this error, relative to the integral of |f| and shared out
# by width, or at the floors below it: an error of _QUAD_FLOOR_RTOL of the
# integral of |f|, or a width of _QUAD_MIN_WIDTH of the row.  A row's summed
# error estimate above _QUAD_FAIL_RTOL raises, and so does a row that needs more
# than _QUAD_PANELS panels.
_QUAD_RTOL = 1e-11
_QUAD_FLOOR_RTOL = 1e-13
_QUAD_MIN_WIDTH = 1e-14
_QUAD_FAIL_RTOL = 1e-6
_QUAD_PANELS = 256


def quad_checked(f, lo, hi, *, points=None, args=()):
    """Integrate ``f`` over [lo, hi] with adaptive Gauss-Legendre panels.

    ``f`` is elementwise: it maps an array of nodes to an array of values.
    ``lo`` and ``hi`` are floats, or arrays of m rows (broadcast together)
    that are integrated in one batch; ``points`` is then either 1-D and
    shared by every row or of shape (m, p), padded with NaN, and each array
    in ``args`` holds one value per row, gathered onto that row's nodes, so
    ``f`` is called as ``f(nodes, *(a[row] for a in args))``.

    ``lo`` and ``hi`` must be finite.  A row's first panels run between its
    breakpoints that lie inside (lo, hi), all rows in one call of ``f``.
    Each level evaluates every open panel's halves of every row in one call
    of ``f``; a panel closes when whole and halves agree within its width's
    share of 1e-11 times its row's integral of |f|, or within 1e-13 of that
    integral, or when it is at most 1e-14 of its row's width, and its
    halves' sum is kept.  That integral is the largest of the levels'
    estimates (kept panels plus open halves), so mass that the first nodes
    barely reach, such as a narrow peak, raises the scale instead of holding
    every panel to a tolerance far below rounding.  Each row returns the
    ``fsum`` of its own kept panels, so it equals a call on that row alone
    bit for bit.  Raises NumericError, naming the row's span, on a
    non-finite integrand value, when a row needs more than ``_QUAD_PANELS``
    panels, or when a row's summed error estimate exceeds 1e-6 of its
    integral of |f|, and DomainError on an infinite bound or ``lo > hi``.
    Returns a float for scalar ``lo`` and ``hi``, else an array.
    """
    scalar = np.ndim(lo) == 0 and np.ndim(hi) == 0
    los, his = (v.tolist() for v in np.broadcast_arrays(
        np.ravel(lo).astype(float), np.ravel(hi).astype(float)))
    m = len(los)
    pts = np.asarray([] if points is None else points, dtype=float)
    cut_rows = pts.tolist() if pts.ndim == 2 else [pts.tolist()] * m

    def span(i):
        return f"[{los[i]}, {his[i]}]"

    # each row's first panels run between its cuts
    a0, b0, rows0 = [], [], []
    for i, (l, h) in enumerate(zip(los, his)):
        if not (math.isfinite(l) and math.isfinite(h) and l <= h):
            raise DomainError(f"quadrature needs a finite lo <= hi, got {span(i)}")
        if l == h:
            continue
        cuts = sorted({p for p in cut_rows[i] if l < p < h})
        a0 += [l, *cuts]
        b0 += [*cuts, h]
        rows0 += [i] * (len(cuts) + 1)
    values = np.zeros(m)
    if not a0:
        return float(values[0]) if scalar else values
    extra = [np.asarray(arg) for arg in args]
    nodes_per_panel = _GL_NODES.size

    def panels(starts, ends, rows):
        # Gauss-Legendre values of f and of |f| on every panel, from one
        # call of f on the array of all their nodes.
        half = 0.5 * (ends - starts)
        t = (starts + half)[:, None] + half[:, None] * _GL_NODES
        vals = np.asarray(
            f(t.ravel(), *(np.repeat(arg[rows], nodes_per_panel) for arg in extra)),
            dtype=float,
        )
        vals = np.broadcast_to(vals, t.size).reshape(t.shape)
        if not np.isfinite(vals).all():
            k = int(np.flatnonzero(~np.isfinite(vals))[0])
            raise NumericError(f"integrand not finite at node {t.flat[k]} of "
                               f"{span(rows[k // nodes_per_panel])}")
        return (half * (vals * _GL_WEIGHTS).sum(axis=1),
                half * (np.abs(vals) * _GL_WEIGHTS).sum(axis=1))

    a, b, row = np.array(a0), np.array(b0), np.array(rows0)
    whole, _ = panels(a, b, row)
    width = np.subtract(his, los)
    n_kept = np.zeros(m, dtype=np.int64)
    # each row's integral of |f|, the largest of its levels' estimates
    scale, kept_mass = np.zeros(m), np.zeros(m)
    kept_values, kept_errors, kept_rows = [], [], []
    while True:
        n = a.size
        mid = 0.5 * (a + b)
        est, halves = panels(np.concatenate([a, mid]), np.concatenate([mid, b]),
                             np.concatenate([row, row]))
        left, right = est[:n], est[n:]
        pair_mass = halves[:n] + halves[n:]
        scale = np.maximum(scale, kept_mass + np.bincount(row, pair_mass, minlength=m))
        err = np.abs(whole - (left + right))
        unsplittable = (mid <= a) | (mid >= b) | (b - a <= _QUAD_MIN_WIDTH * width[row])
        tol = np.maximum(_QUAD_RTOL * (b - a) / width[row], _QUAD_FLOOR_RTOL) * scale[row]
        done = (err <= tol) | unsplittable
        kept_values.append((left + right)[done])
        kept_errors.append(err[done])
        kept_rows.append(row[done])
        n_kept += np.bincount(row[done], minlength=m)
        kept_mass += np.bincount(row[done], pair_mass[done], minlength=m)
        split = ~done
        if not split.any():
            break
        over = n_kept + 2 * np.bincount(row[split], minlength=m) > _QUAD_PANELS
        if over.any():
            i = int(np.flatnonzero(over)[0])
            raise NumericError(
                f"quadrature on {span(i)} exhausted its budget of {_QUAD_PANELS} panels")
        a = np.concatenate([a[split], mid[split]])
        b = np.concatenate([mid[split], b[split]])
        whole = est[np.concatenate([split, split])]
        row = np.concatenate([row[split], row[split]])
    kept_rows = np.concatenate(kept_rows)
    order = np.argsort(kept_rows)
    ends = np.cumsum(np.bincount(kept_rows, minlength=m)).tolist()
    kept_values = np.concatenate(kept_values)[order].tolist()
    kept_errors = np.concatenate(kept_errors)[order].tolist()
    for i, end in enumerate(ends):
        start = ends[i - 1] if i else 0
        if start == end:
            continue
        values[i] = value = math.fsum(kept_values[start:end])
        error = math.fsum(kept_errors[start:end])
        if error > _QUAD_FAIL_RTOL * scale[i]:
            raise NumericError(f"quadrature did not converge on {span(i)}: "
                               f"value={value}, error estimate={error}")
    return float(values[0]) if scalar else values


# ---------------------------------------------------------------------------
# split-support check


def check_split_support(dist: WeightDistribution, theta: float):
    """Test for support points ``u < theta/2 < v`` with ``u + v > theta``.

    When such a pair exists the threshold graph has genuinely interacting
    light and heavy vertices; otherwise it degenerates into isolated vertices
    plus one complete clique.  Returns ``(holds, witness)``, ``witness`` a
    concrete ``(u, v)`` pair when ``holds``.

    The verdict comes from the support bounds, ``inf < theta/2 < sup``.  The
    witness pairs the top atom with the largest atom below theta/2 that
    reaches it, or for a continuous law takes ``u`` at the middle level of
    (theta - sup, theta/2) and ``v`` at half the tail beyond
    ``max(theta/2, theta - u)``.  A witness that fails in floats gives
    ``(False, None)``: where theta - sup and theta/2 are adjacent floats no
    pair of float weights makes a light-heavy edge, and where that tail
    underflows (exp:1 beyond theta = 745) no float weight carries its mass.
    """
    if not math.isfinite(theta):
        raise DomainError("theta must be finite")
    half = theta / 2.0
    lo, hi = dist.support()
    if not lo < half < hi:
        return False, None
    if dist.is_discrete:
        u = max([x for x, _ in dist.atoms() if x < half and x + hi > theta], default=lo)
        v = hi
    else:
        u = float(dist._ppf(0.5 * (dist.cdf(theta - hi) + dist.cdf(half))))
        with np.errstate(divide="ignore", over="ignore"):  # a tail below floats: v = inf
            v = float(dist._isf(np.float64(0.5 * dist.sf(max(half, theta - u)))))
    if u < half < v < math.inf and u + v > theta:
        return True, (u, v)
    return False, None
