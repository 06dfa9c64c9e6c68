"""Threshold graph samples and their order-statistics counting kernels.

Vertices ``i != j`` are adjacent iff ``weights[i] + weights[j] > theta``
(strict; a sum exactly at the threshold is no edge).  No adjacency matrix is
ever materialized.  A graph is one ascending, read-only weight array: every
counter reads only the sorted weights, so no draw-order labels are kept, and
a sampled graph is the sampler's draw itself, sorted in place.  A tagged
vertex is passed by its weight, counted against the graph of the others.

Counting identities used below, with weights sorted ascending
``w[0] <= ... <= w[n-1]`` and ``first(x)`` the first position p with
``w[p] + x > theta`` (a binary search, repaired where the rounding of
``theta - x`` crosses a weight, so the sum rule holds exactly):

* degree of a vertex of weight x: ``D = n - first(x) - [x + x > theta]``,
  the correction removing the self pairing;
* triangles: a triple is a triangle iff its two smallest weights already sum
  above theta, so ``T = sum over b of max(0, b - first(w[b])) * (n - 1 - b)``
  (the light partners a of b, times the third vertex after ``b``), summed
  over blocks of positions so that no temporary is n long;
* local triangles of a tagged vertex of weight x: its neighbours are the
  suffix ``w[first(x):]``, and its triangles are the pair count
  ``sum over b of max(0, b - first(w[b]))`` taken over that suffix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import WeightDistribution, parse_dist
from .errors import DomainError, check_count
from .stats import register_experiment

# Sorted positions per block of count_triangles: bounds its temporaries.
_TRIANGLE_BLOCK = 2**14


@dataclass(frozen=True)
class GraphSample:
    """The threshold and the n weights, ascending and read-only; edges are
    implicit via the sum rule."""

    theta: float
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.weights.size

    @classmethod
    def from_weights(cls, weights, theta: float) -> "GraphSample":
        """A graph on a copy of ``weights``; the caller's array is untouched."""
        return cls._in_place(np.array(weights, dtype=float), theta)

    @classmethod
    def _in_place(cls, w: np.ndarray, theta: float) -> "GraphSample":
        # Sorts the float array w in place and keeps it, read-only from now on.
        if w.ndim != 1 or w.size < 1:
            raise DomainError("weights must be a nonempty 1-D sequence")
        w.sort()
        w.flags.writeable = False
        return cls(theta=float(theta), weights=w)


def sample_graph(
    dist: WeightDistribution, n: int, theta: float, stream: np.random.Generator
) -> GraphSample:
    """Draw n i.i.d. weights; deterministic given the stream state.  The
    graph is the draw itself, sorted in place."""
    return GraphSample._in_place(dist.sample(stream, check_count(n, 1, "a graph")), theta)


def all_degrees(g: GraphSample) -> np.ndarray:
    """Degree of every vertex, in the order of ``g.weights``, O(n log n)."""
    w = g.weights
    return g.n - _first_adjacent(w, g.theta) - (w + w > g.theta)


def edge_count(g: GraphSample) -> int:
    return int(all_degrees(g).sum(dtype=np.int64)) // 2


def _first_adjacent(sw: np.ndarray, theta: float, q: np.ndarray | None = None) -> np.ndarray:
    """For each query weight x of ``q`` (default: ``sw`` itself), the first
    position p of the ascending weights ``sw`` with ``sw[p] + x > theta``.

    A binary search for ``theta - x`` can land off the sum rule where the
    rounding of ``theta - x`` crosses a weight; such positions are moved past
    whole runs of tied weights until the rule holds on both sides.
    """
    if q is None:
        q = sw
    n = sw.size
    first = np.searchsorted(sw, theta - q, side="right")
    below = np.empty_like(first)
    pair_sum = np.empty_like(q)  # buffers reused to keep the peak memory low
    while True:
        np.take(sw, first, mode="clip", out=pair_sum)
        pair_sum += q
        up = (pair_sum <= theta) & (first < n)
        np.subtract(first, 1, out=below)
        np.take(sw, below, mode="clip", out=pair_sum)
        pair_sum += q
        down = (pair_sum > theta) & (below >= 0)
        if not (up.any() or down.any()):
            return first
        first[up] = np.searchsorted(sw, sw[first[up]], side="right")
        first[down] = np.searchsorted(sw, sw[below[down]], side="left")


def count_triangles(g: GraphSample) -> int:
    """Number of unordered triangles, O(n log n).

    For each sorted position b, every position a < b with
    ``w[a] + w[b] > theta`` closes a triangle with each of the ``n - 1 - b``
    heavier vertices, because the pair (a, b) is then the light pair of the
    triple.  Positions are taken in blocks of ``_TRIANGLE_BLOCK``, so every
    temporary is block-sized.
    """
    n, sw = g.n, g.weights
    # each term is below n**2, so a chunk of 2**63 // n**2 terms cannot wrap
    step = max(1, 2**63 // (n * n))
    total = 0
    for s in range(0, n, _TRIANGLE_BLOCK):
        e = min(n, s + _TRIANGLE_BLOCK)
        terms = _first_adjacent(sw, g.theta, sw[s:e])
        b = np.arange(s, e, dtype=np.int64)
        np.subtract(b, terms, out=terms)  # light partners of each b, in place
        np.maximum(terms, 0, out=terms)
        terms *= np.subtract(n - 1, b, out=b)
        total += sum(int(terms[i:i + step].sum()) for i in range(0, e - s, step))
    return total


def count_local_triangles(g: GraphSample, x: float) -> int:
    """Triangles through a tagged vertex of weight ``x`` joined to ``g``: the
    adjacent pairs among its neighbours, counted off their sorted weights
    like ``count_triangles``."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"tagged weight must be finite, got {x}")
    w = g.weights
    nb = w[int(_first_adjacent(w, g.theta, np.array([x]))[0]):]
    pairs = np.arange(nb.size) - _first_adjacent(nb, g.theta)  # lighter partners
    return int(pairs[pairs > 0].sum())


def tagged_pair_degrees(
    dist: WeightDistribution, n: int, theta: float, stream: np.random.Generator
) -> tuple[int, int, bool]:
    """Degrees of two tagged vertices into a shared pool, plus their edge.

    Draws ``n + 2`` weights; the two tagged vertices (indices n, n+1) are
    counted only against the pool of the first n, never against each other,
    and the returned flag says whether they are themselves adjacent.
    """
    n = check_count(n, 1, "the tagged-pair degrees")
    w = dist.sample(stream, n + 2)
    pool = w[:n]
    d1 = int(np.count_nonzero(pool + w[n] > theta))
    d2 = int(np.count_nonzero(pool + w[n + 1] > theta))
    return d1, d2, bool(w[n] + w[n + 1] > theta)


# ---------------------------------------------------------------------------
# registered experiments


@register_experiment("degree")
def _degree_experiment(params: dict, streams) -> list:
    """D_n(1)/n for one fresh graph on n vertices per stream."""
    dist = parse_dist(params["dist"])
    n = check_count(params["n"], 1, "the degree fraction")
    theta = float(params["theta"])

    def fraction(stream):  # a local, so no draw outlives its replicate
        w = dist.sample(stream, n)
        return int(np.count_nonzero(w[1:] + w[0] > theta)) / n

    return [fraction(stream) for stream in streams]


@register_experiment("pair", columns=("d1_over_n", "d2_over_n", "edge"))
def _pair_experiment(params: dict, streams) -> list:
    dist = parse_dist(params["dist"])
    n = check_count(params["n"], 1, "the tagged-pair degree fraction")
    theta = float(params["theta"])
    rows = []
    for stream in streams:
        d1, d2, edge = tagged_pair_degrees(dist, n, theta, stream)
        rows.append((d1 / n, d2 / n, 1.0 if edge else 0.0))
    return rows


@register_experiment("triangles")
def _triangle_experiment(params: dict, streams) -> list:
    """T_n / C(n,3) for one fresh graph per stream."""
    dist = parse_dist(params["dist"])
    n = check_count(params["n"], 3, "the triangle density")
    theta = float(params["theta"])
    return [count_triangles(sample_graph(dist, n, theta, stream)) / math.comb(n, 3)
            for stream in streams]


@register_experiment("local")
def _local_triangle_experiment(params: dict, streams) -> list:
    """Triangles at vertex 1 among n+1 vertices, normalized by C(n,2), per
    stream: the first of n + 1 draws is tagged, the other n are the pool."""
    dist = parse_dist(params["dist"])
    n = check_count(params["n"], 2, "the local triangle density")
    theta = float(params["theta"])

    def density(stream):  # a local, so no draw outlives its replicate
        w = dist.sample(stream, n + 1)
        return count_local_triangles(GraphSample._in_place(w[1:], theta), w[0]) / math.comb(n, 2)

    return [density(stream) for stream in streams]
