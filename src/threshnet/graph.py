"""Threshold graph samples and their order-statistics counting kernels.

Vertices ``i != j`` are adjacent iff ``weights[i] + weights[j] > theta``
(strict; a sum exactly at the threshold is no edge).  No adjacency matrix is
ever materialized: every statistic runs off the ascending copy of the
weights (a plain sort; no permutation is kept).  A sampled graph holds the
sampler's draw itself, never a copy of it; the triangle count of a fresh
draw (:func:`sampled_triangle_count`) sorts the draw in place and keeps no
draw-order labels, so one n-long array is all it holds.

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
* local triangles of a vertex: the same pair count ``sum over b of
  max(0, b - first(w[b]))`` taken over the sorted weights of its neighbours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dist import WeightDistribution, parse_dist
from .errors import DomainError
from .stats import register_experiment

# Sorted positions per block of count_triangles: bounds its temporaries.
_TRIANGLE_BLOCK = 2**14


@dataclass(frozen=True)
class GraphSample:
    """n weights plus the threshold; edges are implicit via the sum rule."""

    n: int
    theta: float
    weights: np.ndarray
    sorted_weights: np.ndarray = field(repr=False)  # weights in ascending order

    @classmethod
    def from_weights(cls, weights, theta: float) -> "GraphSample":
        """A graph on a copy of ``weights``; the caller's array is untouched."""
        return cls._of_draw(np.array(weights, dtype=float), theta)

    @classmethod
    def _of_draw(cls, w: np.ndarray, theta: float) -> "GraphSample":
        # Takes the float array w itself as the weights, read-only from now on.
        if w.ndim != 1 or w.size < 1:
            raise DomainError("weights must be a nonempty 1-D sequence")
        sw = np.sort(w)
        for arr in (w, sw):
            arr.flags.writeable = False
        return cls(n=int(w.size), theta=float(theta), weights=w, sorted_weights=sw)


def sample_graph(
    dist: WeightDistribution, n: int, theta: float, stream: np.random.Generator
) -> GraphSample:
    """Draw n i.i.d. weights; deterministic given the stream state.  The
    graph holds the draw itself, in draw order, plus its sorted copy."""
    if n < 1:
        raise DomainError("graph needs at least one vertex")
    return GraphSample._of_draw(dist.sample(stream, n), theta)


def sampled_triangle_count(
    dist: WeightDistribution, n: int, theta: float, stream: np.random.Generator
) -> int:
    """Triangles of a fresh graph on n weights, the same count as
    ``count_triangles(sample_graph(...))`` from the same stream state.  The
    draw is sorted in place and counted as is, vertices labelled in weight
    order, so it is the one n-long array held."""
    w = dist.sample(stream, n)
    w.sort()
    w.flags.writeable = False
    return count_triangles(GraphSample(n=n, theta=float(theta), weights=w, sorted_weights=w))


def all_degrees(g: GraphSample) -> np.ndarray:
    """Degree of every vertex, O(n log n) total."""
    w = g.weights
    return g.n - _first_adjacent(g.sorted_weights, g.theta, w) - (w + w > g.theta)


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
    n, sw = g.n, g.sorted_weights
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


def count_local_triangles(g: GraphSample, vertex: int) -> int:
    """Triangles through one vertex (1-based): the adjacent pairs among its
    neighbours, counted off their sorted weights like ``count_triangles``."""
    if not 1 <= vertex <= g.n:
        raise DomainError(f"vertex must be in 1..{g.n}")
    xi = float(g.weights[vertex - 1])
    sw = g.sorted_weights
    # sw + xi is ascending, so the neighbours are a suffix of sw
    nb = sw[int(_first_adjacent(sw, g.theta, np.array([xi]))[0]):]
    if 2.0 * xi > g.theta:
        # the vertex itself is among its neighbours; drop one copy
        nb = np.delete(nb, np.searchsorted(nb, xi))
    first = _first_adjacent(nb, g.theta)
    pairs = np.arange(nb.size) - first  # lighter partners of each neighbour
    return int(pairs[pairs > 0].sum())


def tagged_pair_degrees(
    dist: WeightDistribution, n: int, theta: float, stream: np.random.Generator
) -> tuple[int, int, bool]:
    """Degrees of two tagged vertices into a shared pool, plus their edge.

    Draws ``n + 2`` weights; the two tagged vertices (indices n, n+1) are
    counted only against the pool of the first n, never against each other,
    and the returned flag says whether they are themselves adjacent.
    """
    if n < 1:
        raise DomainError("pool size must be >= 1")
    w = dist.sample(stream, n + 2)
    pool = w[:n]
    d1 = int(np.count_nonzero(pool + w[n] > theta))
    d2 = int(np.count_nonzero(pool + w[n + 1] > theta))
    return d1, d2, bool(w[n] + w[n + 1] > theta)


def check_vertex_count(n, minimum: int, what: str) -> int:
    """``n`` as an int, or a DomainError naming the least n that ``what``
    is defined for."""
    n = int(n)
    if n < minimum:
        raise DomainError(f"{what} needs n >= {minimum}, got n = {n}")
    return n


# ---------------------------------------------------------------------------
# registered experiments


@register_experiment("degree")
def _degree_experiment(params: dict, streams) -> list:
    """D_n(1)/n for one fresh graph on n vertices per stream."""
    dist = parse_dist(params["dist"])
    n = check_vertex_count(params["n"], 1, "the degree fraction")
    theta = float(params["theta"])

    def fraction(stream):  # a local, so no draw outlives its replicate
        w = dist.sample(stream, n)
        return int(np.count_nonzero(w[1:] + w[0] > theta)) / n

    return [fraction(stream) for stream in streams]


@register_experiment("pair", columns=("d1_over_n", "d2_over_n", "edge"))
def _pair_experiment(params: dict, streams) -> list:
    dist = parse_dist(params["dist"])
    n = int(params["n"])
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
    n = check_vertex_count(params["n"], 3, "the triangle density")
    theta = float(params["theta"])
    return [sampled_triangle_count(dist, n, theta, stream) / math.comb(n, 3)
            for stream in streams]


@register_experiment("local")
def _local_triangle_experiment(params: dict, streams) -> list:
    """Triangles at vertex 1 among n+1 vertices, normalized by C(n,2), per
    stream."""
    dist = parse_dist(params["dist"])
    n = check_vertex_count(params["n"], 2, "the local triangle density")
    theta = float(params["theta"])
    return [count_local_triangles(sample_graph(dist, n + 1, theta, stream), 1)
            / math.comb(n, 2) for stream in streams]
