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
* a weight w is heavy iff ``w + w > theta`` (the float self pairing; theta / 2
  rounds for subnormal theta, so it is only where the search for the cut
  starts), else light.  Float
  sums round monotonically, so any two heavies are adjacent and no two
  lights are: the heavies H are a clique, the lights an independent set, and
  a triangle has at most one light vertex.  With ``d_H(l)`` the number of
  heavies adjacent to a light l, the triangles are
  ``T = C(|H|, 3) + sum over lights l of C(d_H(l), 2)``;
* local triangles of a tagged vertex of weight x: ``C(d_H(x), 2)`` if x is
  light; if x is heavy, ``C(|H|, 2)`` plus ``d_H(l)`` summed over the lights
  l adjacent to x (a suffix of the lights);
* ``d_H`` from the least weight m: a "top" heavy with ``h + m > theta`` is
  adjacent to every light, so ``d_H(l) = |top| + |mid| - first_mid(l)``
  over the ascending "mid" heavies alone (``h + m <= theta``).  A sampled
  triangle count (:func:`sample_triangle_count`) holds only those.

Every counter walks its positions in blocks of ``_COUNT_BLOCK``, so besides
the weights (and the n degrees that :func:`all_degrees` returns) it holds one
block of temporaries whatever n is; each sum of ``C(d_H, 2)`` is taken in
chunks that cannot wrap int64.  The sampled triangle count and the ``degree``
experiment walk their draws through :meth:`WeightDistribution.blocks`, so they
hold one block of it and end the stream where one whole-array draw would.
A weight sum beyond the floats is inf, which still compares above theta, so
the counters form their sums with numpy's overflow warning off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import WeightDistribution, parse_dist
from .errors import DomainError, check_count
from .stats import register_experiment

# Sorted positions per block of every counter: bounds their temporaries.
_COUNT_BLOCK = 2**12


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


@np.errstate(over="ignore")
def all_degrees(g: GraphSample) -> np.ndarray:
    """Degree of every vertex, in the order of ``g.weights``, O(n log n)."""
    w, degrees = g.weights, np.empty(g.n, dtype=np.int64)
    for s in range(0, g.n, _COUNT_BLOCK):
        q = w[s:s + _COUNT_BLOCK]
        np.subtract(g.n - _first_adjacent(w, g.theta, q), q + q > g.theta,
                    out=degrees[s:s + q.size])
    return degrees


def edge_count(g: GraphSample) -> int:
    return int(all_degrees(g).sum(dtype=np.int64)) // 2


@np.errstate(over="ignore")
def _first_adjacent(sw: np.ndarray, theta: float, q: np.ndarray) -> np.ndarray:
    """For each query weight x of ``q``, the first position p of the
    ascending weights ``sw`` with ``sw[p] + x > theta``.

    A binary search for ``theta - x`` can land off the sum rule where the
    rounding of ``theta - x`` crosses a weight; such positions are moved past
    whole runs of tied weights until the rule holds on both sides.
    """
    n = sw.size
    first = np.searchsorted(sw, theta - q, side="right")
    if not n:
        return first
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


@np.errstate(over="ignore")
def _count_adjacent(w: np.ndarray, x, theta: float) -> int:
    """How many weights of ``w`` are adjacent to a weight ``x``, counted one
    ``_COUNT_BLOCK`` at a time."""
    return sum(int(np.count_nonzero(w[s:s + _COUNT_BLOCK] + x > theta))
               for s in range(0, w.size, _COUNT_BLOCK))


def _first_heavy(sw: np.ndarray, theta: float) -> int:
    """The number of light weights, those with ``w + w <= theta``: the first
    heavy position of the ascending weights ``sw``, by bisection."""
    lo, hi = 0, sw.size
    while lo < hi:
        mid = (lo + hi) // 2
        x = float(sw[mid])  # a float sum beyond the floats is inf, with no warning
        lo, hi = (lo, mid) if x + x > theta else (mid + 1, hi)
    return lo


def _heavy_degrees(mid: np.ndarray, top: int, theta: float, lights: np.ndarray) -> np.ndarray:
    """d_H of each weight of ``lights``: the ``top`` heavies adjacent to every
    light, plus the heavies of the ascending ``mid`` adjacent to it."""
    return top + mid.size - _first_adjacent(mid, theta, lights)


def _triangles(mid: np.ndarray, top: int, theta: float, light_blocks) -> int:
    """``C(|H|, 3)`` plus ``C(d_H, 2)`` over the lights, given block by block;
    each term is below ``|H|**2 / 2``, so a chunk of ``2**63 // |H|**2`` terms
    cannot wrap int64."""
    heavies = top + mid.size
    step = max(1, 2**63 // (heavies * heavies + 1))
    total = math.comb(heavies, 3)
    for lights in light_blocks:
        d = _heavy_degrees(mid, top, theta, lights)
        d *= d - 1
        d //= 2
        total += sum(int(d[i:i + step].sum()) for i in range(0, d.size, step))
    return total


def count_triangles(g: GraphSample) -> int:
    """Number of unordered triangles, O(n log n), by the light/heavy identity."""
    w, theta = g.weights, g.theta
    light = _first_heavy(w, theta)
    heavy = w[light:]
    # the heavies not adjacent to the least weight w[0], a light one
    mid = heavy[:int(_first_adjacent(heavy, theta, w[:1])[0])] if light else heavy
    return _triangles(mid, heavy.size - mid.size, theta,
                      (w[s:min(s + _COUNT_BLOCK, light)] for s in range(0, light, _COUNT_BLOCK)))


def count_local_triangles(g: GraphSample, x: float) -> int:
    """Triangles through a tagged vertex of weight ``x`` joined to ``g``: the
    adjacent pairs among its neighbours, by the light/heavy identity."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"tagged weight must be finite, got {x}")
    w, theta = g.weights, g.theta
    light = _first_heavy(w, theta)
    heavy = w[light:]
    if not x + x > theta:  # a light tag: its neighbours are heavies, a clique
        return math.comb(int(_heavy_degrees(heavy, 0, theta, np.array([x]))[0]), 2)
    lights = w[int(_first_adjacent(w[:light], theta, np.array([x]))[0]):light]
    return math.comb(heavy.size, 2) + sum(
        int(_heavy_degrees(heavy, 0, theta, lights[s:s + _COUNT_BLOCK]).sum())
        for s in range(0, lights.size, _COUNT_BLOCK))


@np.errstate(over="ignore")
def sample_triangle_count(
    dist: WeightDistribution, n: int, theta: float, stream: np.random.Generator
) -> int:
    """Triangles of ``sample_graph(dist, n, theta, stream)``, holding only the
    mid heavies and one block of the draw.

    The draw's blocks are replayed from the stream's saved state: one pass
    finds the least weight m, one counts the top heavies and the mid ones,
    one fills an array of exactly the mid heavies, and the last counts each
    block's lights; the last two sort each block in place first.  The stream
    ends where one whole-array draw of n leaves it.
    """
    n, theta = check_count(n, 1, "a graph"), float(theta)
    state = stream.bit_generator.state

    def blocks():  # the draw replayed from the saved state
        stream.bit_generator.state = state
        return dist.blocks(stream, n)

    def sorted_blocks():  # sorted in place: the lights lead, then the mid heavies
        for b in blocks():
            b.sort()
            yield b

    least = min(float(b.min()) for b in blocks())
    if least + least > theta:  # no lights: the heavies are a clique
        return math.comb(n, 3)
    top = heavies = 0
    for b in blocks():
        top += int(np.count_nonzero(b + least > theta))
        heavies += int(np.count_nonzero(b + b > theta))
    mid, filled = np.empty(heavies - top), 0
    for b in sorted_blocks():
        b = b[_first_heavy(b, theta):int(_first_adjacent(b, theta, np.array([least]))[0])]
        mid[filled:filled + b.size] = b
        filled += b.size
    mid.sort()
    return _triangles(mid, top, theta, (b[:_first_heavy(b, theta)] for b in sorted_blocks()))


def tagged_pair_degrees(
    dist: WeightDistribution, n: int, theta: float, stream: np.random.Generator
) -> tuple[int, int, bool]:
    """Degrees of two tagged vertices into a shared pool, plus their edge.

    Draws ``n + 2`` weights; the two tagged vertices (indices n, n+1) are
    counted only against the pool of the first n, one ``_COUNT_BLOCK`` at a
    time, never against each other, and the returned flag says whether they
    are themselves adjacent.  ``n`` is a count of at least 1 that the caller
    has checked, as the ``pair`` experiment does once per campaign.
    """
    w = dist.sample(stream, n + 2)
    x1, x2 = w[n:].tolist()  # floats: a sum beyond them is inf, with no warning
    return _count_adjacent(w[:n], x1, theta), _count_adjacent(w[:n], x2, theta), x1 + x2 > theta


# ---------------------------------------------------------------------------
# registered experiments


@register_experiment("degree")
def _degree_experiment(params: dict, streams) -> list:
    """D_n(1)/n for one fresh graph on n vertices per stream."""
    dist = parse_dist(params["dist"])
    n = check_count(params["n"], 1, "the degree fraction")
    theta = float(params["theta"])

    def fraction(stream):
        # the tag is the first block's own value (pareto's scalar quantile rounds differently)
        count, x = 0, None
        for block in dist.blocks(stream, n):
            if x is None:
                x, block = block[0], block[1:]
            count += _count_adjacent(block, x, theta)
        return count / n

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
    return [sample_triangle_count(dist, n, theta, stream) / math.comb(n, 3)
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
        x = float(w[0])
        if x + x <= theta:  # a light tag: its neighbours are heavies, a clique, so no sort
            return math.comb(_count_adjacent(w[1:], x, theta), 2) / math.comb(n, 2)
        return count_local_triangles(GraphSample._in_place(w[1:], theta), x) / math.comb(n, 2)

    return [density(stream) for stream in streams]
