"""Exact motif census over threshold graphs, plus Monte Carlo estimators.

A motif is a pattern graph on k <= 8 vertices.  The census statistic counts
ordered k-tuples of distinct vertices whose weights realize every motif edge
(non-edges of the pattern are not forbidden).  Dividing by the motif's
symmetry count gives the number of subgraphs isomorphic to the pattern.

Census algorithm
----------------
A threshold graph can be built one vertex at a time, each new vertex either
*dominating* (adjacent to every earlier vertex) or *isolated* (adjacent to
none); the list of types is its creation sequence.  Every ordered tuple is
then placed by walking the sequence in creation order with a dynamic program
over the set S of motif vertices already placed: each graph vertex takes no
motif vertex, or one motif vertex v outside S -- any v if the graph vertex is
dominating, only a v with no motif edge into S if it is isolated, since a
motif edge needs its later-created end to be dominating.  The count is the
number of ways to place all k motif vertices, computed with O(n k 2^k)
additions of exact Python integers, so counts beyond 2**63 stay exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

import numpy as np

from .dist import WeightDistribution
from .errors import CapacityError, DomainError, check_count
from .graph import GraphSample

MAX_MOTIF_VERTICES = 8


@dataclass(frozen=True)
class Motif:
    """Pattern graph: vertex count, canonical edge set, symmetry count."""

    k: int
    edges: frozenset  # of (s, t) tuples, 1-based, s < t
    symmetry_count: int

    @classmethod
    def from_edges(cls, k: int, edges) -> "Motif":
        k = check_count(k, 1, "the motif symmetry enumeration", "k", cap=MAX_MOTIF_VERTICES)
        canon = []
        for s, t in edges:
            s, t = int(s), int(t)
            if s == t or not (1 <= s <= k and 1 <= t <= k):
                raise DomainError(f"invalid motif edge ({s}, {t}) for k={k}")
            canon.append((min(s, t), max(s, t)))
        if len(canon) != len(set(canon)):
            raise DomainError("duplicate motif edges")
        edge_set = frozenset(canon)
        return cls(k=k, edges=edge_set, symmetry_count=_symmetries(k, edge_set))


def _symmetries(k: int, edges: frozenset) -> int:
    count = 0
    for perm in itertools.permutations(range(1, k + 1)):
        mapped = {(min(perm[s - 1], perm[t - 1]), max(perm[s - 1], perm[t - 1]))
                  for s, t in edges}
        count += mapped == edges
    return count


def parse_motif(spec: str) -> Motif:
    """Parse a motif spec string like ``k=4;edges=1-2,2-3,3-4,4-1``."""
    try:
        fields = dict(part.split("=", 1) for part in spec.split(";"))
        k = int(fields["k"])
        raw = fields.get("edges", "").strip()
        edges = []
        if raw:
            for item in raw.split(","):
                s, t = item.split("-")
                edges.append((int(s), int(t)))
    except (DomainError, CapacityError):
        raise
    except Exception as exc:
        raise DomainError(f"malformed motif spec {spec!r}: {exc}") from exc
    return Motif.from_edges(k, edges)


def triangle_motif() -> Motif:
    return Motif.from_edges(3, [(1, 2), (2, 3), (1, 3)])


# ---------------------------------------------------------------------------
# census


def _creation_sequence(g: GraphSample) -> list[bool]:
    """Vertex types in creation order: True for dominating, False for isolated.

    Two pointers over the sorted weights peel off the last-created vertex:
    when the lightest and heaviest remaining weights form an edge, the
    heaviest is adjacent to every remaining vertex, otherwise the lightest is
    adjacent to none of them.
    """
    w = g.weights.tolist()
    lo, hi = 0, g.n - 1
    peeled = []
    while lo < hi:
        if w[lo] + w[hi] > g.theta:
            peeled.append(True)
            hi -= 1
        else:
            peeled.append(False)
            lo += 1
    peeled.append(True)  # the first vertex has no earlier vertex; either type
    return peeled[::-1]


@lru_cache(maxsize=128)
def _pattern_table(motif: Motif) -> tuple:
    """DP transitions, indexed by vertex type (isolated, dominating).

    Each entry lists ``(T, get)`` pairs in decreasing order of the state T,
    where ``get(dp)`` returns ``dp[T]`` and every ``dp[T - {v}]`` whose motif
    vertex v that vertex type may take; states with no way in are left out.
    Updating in decreasing order reads each ``dp[T - {v}]`` before it changes.
    """
    k = motif.k
    nbrs = [0] * k
    for s, t in motif.edges:
        nbrs[s - 1] |= 1 << (t - 1)
        nbrs[t - 1] |= 1 << (s - 1)
    table = []
    for dominating in (False, True):
        rows = []
        for state in range((1 << k) - 1, 0, -1):
            sources = [state ^ (1 << v) for v in range(k)
                       if state >> v & 1 and (dominating or not nbrs[v] & state)]
            if sources:
                rows.append((state, itemgetter(state, *sources)))
        table.append(tuple(rows))
    return tuple(table)


def count_motif_tuples(g: GraphSample, motif: Motif) -> int:
    """Number of ordered distinct k-tuples realizing every motif edge.

    Equals the sum over unordered k-subsets of k! times the symmetrized
    indicator; the subgraph count isomorphic to the motif is this divided by
    the motif's symmetry count.  Exact at any size, in O(n k 2^k) time.
    """
    check_count(g.n, motif.k, "the motif census")
    table = _pattern_table(motif)
    dp = [1] + [0] * ((1 << motif.k) - 1)  # dp[S]: ways to place the motif vertices in S
    for dominating in _creation_sequence(g):
        for state, get in table[dominating]:
            dp[state] = sum(get(dp))
    return dp[-1]


# ---------------------------------------------------------------------------
# Monte Carlo estimators


def motif_probability_mc(
    dist: WeightDistribution,
    motif: Motif,
    theta: float,
    samples: int,
    stream: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo estimate of P(k fresh weights realize the motif).

    Returns (estimate, binomial standard error) of the ``samples`` rows of k
    weights that :meth:`WeightDistribution.blocks` draws.
    """
    samples = check_count(samples, 1, "the motif probability estimate", "samples")
    hits = 0
    for x in dist.blocks(stream, (samples, motif.k)):
        ok = np.ones(x.shape[0], dtype=bool)
        with np.errstate(over="ignore"):  # a sum beyond the floats is inf, above theta
            for s, t in motif.edges:
                ok &= x[:, s - 1] + x[:, t - 1] > theta
        hits += int(np.count_nonzero(ok))
    p = hits / samples
    return p, math.sqrt(p * (1.0 - p) / samples)


def _symmetrized_rows(motif: Motif, first: np.ndarray, rest: np.ndarray,
                      theta: float) -> np.ndarray:
    rows = np.column_stack([first, rest])
    k = motif.k
    acc = np.zeros(rows.shape[0], dtype=np.int64)
    for perm in itertools.permutations(range(k)):
        ok = np.ones(rows.shape[0], dtype=bool)
        with np.errstate(over="ignore"):  # a sum beyond the floats is inf, above theta
            for s, t in motif.edges:
                ok &= rows[:, perm[s - 1]] + rows[:, perm[t - 1]] > theta
        acc += ok
    return acc / math.factorial(k)


def motif_kernel_variance_mc(
    dist: WeightDistribution,
    motif: Motif,
    theta: float,
    outer: int,
    stream: np.random.Generator,
) -> tuple[float, float]:
    """Estimate the variance of the conditional motif kernel mean.

    For each outer draw x, two independent inner (k-1)-vectors give an
    unbiased product estimate of the squared conditional mean; the squared
    unconditional mean is removed with a half-sample split so the estimator
    stays unbiased before the final clamp at zero.  Returns the estimate and
    its delete-one jackknife standard error.
    """
    outer = check_count(outer, 2, "the kernel variance estimate", "outer")
    k = motif.k
    x = dist.sample(stream, outer)
    y1 = dist.sample(stream, (outer, k - 1))
    y2 = dist.sample(stream, (outer, k - 1))
    s1 = _symmetrized_rows(motif, x, y1, theta)
    s2 = _symmetrized_rows(motif, x, y2, theta)

    prod = s1 * s2
    half = outer // 2
    p_hat = math.fsum(prod) / outer
    f_a = math.fsum(s1[:half]) / half
    f_b = math.fsum(s2[half:]) / (outer - half)
    estimate = max(0.0, p_hat - f_a * f_b)

    # delete-one jackknife on the unclamped statistic
    p_del = (outer * p_hat - prod) / (outer - 1)
    fa_del = np.full(outer, f_a)
    fb_del = np.full(outer, f_b)
    if half > 1:
        fa_del[:half] = (half * f_a - s1[:half]) / (half - 1)
    if outer - half > 1:
        fb_del[half:] = ((outer - half) * f_b - s2[half:]) / (outer - half - 1)
    reps = p_del - fa_del * fb_del
    se = math.sqrt((outer - 1) / outer * math.fsum((reps - reps.mean()) ** 2))
    return estimate, se
