"""Motif machinery: symmetry counts, reference kernels, census parity against
naive permutation enumeration, and the Monte Carlo estimators."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threshnet import dist, graph, motifs
from threshnet.errors import CapacityError, DomainError
from threshnet.stats import make_stream

EDGE = motifs.Motif.from_edges(2, [(1, 2)])
PATH3 = motifs.parse_motif("k=3;edges=1-2,2-3")
TRI = motifs.triangle_motif()
C4 = motifs.parse_motif("k=4;edges=1-2,2-3,3-4,4-1")
K4 = motifs.Motif.from_edges(4, [(a, b) for a in range(1, 5) for b in range(a + 1, 5)])
EDGELESS3 = motifs.Motif.from_edges(3, [])
STAR5 = motifs.parse_motif("k=5;edges=1-2,1-3,1-4,1-5")


# ---------------------------------------------------------------------------
# reference kernels and census by direct enumeration


def motif_indicator(motif, x, theta):
    """1 iff the weight tuple realizes every motif edge."""
    if len(x) != motif.k:
        raise DomainError(f"expected {motif.k} weights, got {len(x)}")
    return int(all(x[s - 1] + x[t - 1] > theta for s, t in motif.edges))


def motif_indicator_symmetrized(motif, x, theta):
    """Average of the indicator over all k! argument orders, as an exact
    rational m/k! (repeated values still contribute one permutation each)."""
    if len(x) != motif.k:
        raise DomainError(f"expected {motif.k} weights, got {len(x)}")
    hits = 0
    for perm in itertools.permutations(x):
        hits += all(perm[s - 1] + perm[t - 1] > theta for s, t in motif.edges)
    return Fraction(hits, math.factorial(motif.k))


def count_motif_tuples_naive(g, motif):
    """Reference census by direct permutation enumeration (small n only)."""
    w = g.weights
    total = 0
    for subset in itertools.combinations(range(g.n), motif.k):
        for perm in itertools.permutations(subset):
            total += all(
                w[perm[s - 1]] + w[perm[t - 1]] > g.theta for s, t in motif.edges
            )
    return total


def test_symmetry_counts():
    assert C4.symmetry_count == 8
    assert TRI.symmetry_count == 6
    assert EDGE.symmetry_count == 2
    assert PATH3.symmetry_count == 2
    assert K4.symmetry_count == 24
    assert EDGELESS3.symmetry_count == 6
    assert STAR5.symmetry_count == 24  # 4! leaf permutations


def test_build_validation():
    with pytest.raises(CapacityError):
        motifs.Motif.from_edges(9, [])
    with pytest.raises(DomainError):
        motifs.Motif.from_edges(3, [(1, 1)])
    with pytest.raises(DomainError):
        motifs.Motif.from_edges(3, [(1, 4)])
    with pytest.raises(DomainError):
        motifs.Motif.from_edges(3, [(1, 2), (2, 1)])


def test_parse_motif_roundtrip():
    assert motifs.parse_motif("k=3;edges=1-2,2-3,1-3") == TRI
    assert motifs.parse_motif("k=3;edges=") == EDGELESS3
    with pytest.raises(DomainError):
        motifs.parse_motif("edges=1-2")


def test_indicator_examples():
    assert motif_indicator(TRI, (0.6, 0.6, 0.6), 1.0) == 1
    assert motif_indicator(TRI, (0.2, 0.6, 0.9), 1.0) == 0
    assert motif_indicator(EDGELESS3, (0.0, 0.0, 0.0), 1.0) == 1
    with pytest.raises(DomainError):
        motif_indicator(TRI, (0.5, 0.5), 1.0)


def test_symmetrized_indicator():
    assert motif_indicator_symmetrized(TRI, (0.6, 0.6, 0.6), 1.0) == 1
    assert motif_indicator_symmetrized(EDGE, (0.2, 0.9), 1.0) == 1
    val = motif_indicator_symmetrized(PATH3, (0.2, 0.9, 0.2), 1.0)
    assert val == Fraction(2, 6)
    # constant input: symmetrization changes nothing
    for x in (0.3, 0.7):
        assert motif_indicator_symmetrized(TRI, (x, x, x), 1.0) == motif_indicator(
            TRI, (x, x, x), 1.0
        )


def test_symmetrized_range_random_inputs():
    rng = np.random.default_rng(12)
    for _ in range(10_000):
        x = rng.random(3)
        v = motif_indicator_symmetrized(PATH3, tuple(x), 1.0)
        assert 0 <= v <= 1


def test_census_examples():
    g = graph.GraphSample.from_weights([0.2, 0.6, 0.9], 1.0)
    assert motifs.count_motif_tuples(g, EDGE) == 4
    g3 = graph.GraphSample.from_weights([0.6, 0.6, 0.6], 1.0)
    assert motifs.count_motif_tuples(g3, TRI) == 6
    empty = graph.GraphSample.from_weights([0.1, 0.2, 0.3, 0.4], 1.0)
    assert motifs.count_motif_tuples(empty, TRI) == 0
    assert motifs.count_motif_tuples(empty, EDGELESS3) == 4 * 3 * 2


def test_census_work_cap():
    # no cap on the graph size; the one size error left is a motif larger
    # than the graph
    with pytest.raises(DomainError):
        motifs.count_motif_tuples(graph.GraphSample.from_weights([0.5, 0.5], 1.0), TRI)


def test_census_closed_forms():
    n = 60_000
    complete = graph.GraphSample.from_weights(np.full(n, 0.6), 1.0)
    count = motifs.count_motif_tuples(complete, C4)
    assert count == n * (n - 1) * (n - 2) * (n - 3) and count > 2**63
    n = 3000
    edgeless = graph.GraphSample.from_weights(np.full(n, 0.4), 1.0)
    assert motifs.count_motif_tuples(edgeless, EDGELESS3) == n * (n - 1) * (n - 2)


def test_census_parity_with_naive():
    rng = np.random.default_rng(31)
    cases = [EDGE, PATH3, TRI, C4, K4, EDGELESS3, STAR5,
             motifs.Motif.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]),
             motifs.Motif.from_edges(4, [(1, 2), (3, 4)])]
    for trial in range(60):
        n = int(rng.integers(5, 16))
        theta = float(rng.uniform(0.3, 1.8))
        if trial % 3 == 0:
            w = rng.choice([0.2, 0.5, 0.6, 0.9], n)  # heavy ties
        else:
            w = rng.random(n)
        g = graph.GraphSample.from_weights(w, theta)
        m = cases[trial % len(cases)]
        if m.k <= n:
            assert motifs.count_motif_tuples(g, m) == count_motif_tuples_naive(g, m)


# a grid that hits theta/2 and pairs summing exactly to theta = 1, mixed with
# arbitrary floats, so ties on both sides of the strict edge rule occur
WEIGHTS = st.one_of(st.sampled_from([0.25, 0.5, 0.75]), st.floats(0.0, 1.0))


@st.composite
def census_cases(draw):
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k, 10))
    pairs = list(itertools.combinations(range(1, k + 1), 2))
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    weights = draw(st.lists(WEIGHTS, min_size=n, max_size=n))
    return motifs.Motif.from_edges(k, edges), weights


@settings(max_examples=150, deadline=None)
@given(census_cases())
@example((TRI, [0.1, 0.9, 0.9]))  # 1 - 0.9 rounds below 0.1, yet 0.1 + 0.9 == 1
@example((TRI, [5e-324, 1.0, 1.0]))
def test_census_matches_naive_property(case):
    motif, weights = case
    g = graph.GraphSample.from_weights(weights, 1.0)
    assert motifs.count_motif_tuples(g, motif) == count_motif_tuples_naive(g, motif)


def test_census_triangle_matches_fast_counter():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(3, 61))
        g = graph.GraphSample.from_weights(rng.random(n), float(rng.uniform(0.4, 1.6)))
        assert motifs.count_motif_tuples(g, TRI) == 6 * graph.count_triangles(g)


def test_census_invariant_under_motif_relabeling():
    rng = np.random.default_rng(8)
    g = graph.sample_graph(dist.uniform(0, 1), 40, 1.0, make_stream(44))
    base = motifs.count_motif_tuples(g, C4)
    for _ in range(10):
        perm = rng.permutation(4) + 1
        relabeled = motifs.Motif.from_edges(
            4, [(int(perm[s - 1]), int(perm[t - 1])) for s, t in C4.edges]
        )
        assert relabeled.symmetry_count == C4.symmetry_count
        assert motifs.count_motif_tuples(g, relabeled) == base


def test_probability_mc():
    est, se = motifs.motif_probability_mc(dist.uniform(0, 1), TRI, 1.0, 200_000, make_stream(2))
    assert abs(est - 0.25) < 4 * se
    est, se = motifs.motif_probability_mc(dist.uniform(0, 1), EDGE, 1.0, 200_000, make_stream(3))
    assert abs(est - 0.5) < 4 * se
    est, _ = motifs.motif_probability_mc(dist.point_mass(0.7), C4, 1.0, 1000, make_stream(4))
    assert est == 1.0


def test_motif_mc_estimate_does_not_depend_on_the_block(monkeypatch):
    estimates = []
    for block in (7, 1000):
        monkeypatch.setattr(motifs, "_MC_BLOCK", block)
        estimates.append(motifs.motif_probability_mc(
            dist.exponential(1.0), C4, 1.0, 2503, make_stream(6)))
    assert estimates[0] == estimates[1]


def test_kernel_variance_degenerate_cases():
    z, se = motifs.motif_kernel_variance_mc(dist.point_mass(0.7), TRI, 1.0, 2000, make_stream(1))
    assert z == 0.0 and se == 0.0
    z, _ = motifs.motif_kernel_variance_mc(dist.uniform(0, 1), EDGELESS3, 1.0, 2000, make_stream(2))
    assert z == 0.0
    with pytest.raises(DomainError):
        motifs.motif_kernel_variance_mc(dist.uniform(0, 1), TRI, 1.0, 1, make_stream(3))


@pytest.mark.parametrize("estimator, count, error, message", [
    (motifs.motif_probability_mc, 0, DomainError, r"needs samples >= 1, got samples = 0$"),
    (motifs.motif_probability_mc, 10**20, CapacityError, r"needs samples <= 100000000"),
    (motifs.motif_kernel_variance_mc, 1, DomainError, r"needs outer >= 2, got outer = 1$"),
    (motifs.motif_kernel_variance_mc, 10**20, CapacityError, r"needs outer <= 100000000"),
])
def test_estimator_counts_are_checked_before_any_draw(estimator, count, error, message):
    stream = make_stream(3)
    state = stream.bit_generator.state
    with pytest.raises(error, match=message):
        estimator(dist.uniform(0, 1), TRI, 1.0, count, stream)
    assert stream.bit_generator.state == state


@pytest.mark.parametrize("k, error, message", [
    (0, DomainError, r"^the motif symmetry enumeration needs k >= 1, got k = 0$"),
    (9, CapacityError, r"^the motif symmetry enumeration needs k <= 8, got k = 9$"),
])
def test_motif_vertex_count_names_its_bounds(k, error, message):
    with pytest.raises(error, match=message):
        motifs.Motif.from_edges(k, [])
