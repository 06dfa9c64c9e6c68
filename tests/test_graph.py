"""Graph statistics: worked examples, structural identities, and exact
parity against a dense-adjacency oracle."""

import itertools
import math

import numpy as np
import pytest

from threshnet import dist, graph
from threshnet.errors import CapacityError, DomainError
from threshnet.stats import make_stream


def _adjacency(w, theta):
    w = np.asarray(w, dtype=float)
    a = w[:, None] + w[None, :] > theta
    np.fill_diagonal(a, False)
    return a


EDGE_LIST_CAP = 1_000_000


def edge_list(g, cap=EDGE_LIST_CAP):
    """All edges as 1-based (i, j) pairs with i < j, lexicographically sorted."""
    m = graph.edge_count(g)
    if m > cap:
        raise CapacityError(f"edge list has {m} edges, exceeding the cap of {cap}")
    w = g.weights
    pairs = []
    for i in range(g.n - 1):
        js = np.nonzero(w[i + 1 :] + w[i] > g.theta)[0]
        pairs.extend((i + 1, int(j) + i + 2) for j in js)
    return pairs


def _oracle_degrees(w, theta):
    return _adjacency(w, theta).sum(axis=1)


def _oracle_triangles(w, theta):
    a = _adjacency(w, theta).astype(np.int64)
    return int(np.trace(a @ a @ a)) // 6


def _oracle_local_triangles(w, theta, i):
    a = _adjacency(w, theta)
    nb = np.nonzero(a[i])[0]
    return int(a[np.ix_(nb, nb)].sum()) // 2


def test_degree_example():
    g = graph.GraphSample.from_weights([0.2, 0.6, 0.9], 1.0)
    assert graph.all_degrees(g).tolist() == [1, 1, 2]


def test_degree_single_vertex():
    g = graph.GraphSample.from_weights([0.4], 1.0)
    assert graph.all_degrees(g).tolist() == [0]


def test_two_group_degrees():
    # light vertices isolated, heavy vertices pairwise complete
    w = [0.2] * 5 + [0.9] * 3
    g = graph.GraphSample.from_weights(w, 1.2)
    deg = graph.all_degrees(g)
    assert deg[:5].tolist() == [0] * 5
    assert deg[5:].tolist() == [2] * 3


def test_point_mass_complete_and_empty():
    s = make_stream(0)
    g = graph.sample_graph(dist.point_mass(0.7), 3, 1.0, s)
    assert edge_list(g) == [(1, 2), (1, 3), (2, 3)]
    g = graph.sample_graph(dist.point_mass(0.4), 3, 1.0, make_stream(0))
    assert edge_list(g) == []


def test_threshold_tie_is_no_edge():
    g = graph.GraphSample.from_weights([0.6, 0.6, 0.6], 1.2)
    assert edge_list(g) == []
    assert graph.all_degrees(g).tolist() == [0, 0, 0]


def test_generate_determinism():
    a = graph.sample_graph(dist.uniform(0, 1), 50, 1.0, make_stream(9))
    b = graph.sample_graph(dist.uniform(0, 1), 50, 1.0, make_stream(9))
    assert np.array_equal(a.weights, b.weights)
    with pytest.raises(DomainError):
        graph.sample_graph(dist.uniform(0, 1), 0, 1.0, make_stream(9))


def test_sorted_view_invariants():
    g = graph.sample_graph(dist.uniform(0, 1), 100, 1.0, make_stream(1))
    assert np.array_equal(g.sorted_weights, np.sort(g.weights))
    assert not g.weights.flags.writeable and not g.sorted_weights.flags.writeable


def test_edge_list_example():
    g = graph.GraphSample.from_weights([0.2, 0.6, 0.9], 1.0)
    assert edge_list(g) == [(1, 3), (2, 3)]


def test_edge_list_cap_error_names_count():
    g = graph.GraphSample.from_weights([0.9] * 10, 1.0)  # 45 edges
    with pytest.raises(CapacityError, match="45"):
        edge_list(g, cap=10)


def test_triangle_examples():
    assert graph.count_triangles(graph.GraphSample.from_weights([0.6, 0.6, 0.6], 1.0)) == 1
    g = graph.GraphSample.from_weights([0.2, 0.6, 0.9, 0.95], 1.0)
    assert graph.count_triangles(g) == 2
    assert graph.count_triangles(graph.GraphSample.from_weights([0.9, 0.9], 1.0)) == 0


def test_triangles_follow_the_sum_rule_under_rounding():
    # 1 - 0.9 rounds below 0.1, yet 0.1 + 0.9 == 1 is no edge
    for w in ([0.1, 0.9, 0.9], [5e-324, 1.0, 1.0], [0.1, 0.1, 0.9, 0.9, 0.9]):
        g = graph.GraphSample.from_weights(w, 1.0)
        edges = set(edge_list(g))
        brute = sum({(a, b), (a, c), (b, c)} <= edges
                    for a, b, c in itertools.combinations(range(1, g.n + 1), 3))
        assert graph.count_triangles(g) == brute


@pytest.mark.parametrize("light, heavy", [(0.4, 0.7), (0.1, 0.9), (5e-324, 1.0)])
def test_triangles_across_blocks_closed_form(light, heavy):
    # heavy vertices form a clique; a light one joins a heavy pair iff
    # light + heavy > 1, which rounding must not fake (0.1 + 0.9 == 1)
    n = 300_000
    w = dist.two_point(light, 0.5, heavy).sample(make_stream(12), n)
    h = int(np.count_nonzero(w == heavy))
    expected = math.comb(h, 3) + (math.comb(h, 2) * (n - h) if light + heavy > 1.0 else 0)
    assert n > 4 * graph._TRIANGLE_BLOCK
    assert graph.count_triangles(graph.GraphSample.from_weights(w, 1.0)) == expected


def test_triangle_count_exact_beyond_int64():
    n = 4_000_000
    g = graph.GraphSample.from_weights(np.full(n, 0.6), 1.0)
    assert graph.count_triangles(g) == math.comb(n, 3)


def test_local_triangle_examples():
    g = graph.GraphSample.from_weights([0.9, 0.6, 0.9, 0.2], 1.0)
    assert graph.count_local_triangles(g, 1) == 2
    iso = graph.GraphSample.from_weights([0.1, 0.6, 0.9], 1.0)
    assert graph.count_local_triangles(iso, 1) == 0
    # 1 - 0.9 rounds below 0.1, yet 0.9 + 0.1 == 1 is no edge
    rounding = graph.GraphSample.from_weights([0.9, 0.1, 0.95], 1.0)
    assert [graph.count_local_triangles(rounding, i) for i in (1, 2, 3)] == [0, 0, 0]
    with pytest.raises(DomainError):
        graph.count_local_triangles(g, 5)


def test_local_global_identity():
    g = graph.GraphSample.from_weights([0.2, 0.6, 0.9, 0.95], 1.0)
    total = sum(graph.count_local_triangles(g, i) for i in range(1, 5))
    assert total == 3 * graph.count_triangles(g) == 6


def _oracle_parity_instances():
    # rounding cases first: 1 - 0.9 rounds below 0.1, yet 0.1 + 0.9 == 1 is
    # no edge
    yield np.array([0.1, 0.9, 0.9, 0.9]), 1.0, 0
    yield np.array([0.9, 0.1, 0.95]), 1.0, 0
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 201))
        theta = float(rng.uniform(0.2, 1.8))
        kind = rng.integers(0, 3)
        if kind == 0:
            w = rng.random(n)
        elif kind == 1:
            w = rng.exponential(1.0, n)
        else:
            w = rng.choice([0.2, 0.5, 0.9], n)  # ties on purpose
        yield w, theta, int(rng.integers(0, n))


def test_oracle_parity_random_instances():
    for w, theta, i in _oracle_parity_instances():
        g = graph.GraphSample.from_weights(w, theta)
        assert graph.all_degrees(g).tolist() == _oracle_degrees(w, theta).tolist()
        assert graph.count_triangles(g) == _oracle_triangles(w, theta)
        assert graph.count_local_triangles(g, i + 1) == _oracle_local_triangles(w, theta, i)


def test_handshake_identity():
    rng = np.random.default_rng(17)
    samples = [graph.GraphSample.from_weights([0.1, 0.9, 0.9, 0.9], 1.0)]
    for _ in range(20):
        n = int(rng.integers(2, 120))
        samples.append(
            graph.GraphSample.from_weights(rng.random(n), float(rng.uniform(0.3, 1.7)))
        )
    for g in samples:
        assert int(graph.all_degrees(g).sum()) == 2 * len(edge_list(g))
        assert graph.edge_count(g) == len(edge_list(g))


def test_coupling_monotonicity():
    rng = np.random.default_rng(23)
    w = rng.random(80)
    thetas = sorted(rng.uniform(0.2, 1.8, 5))
    for lo, hi in zip(thetas, thetas[1:]):
        e_hi = set(edge_list(graph.GraphSample.from_weights(w, hi)))
        e_lo = set(edge_list(graph.GraphSample.from_weights(w, lo)))
        assert e_hi <= e_lo


def test_tagged_pair_degrees():
    d1, d2, edge = graph.tagged_pair_degrees(dist.point_mass(0.7), 5, 1.0, make_stream(0))
    assert (d1, d2, edge) == (5, 5, True)
    d1, d2, edge = graph.tagged_pair_degrees(dist.point_mass(0.4), 5, 1.0, make_stream(0))
    assert (d1, d2, edge) == (0, 0, False)
