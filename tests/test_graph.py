"""Graph statistics: worked examples, structural identities, and exact
parity against a dense-adjacency oracle."""

import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshnet import dist, graph
from threshnet.errors import CapacityError, DomainError
from threshnet.stats import make_stream
from law_ids import law_call_id, law_id
from test_dist import SAMPLED_LAWS


def _adjacency(w, theta):
    w = np.asarray(w, dtype=float)
    with np.errstate(over="ignore"):  # a sum beyond the floats is inf, above theta
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
    draw = dist.uniform(0, 1).sample(make_stream(1), 100)
    assert g.n == 100 and np.array_equal(g.weights, np.sort(draw))
    assert not g.weights.flags.writeable


def test_from_weights_copies_once_and_leaves_the_caller_array():
    w = np.array([0.9, 0.2, 0.6])
    g = graph.GraphSample.from_weights(w, 1.0)
    assert w.flags.writeable and w.tolist() == [0.9, 0.2, 0.6]
    w[0] = 0.0
    assert g.weights.tolist() == [0.2, 0.6, 0.9]
    assert graph.GraphSample.from_weights([0.9, 0.2, 0.6], 1.0).weights.tolist() == [0.2, 0.6, 0.9]


def test_sample_graph_holds_the_draw_itself(monkeypatch):
    draws = []
    sample = dist.WeightDistribution.sample

    def recording(self, stream, size=None):
        draws.append(sample(self, stream, size))
        return draws[-1]

    monkeypatch.setattr(dist.WeightDistribution, "sample", recording)
    g = graph.sample_graph(dist.exponential(1.0), 100, 1.0, make_stream(3))
    assert g.weights is draws[0]


@pytest.mark.parametrize("law", [
    dist.uniform(0.0, 1.0), dist.exponential(1.0), dist.pareto(1.0, 2.0),
    dist.two_point(0.2, 0.5, 0.9), dist.finite_discrete([(0.1, 0.3), (0.5, 0.3), (0.8, 0.4)]),
    dist.point_mass(0.6),
], ids=law_id)
def test_sampled_triangle_count_matches_the_sampled_graph(law):
    # the draw sorted in place counts as a copy of it in draw order, and as
    # the dense oracle where that fits
    for n in (3, 50, 2**14 + 7):
        draw = law.sample(make_stream(n), n)
        count = graph.count_triangles(graph.sample_graph(law, n, 1.0, make_stream(n)))
        assert count == graph.count_triangles(graph.GraphSample.from_weights(draw, 1.0))
        if n <= 50:
            assert count == _oracle_triangles(draw, 1.0)


@pytest.mark.parametrize("law", [dist.exponential(1.0), dist.two_point(0.2, 0.5, 0.9)],
                         ids=law_id)
def test_sampled_triangle_count_holds_one_draw(law):
    # draw, sort and count together stay under two n-long float arrays
    n = 300_000
    stream = make_stream(8)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        graph.count_triangles(graph.sample_graph(law, n, 1.0, stream))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * n


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
    assert n > 4 * graph._COUNT_BLOCK
    assert graph.count_triangles(graph.GraphSample.from_weights(w, 1.0)) == expected


def test_triangle_count_exact_beyond_int64():
    n = 4_000_000
    g = graph.GraphSample.from_weights(np.full(n, 0.6), 1.0)
    assert graph.count_triangles(g) == math.comb(n, 3)


def _tagged(w, theta, i):
    """The graph of every vertex but i, and the weight of vertex i."""
    return graph.GraphSample.from_weights(np.delete(w, i), theta), float(w[i])


def test_local_triangle_examples():
    assert graph.count_local_triangles(*_tagged([0.9, 0.6, 0.9, 0.2], 1.0, 0)) == 2
    assert graph.count_local_triangles(*_tagged([0.1, 0.6, 0.9], 1.0, 0)) == 0
    # 1 - 0.9 rounds below 0.1, yet 0.9 + 0.1 == 1 is no edge
    rounding = [0.9, 0.1, 0.95]
    assert [graph.count_local_triangles(*_tagged(rounding, 1.0, i))
            for i in range(3)] == [0, 0, 0]
    g = graph.GraphSample.from_weights([0.9, 0.6, 0.9, 0.2], 1.0)
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="finite"):
            graph.count_local_triangles(g, x)


def test_local_global_identity():
    w = [0.2, 0.6, 0.9, 0.95]
    total = sum(graph.count_local_triangles(*_tagged(w, 1.0, i)) for i in range(4))
    assert total == 3 * graph.count_triangles(graph.GraphSample.from_weights(w, 1.0)) == 6


@pytest.mark.parametrize("spec", ["uniform:0,1", "exp:1", "twopoint:0.2,0.5,0.9"])
def test_local_experiment_tags_the_first_draw(spec):
    # vertex 1 of the n + 1 draws, counted on the dense adjacency
    n, theta = 40, 1.0
    got = graph._local_triangle_experiment(
        {"dist": spec, "n": n, "theta": theta}, [make_stream(s) for s in range(6)])
    law = dist.parse_dist(spec)
    want = [_oracle_local_triangles(law.sample(make_stream(s), n + 1), theta, 0)
            / math.comb(n, 2) for s in range(6)]
    assert got == want


@pytest.mark.parametrize("law", SAMPLED_LAWS, ids=law_call_id)
def test_local_experiment_light_tags_skip_the_sort(monkeypatch, law):
    # a light tag is counted on the unsorted pool, a heavy one on the sorted
    # graph; both give the sorted graph's count bit for bit
    n, theta = 300, 2 * float(law._ppf(0.5))
    monkeypatch.setattr(graph, "parse_dist", lambda spec: law)
    got = graph._local_triangle_experiment(
        {"dist": "", "n": n, "theta": theta}, [make_stream(7, i) for i in range(40)])
    draws = [law.sample(make_stream(7, i), n + 1) for i in range(40)]
    want = [graph.count_local_triangles(graph.GraphSample.from_weights(w[1:], theta), w[0])
            / math.comb(n, 2) for w in draws]
    assert got == want
    assert any(w[0] + w[0] <= theta for w in draws)


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
        assert g.weights.tolist() == sorted(w)
        assert graph.all_degrees(g).tolist() == _oracle_degrees(g.weights, theta).tolist()
        assert graph.count_triangles(g) == _oracle_triangles(w, theta)
        assert graph.count_local_triangles(*_tagged(w, theta, i)) == \
            _oracle_local_triangles(w, theta, i)


def _local_triangles_by_mask(g, x):
    # the neighbours as the float mask w + x > theta, counted off their sorted weights
    nb = g.weights[g.weights + x > g.theta]
    pairs = np.arange(nb.size) - graph._first_adjacent(nb, g.theta, nb)
    return int(pairs[pairs > 0].sum())


def test_local_triangles_neighbour_suffix_matches_the_mask():
    rng = np.random.default_rng(29)
    # decimals whose pair sums round to either side of theta = 1
    decimals = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95]
    instances = [([0.9, 0.1, 0.95], 1.0)]
    for _ in range(150):
        n = int(rng.integers(1, 60))
        if rng.random() < 0.5:
            instances.append((rng.choice(decimals, n), 1.0))
        else:
            instances.append((rng.exponential(1.0, n), float(rng.uniform(0.2, 2.0))))
    for w, theta in instances:
        g = graph.GraphSample.from_weights(w, theta)
        for x in g.weights:  # a tagged vertex of each weight, joined to all n
            first = graph._first_adjacent(g.weights, theta, np.array([x]))[0]
            assert (np.arange(g.n) >= first).tolist() == (g.weights + x > theta).tolist()
            assert graph.count_local_triangles(g, x) == _local_triangles_by_mask(g, x)


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


@pytest.mark.parametrize("n, error, message", [
    (0, DomainError, r"^a graph needs n >= 1, got n = 0$"),
    (10**9, CapacityError, r"^a graph needs n <= 100000000, got n = 1000000000$"),
])
def test_sample_graph_checks_n_before_any_draw(n, error, message):
    for sample in (graph.sample_graph, graph.sample_triangle_count):
        stream = make_stream(5)
        state = stream.bit_generator.state
        with pytest.raises(error, match=message):
            sample(dist.uniform(0, 1), n, 1.0, stream)
        assert stream.bit_generator.state == state


# ---------------------------------------------------------------------------
# blocked counters against their unblocked forms

_BLOCK_SPECS = ["uniform:0,1", "exp:1", "pareto:1,3", "twopoint:0.1,0.5,0.9",
                "discrete:0.1:0.3,0.5:0.3,0.9:0.4"]  # atoms tie; 0.1 + 0.9 == 1 is no edge


def _sizes_around(block):
    """Vertex counts on both sides of one and of two block boundaries."""
    return sorted({1, 2, block - 1, block, block + 1, 2 * block + 1} - {0})


def _unblocked_degrees(g):
    w = g.weights
    return g.n - graph._first_adjacent(w, g.theta, w) - (w + w > g.theta)


def _unblocked_triangles(g):
    b = np.arange(g.n)
    partners = np.maximum(b - graph._first_adjacent(g.weights, g.theta, g.weights), 0)
    return int((partners * (g.n - 1 - b)).sum())


def _unblocked_local_triangles(g, x):
    nb = g.weights[graph._first_adjacent(g.weights, g.theta, np.array([x]))[0]:]
    pairs = np.arange(nb.size) - graph._first_adjacent(nb, g.theta, nb)
    return int(pairs[pairs > 0].sum())


@pytest.mark.parametrize("block", [1, 7, 1000])
@pytest.mark.parametrize("spec", _BLOCK_SPECS)
def test_blocked_counters_equal_their_unblocked_forms(monkeypatch, block, spec):
    monkeypatch.setattr(graph, "_COUNT_BLOCK", block)
    law, theta = dist.parse_dist(spec), 1.0
    for n in _sizes_around(block):
        w = law.sample(make_stream(n), n + 2)
        g = graph.GraphSample.from_weights(w[:n], theta)
        assert graph.all_degrees(g).tolist() == _unblocked_degrees(g).tolist()
        assert graph.count_triangles(g) == _unblocked_triangles(g)
        assert graph.count_local_triangles(g, w[n]) == _unblocked_local_triangles(g, w[n])
        pool = w[:n]
        assert graph.tagged_pair_degrees(law, n, theta, make_stream(n)) == (
            int(np.count_nonzero(pool + w[n] > theta)),
            int(np.count_nonzero(pool + w[n + 1] > theta)), bool(w[n] + w[n + 1] > theta))


@pytest.mark.parametrize("block", [7, 1000, None])
@pytest.mark.parametrize("spec", _BLOCK_SPECS)
def test_degree_replicate_streams_the_whole_array_draw(monkeypatch, block, spec):
    # the blocks it draws are the whole-array draw, bit for bit, and the stream
    # ends where that draw leaves it, the buffered 32-bit half included
    if block is not None:
        monkeypatch.setattr(dist, "_SAMPLE_BLOCK", block)
    law, theta = dist.parse_dist(spec), 1.0
    sample = dist.WeightDistribution.sample
    blocks = []

    def recording(self, stream, size=None):
        draw = sample(self, stream, size)
        blocks.append(draw.copy())
        return draw

    for n in _sizes_around(dist._SAMPLE_BLOCK):
        stream, reference = make_stream(n), make_stream(n)
        for s in (stream, reference):
            s.integers(2**32, dtype=np.uint32)
        monkeypatch.setattr(dist.WeightDistribution, "sample", recording)
        got = graph._degree_experiment({"dist": spec, "n": n, "theta": theta}, [stream] * 3)
        monkeypatch.setattr(dist.WeightDistribution, "sample", sample)
        draws = [law.sample(reference, n) for _ in range(3)]
        assert np.concatenate(blocks).tobytes() == np.concatenate(draws).tobytes()
        assert got == [int(np.count_nonzero(w[1:] + w[0] > theta)) / n for w in draws]
        assert stream.bit_generator.state == reference.bit_generator.state
        blocks.clear()


def _peak_bytes(call):
    """Peak bytes that ``call()`` allocates, after one call that warms it up."""
    call()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_degree_replicate_holds_one_block():
    params = {"dist": "uniform:0,1", "n": 10**6, "theta": 1.0}
    assert _peak_bytes(lambda: graph._degree_experiment(params, [make_stream(4)])) < 2**20


@pytest.mark.parametrize("experiment", ["local", "pair"])
@pytest.mark.parametrize("spec", ["exp:1", "twopoint:0.2,0.5,0.9"])
def test_replicate_holds_its_weights_and_one_block(experiment, spec):
    n = 500_000
    run = {"local": graph._local_triangle_experiment, "pair": graph._pair_experiment}[experiment]
    params = {"dist": spec, "n": n, "theta": 1.0}
    assert _peak_bytes(lambda: run(params, [make_stream(4)])) < 8 * (n + 2) + 2**20


# ---------------------------------------------------------------------------
# the light/heavy identity against the dense oracle

# (law, theta): all four kinds, ties at w + w == theta, no lights, no heavies,
# an empty mid, negative theta, subnormal theta and sums beyond the floats
_LIGHT_HEAVY_CASES = [
    ("uniform:0,1", 1.0),
    ("uniform:-1,1", -0.5),  # negative theta
    ("uniform:0,1e308", 1e308),  # sums beyond the floats are inf, above theta
    ("uniform:0,1", 3.0),  # no heavies
    ("exp:1", 1.0),
    ("exp:2", 0.3),
    ("pareto:1,3", 2.5),
    ("pareto:1,3", 1.0),  # no lights
    ("twopoint:0.2,0.5,0.9", 1.0),  # an empty mid: 0.9 + 0.2 > 1
    ("twopoint:0.5,0.5,0.9", 1.0),  # ties: 0.5 + 0.5 == 1 is light
    ("discrete:0.1:0.3,0.5:0.3,0.9:0.4", 1.0),  # ties; 0.1 + 0.9 == 1 is no edge
    ("point:0.5", 1.0),  # every pair ties at theta
    ("discrete:-1e308:0.5,1e308:0.5", 1e308),  # theta - m overflows
    ("discrete:-1e308:0.5,1.5e308:0.5", -1e308),  # x + m rounds to m for small x
    # subnormal theta: theta / 2 rounds up to 1e-323, which is heavy
    ("discrete:0:0.25,5e-324:0.25,1e-323:0.25,2e-323:0.25", 1.5e-323),
]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(_LIGHT_HEAVY_CASES), st.integers(1, 60), st.integers(0, 2**32 - 1),
       st.sampled_from([1, 3, 7, 2**14]))
def test_light_heavy_counts_equal_the_dense_oracle(case, n, seed, block):
    spec, theta = case
    law = dist.parse_dist(spec)
    w = law.sample(make_stream(seed), n)
    with mock.patch.object(dist, "_SAMPLE_BLOCK", block), \
            mock.patch.object(graph, "_COUNT_BLOCK", block):
        triangles = _oracle_triangles(w, theta)
        assert graph.count_triangles(graph.GraphSample.from_weights(w, theta)) == triangles
        assert graph.sample_triangle_count(law, n, theta, make_stream(seed)) == triangles
        for i in sorted({0, n // 2, n - 1}) if n > 1 else ():
            assert graph.count_local_triangles(*_tagged(w, theta, i)) == \
                _oracle_local_triangles(w, theta, i)


def test_heavy_split_is_the_self_pairing_not_half_theta():
    # theta = 3 * 5e-324: theta / 2 rounds to 1e-323, yet 1e-323 + 1e-323 > theta,
    # so the four weights above 5e-324 are a heavy clique (a split at theta / 2
    # would leave only 2e-323 heavy and count no triangle)
    theta, heavy = 1.5e-323, 1e-323
    assert theta / 2 == heavy and heavy + heavy > theta
    g = graph.GraphSample.from_weights([heavy] * 3 + [5e-324, 2e-323], theta)
    assert graph._first_heavy(g.weights, theta) == 1
    assert graph.count_triangles(g) == _oracle_triangles(g.weights, theta) == math.comb(4, 3)


@pytest.mark.parametrize("spec, theta", [
    ("exp:1", 1.0), ("pareto:1,3", 2.5), ("pareto:1,3", 1.0), ("twopoint:0.2,0.5,0.9", 1.0),
    ("uniform:0,1", 3.0)], ids=["exp", "pareto", "no-lights", "empty-mid", "no-heavies"])
def test_sampled_triangle_count_leaves_the_stream_of_one_draw(monkeypatch, spec, theta):
    # every replay pass and the early return of a graph without lights end
    # where one whole-array draw does, the buffered 32-bit half included
    law = dist.parse_dist(spec)
    for block in (7, None):
        if block is not None:
            monkeypatch.setattr(dist, "_SAMPLE_BLOCK", block)
        for n in _sizes_around(dist._SAMPLE_BLOCK):
            stream, reference = make_stream(n), make_stream(n)
            for s in (stream, reference):
                s.integers(2**32, dtype=np.uint32)
            graph.sample_triangle_count(law, n, theta, stream)
            law.sample(reference, n)
            assert stream.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("spec", ["exp:1", "twopoint:0.2,0.5,0.9"])
def test_sampled_triangle_count_holds_the_mid_heavies_and_one_block(spec):
    # mid heavies: w + w > 1 and w + least <= 1, 24% of n under exp:1 and none
    # under twopoint, whose heavy 0.9 is adjacent to the light 0.2
    n, law = 10**6, dist.parse_dist(spec)
    w = law.sample(make_stream(4), n)
    mid = int(np.count_nonzero((w + w > 1.0) & (w + w.min() <= 1.0)))
    del w
    assert (mid == 0) == (spec != "exp:1")
    peak = _peak_bytes(lambda: graph.sample_triangle_count(law, n, 1.0, make_stream(4)))
    assert peak < 8 * mid + 2**20
