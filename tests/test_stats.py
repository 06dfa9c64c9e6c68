"""Campaign runner determinism and the goodness-of-fit instruments, with
scipy as the independent oracle for the special functions."""

import math
import re
import time
from itertools import islice

import numpy as np
import pytest
import scipy.special
import scipy.stats
import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threshnet import dist, graph, spatial, stats
from threshnet.errors import CapacityError, DomainError, NumericError, UsageError


def test_substream_seed_is_stable():
    # frozen values pin the documented SplitMix64 derivation
    assert stats.substream_seed(0, 0) == stats.substream_seed(0, 0)
    assert stats.substream_seed(0, 0) != stats.substream_seed(0, 1)
    assert stats.substream_seed(0, 0) != stats.substream_seed(1, 0)
    seeds = {stats.substream_seed(12345, i) for i in range(10000)}
    assert len(seeds) == 10000


@settings(max_examples=60, deadline=None)
@given(seed=st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]) | st.integers(0, 2**64 - 1),
       start=st.integers(0, 3 * stats._SEED_BATCH), width=st.integers(1, 40))
@example(seed=0, start=0, width=1)
@example(seed=2**32 - 1, start=stats._SEED_BATCH - 3, width=6)
@example(seed=2**32, start=2 * stats._SEED_BATCH - 1, width=2)
@example(seed=2**64 - 1, start=stats._SEED_BATCH - 20, width=40)
def test_campaign_streams_are_make_stream_bit_for_bit(seed, start, width):
    # streams start .. start + width - 1 of a campaign, seeded a batch at a time
    streams = islice(stats._streams(seed, start + width), start, None)
    for i, stream in enumerate(streams, start):
        assert stream.bit_generator.state == stats.make_stream(seed, i).bit_generator.state


def test_campaign_streams_are_seeded_a_batch_at_a_time(monkeypatch):
    batches = []
    seed_words = stats._seed_words
    monkeypatch.setattr(stats, "_seed_words", lambda seeds: batches.append(seeds.size)
                        or seed_words(seeds))
    rep = stats.run_replicates("pair", {"dist": "uniform:0,1", "theta": 1.0, "n": 5},
                               2 * stats._SEED_BATCH + 1, 3)
    assert batches == [stats._SEED_BATCH, stats._SEED_BATCH, 1] and rep.replicates == 513


def test_run_replicates_determinism():
    params = {"dist": "uniform:0,1", "theta": 1.0, "n": 200}
    a = stats.run_replicates("degree", params, 40, 99)
    b = stats.run_replicates("degree", params, 40, 99)
    assert a.to_dict() == b.to_dict()
    assert np.array_equal(a.samples, b.samples)
    c = stats.run_replicates("degree", params, 40, 100)
    assert not np.array_equal(a.samples, c.samples)


def test_run_replicates_single():
    params = {"dist": "uniform:0,1", "theta": 1.0, "n": 50}
    rep = stats.run_replicates("degree", params, 1, 3)
    assert rep.samples.shape == (1,)
    assert rep.variance == 0.0


def test_run_replicates_errors():
    with pytest.raises(UsageError):
        stats.run_replicates("nope", {}, 1, 0)
    with pytest.raises(DomainError):
        stats.run_replicates("degree", {"dist": "uniform:0,1", "theta": 1, "n": 5}, 0, 0)


# ---------------------------------------------------------------------------
# experiments take a campaign's streams in one call


def _reference_row(experiment: str, params: dict, stream):
    """One replicate of an experiment on its own stream, written per
    replicate: the reference that the batch forms must equal bit for bit."""
    law = dist.parse_dist(params["dist"])
    theta = float(params["theta"])
    if experiment == "pair":
        n = int(params["n"])
        d1, d2, edge = graph.tagged_pair_degrees(law, n, theta, stream)
        return d1 / n, d2 / n, 1.0 if edge else 0.0
    cfg = spatial.SpatialConfig(d=int(params["d"]), beta=float(params["beta"]),
                                theta=theta, lam=float(params["lam"]),
                                r=float(params["r"]))
    x0 = params.get("x0")
    if params.get("mode") == "direct":
        return float(spatial.sample_origin_degree_direct(cfg, law, x0, stream))
    origin_weight = float(x0) if x0 is not None else law.sample(stream)
    mu = cfg.lam * spatial.sphere_surface(cfg.d) * spatial.radial_intensity(
        cfg, law, origin_weight)
    delta = int(stream.poisson(mu))
    if experiment == "spatial":
        return float(delta)
    scale = cfg.lam * spatial.sphere_surface(cfg.d) * float(params["Cr"])
    return (delta - scale) / math.sqrt(scale)


_KINDS = ["uniform:0,1", "exp:1", "pareto:1,3", "twopoint:0.2,0.5,0.9",
          "discrete:0.1:0.25,0.5:0.5,1.1:0.25", "point:0.7"]
_SPACE = {"theta": 1.0, "d": 2, "beta": 2.0, "lam": 1.0}
_CAMPAIGNS = (
    # mixture with a random origin on every kind, at a finite and an
    # infinite radius (whose unbounded integrals run as a head and a tail)
    [("spatial", dict(_SPACE, dist=law, r=r, mode="mixture"))
     for law in _KINDS for r in (3.0, math.inf)]
    + [("spatial", dict(_SPACE, dist="exp:1", r=3.0, mode="mixture", x0=0.4)),
       ("spatial", dict(_SPACE, dist="exp:1", r=4.0, mode="direct")),
       ("spatial", dict(_SPACE, dist="uniform:0,1", r=4.0, mode="direct", x0=0.3)),
       ("clt", {"dist": "pareto:1,1", "theta": 1.0, "d": 2, "beta": 1.0, "lam": 1.0,
                "r": 10000.0, "Cr": 10000.0}),
       ("clt", dict(_SPACE, dist="uniform:0,1", r=3.0, Cr=0.75)),
       ("pair", {"dist": "uniform:0,1", "theta": 1.0, "n": 50})]
)


@pytest.mark.parametrize("seed", [0, 2024])
@pytest.mark.parametrize("experiment, params", _CAMPAIGNS,
                         ids=[f"{e}-{i}" for i, (e, _) in enumerate(_CAMPAIGNS)])
def test_batch_experiments_equal_per_stream_reference(experiment, params, seed):
    rep = stats.run_replicates(experiment, params, 7, seed)
    reference = [_reference_row(experiment, params, stats.make_stream(seed, i))
                 for i in range(7)]
    assert rep.samples.tolist() == np.asarray(reference, dtype=float).tolist()


@pytest.mark.parametrize("law", _KINDS)
def test_mixture_streams_go_in_blocks(monkeypatch, law):
    # R = 7 in blocks of 3: one batched rate call per block, the same rows
    sizes = []
    rate = spatial.origin_degree_rate

    def counted(cfg, dist, x):
        sizes.append(np.size(x))
        return rate(cfg, dist, x)

    monkeypatch.setattr(spatial, "_STREAMS_PER_BATCH", 3)
    monkeypatch.setattr(spatial, "origin_degree_rate", counted)
    params = dict(_SPACE, dist=law, r=math.inf, mode="mixture")
    rep = stats.run_replicates("spatial", params, 7, 5)
    assert sizes == [3, 3, 1]
    reference = [_reference_row("spatial", params, stats.make_stream(5, i))
                 for i in range(7)]
    assert rep.samples.tolist() == reference


@pytest.mark.parametrize("experiment, params", [
    ("degree", {"dist": "uniform:0,1", "theta": 1.0, "n": 20}),
    ("pair", {"dist": "uniform:0,1", "theta": 1.0, "n": 20}),
    ("triangles", {"dist": "uniform:0,1", "theta": 1.0, "n": 20}),
    ("local", {"dist": "uniform:0,1", "theta": 1.0, "n": 20}),
    ("spatial", dict(_SPACE, dist="exp:1", r=3.0, mode="mixture")),
    ("spatial", dict(_SPACE, dist="exp:1", r=3.0, mode="mixture", x0=0.5)),
    ("spatial", dict(_SPACE, dist="exp:1", r=3.0, mode="direct")),
    ("clt", dict(_SPACE, dist="exp:1", r=3.0, Cr=1.0)),
])
def test_experiments_parse_the_law_once_per_campaign(monkeypatch, experiment, params):
    calls = []

    def counted(spec):
        calls.append(spec)
        return dist.parse_dist(spec)

    monkeypatch.setattr(graph, "parse_dist", counted)
    monkeypatch.setattr(spatial, "parse_dist", counted)
    assert stats.run_replicates(experiment, params, 7, 1).samples.shape[0] == 7
    assert calls == [params["dist"]]


def test_clt_rejects_zero_centering_before_any_stream(monkeypatch):
    made = []
    monkeypatch.setattr(stats, "_seed_words", lambda *a: made.append(a))
    params = dict(_SPACE, dist="uniform:0,1", r=3.0, Cr=0.0)
    with pytest.raises(DomainError, match=r"^centering must be > 0$"):
        stats.run_replicates("clt", params, 7, 0)
    assert made == []


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov


def test_ks_single_point():
    assert stats.ks_statistic([0.5], lambda x: max(0.0, min(1.0, x))) == pytest.approx(0.5)


def test_ks_plugin_quantiles():
    qs = [j / 100 for j in range(1, 100)]
    assert stats.ks_statistic(qs, lambda x: max(0.0, min(1.0, x))) < 0.02


def test_ks_empty_errors():
    with pytest.raises(DomainError):
        stats.ks_statistic([], lambda x: x)


def test_ks_against_own_ecdf():
    # the true sup distance to the sample's own ECDF is zero; the lower gap
    # reads the reference's left limit, so no step counts against itself
    rng = np.random.default_rng(0)
    x = rng.random(500)
    assert stats.ks_statistic(x, stats.ecdf(x)) == 0.0
    ties = rng.integers(0, 5, 500)
    assert stats.ks_statistic(ties, stats.ecdf(ties)) == 0.0


def test_ks_sample_on_a_jump_of_the_reference():
    # a point mass at 0.5 and a sample on it: the sup distance is zero
    def point(t):
        return float(t >= 0.5)

    assert stats.ks_statistic([0.5] * 20, point) == 0.0
    # half the mass at 0.5, half at 1: a sample at 1 alone misses half
    assert stats.ks_statistic([1.0] * 20, lambda t: 0.5 * (t >= 0.5) + 0.5 * (t >= 1.0)) == 0.5


def test_ecdf_is_right_continuous():
    f = stats.ecdf([0.3, 0.1, 0.3, 0.7])
    assert [f(t) for t in (0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 9.0)] == [
        0.0, 0.25, 0.25, 0.75, 0.75, 1.0, 1.0]
    with pytest.raises(DomainError):
        stats.ecdf([])
    with pytest.raises(DomainError):
        stats.ks_two_sample([], [1.0])


def test_ks_null_critical_rate():
    # draws from the target exceed the 1% asymptotic critical value in at
    # most 1% of campaigns
    u = dist.uniform(0, 1)
    crit = 1.63 / math.sqrt(10**4)
    fails = 0
    trials = 400
    for i in range(trials):
        x = u.sample(stats.make_stream(202, i), 10**4)
        fails += stats.ks_statistic(x, lambda t: max(0.0, min(1.0, t))) >= crit
    assert fails / trials <= 0.01


def test_ks_matches_scipy():
    rng = np.random.default_rng(42)
    x = rng.normal(size=300)
    ours = stats.ks_statistic(x, stats.normal_cdf)
    ref = scipy.stats.kstest(x, "norm").statistic
    assert ours == pytest.approx(ref, abs=1e-12)


def test_ks_two_sample_matches_scipy():
    rng = np.random.default_rng(1)
    a = rng.poisson(3.0, 400)
    b = rng.poisson(3.3, 500)
    ours = stats.ks_two_sample(a, b)
    ref = scipy.stats.ks_2samp(a, b).statistic
    assert ours == pytest.approx(ref, abs=1e-12)


def _union_grid_ks(a, b):
    # the two-sample sup over the union of both samples, both ECDFs read there
    a, b = np.sort(np.asarray(a, dtype=float)), np.sort(np.asarray(b, dtype=float))
    grid = np.union1d(a, b)
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


_SAMPLE = st.one_of(
    st.lists(st.integers(-3, 3), min_size=1, max_size=40),  # heavy ties
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_SAMPLE, _SAMPLE)
def test_ks_two_sample_equals_the_union_grid(a, b):
    assert stats.ks_two_sample(a, b) == _union_grid_ks(a, b)


def test_kolmogorov_sf():
    assert stats.kolmogorov_sf(0.0) == 1.0
    assert stats.kolmogorov_sf(1.3581) == pytest.approx(0.05, abs=1e-3)


def test_kolmogorov_sf_against_scipy():
    # below t = 0.02 the 100-term series alone gives 0.3965 at t = 0.005
    ts = np.concatenate([np.geomspace(1e-4, 3.0, 400), np.linspace(1e-4, 3.0, 400)])
    ours = np.array([stats.kolmogorov_sf(float(t)) for t in ts])
    assert np.max(np.abs(ours - scipy.stats.kstwobign.sf(ts))) < 1e-14
    assert stats.kolmogorov_sf(0.005) == stats.kolmogorov_sf(0.01) == 1.0


# ---------------------------------------------------------------------------
# chi-square


def test_chi_square_exact_fit():
    stat, dof, p = stats.chi_square_gof([50, 50], [0.5, 0.5])
    assert stat == 0.0 and dof == 1 and p == 1.0


def test_chi_square_worked_example():
    stat, dof, p = stats.chi_square_gof([60, 40], [0.5, 0.5])
    assert stat == pytest.approx(4.0)
    assert dof == 1
    assert p == pytest.approx(scipy.special.gammaincc(0.5, 2.0), abs=1e-10)


def test_chi_square_tail_merging():
    # the starved right-tail cells collapse until the expectation clears 5
    probs = [0.5, 0.4, 0.05, 0.04, 0.01]
    stat, dof, p = stats.chi_square_gof([48, 42, 10, 0, 0], probs)
    assert dof == 3  # merged into 4 cells
    assert 0.0 <= p <= 1.0
    # starved left tail merges inward too
    probs = [0.01, 0.04, 0.45, 0.5]
    stat, dof, p = stats.chi_square_gof([0, 5, 45, 50], probs)
    assert dof == 2


def test_chi_square_starvation():
    with pytest.raises(DomainError):
        stats.chi_square_gof([3, 2], [0.5, 0.5])
    with pytest.raises(DomainError):
        stats.chi_square_gof([10, 10], [0.6, 0.5])  # probs sum > 1


def _end_cells_merged(observed, probs):
    """The cells after only the end cells fold inward, until each is fed."""
    obs, prb, n = [float(o) for o in observed], list(probs), math.fsum(observed)
    while len(obs) > 1 and n * prb[-1] < 5.0:
        obs[-2:], prb[-2:] = [obs[-2] + obs[-1]], [prb[-2] + prb[-1]]
    while len(obs) > 1 and n * prb[0] < 5.0:
        obs[:2], prb[:2] = [obs[1] + obs[0]], [prb[1] + prb[0]]
    return obs, [n * p for p in prb]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(1, 60), st.integers(0, 15)), min_size=2, max_size=12))
def test_chi_square_inner_merge_keeps_every_fed_result(cells):
    # where the end merge alone feeds every cell, the inner merge changes nothing
    weights, observed = zip(*cells)
    probs = [w / sum(weights) for w in weights]
    obs, expected = _end_cells_merged(observed, probs)
    if len(obs) < 2 or min(expected) < 5.0:
        return
    stat = math.fsum((o - e) ** 2 / e for o, e in zip(obs, expected))
    dof = len(obs) - 1
    assert stats.chi_square_gof(observed, probs) == (
        stat, dof, stats._gamma_upper_reg(dof / 2.0, stat / 2.0))


def test_chi_square_folds_a_starved_cell_beside_a_merged_tail():
    # the top tail merges to 5 and leaves 4 beside it; that cell joins the tail
    counts, probs = [30, 40, 21, 4, 3, 2], [0.3, 0.4, 0.21, 0.04, 0.03, 0.02]
    assert _end_cells_merged(counts, probs)[1][-2:] == pytest.approx([4, 5])
    for observed, cells in ((counts, probs), (counts[::-1], probs[::-1])):
        stat, dof, p = stats.chi_square_gof(observed, cells)
        assert dof == 3 and stat == pytest.approx(0.0, abs=1e-12)


def _chi_square_by_lists(observed, probs):
    """The chi-square fold as list deletions, cell by cell in the same order:
    the reference for the fold's arithmetic, quadratic where the low tail is long."""
    obs, prb = [float(o) for o in observed], [float(p) for p in probs]
    n = math.fsum(obs)

    def fold(into, cell):
        obs[into] += obs[cell]
        prb[into] += prb[cell]
        del obs[cell], prb[cell]

    for into, cell, least in ((-2, -1, 1), (1, 0, 1), (-1, -2, 2), (0, 1, 2)):
        while len(obs) > least and n * prb[cell] < 5.0:
            fold(into, cell)
    expected = [n * p for p in prb]
    if min(expected) < 5.0 or len(obs) < 2:
        return None
    stat = math.fsum((o - e) ** 2 / e for o, e in zip(obs, expected))
    dof = len(obs) - 1
    return stat, dof, stats._gamma_upper_reg(dof / 2.0, stat / 2.0)


def _chi_square_or_none(observed, probs):
    try:
        return stats.chi_square_gof(observed, probs)
    except DomainError:
        return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(1, 60), st.integers(0, 15)), min_size=2, max_size=40))
def test_chi_square_fold_matches_list_deletions(cells):
    weights, observed = zip(*cells)
    probs = [w / sum(weights) for w in weights]
    assert _chi_square_or_none(observed, probs) == _chi_square_by_lists(observed, probs)


def _long_low_tail(cells):
    """``cells`` starved cells of mass 1e-12 below ten fed ones, counts 0 and
    100 each: the low end folds through the whole tail."""
    fed = (1.0 - cells * 1e-12) / 10
    return [0] * cells + [100] * 10, [1e-12] * cells + [fed] * 10


def test_chi_square_folds_a_long_tail_in_linear_time():
    observed, probs = _long_low_tail(20_000)
    assert stats.chi_square_gof(observed, probs) == _chi_square_by_lists(observed, probs)
    observed, probs = _long_low_tail(300_000)  # list deletions take tens of seconds here
    start = time.perf_counter()
    stat, dof, p = stats.chi_square_gof(observed, probs)
    assert time.perf_counter() - start < 1.0
    # the tail's mass 3e-7 joins the lowest fed cell
    fed = (1.0 - 3e-7) / 10
    expected = [1000 * (fed + 3e-7)] + [1000 * fed] * 9
    assert dof == 9 and stat == pytest.approx(
        math.fsum((100 - e) ** 2 / e for e in expected), rel=1e-6)


def test_chi_square_type_one_error_rate():
    rej = 0
    probs = [1 / 6] * 6
    for i in range(500):
        s = stats.make_stream(888, i)
        obs = np.bincount(s.integers(0, 6, 120), minlength=6).astype(float)
        _, _, p = stats.chi_square_gof(obs.tolist(), probs)
        rej += p < 0.05
    assert 0.02 <= rej / 500 <= 0.09


def test_gamma_tail_against_scipy():
    worst = 0.0
    for a in (0.5, 1.0, 2.5, 5.0, 17.0, 60.0):
        for x in (0.01, 0.5, 1.0, 3.0, 10.0, 40.0, 200.0):
            ours = stats._gamma_upper_reg(a, x)
            worst = max(worst, abs(ours - scipy.special.gammaincc(a, x)))
    assert worst < 1e-8


def test_gamma_tail_closed_forms():
    for x in (1e-6, 0.3, 2.0, 50.0):
        assert stats._gamma_upper_reg(0.5, x) == math.erfc(math.sqrt(x))
        assert stats._gamma_upper_reg(1.0, x) == math.exp(-x)
        q2 = (1 + x) * math.exp(-x)
        assert stats._gamma_upper_reg(2.0, x) == pytest.approx(q2, rel=1e-15, abs=0)
    assert stats._gamma_upper_reg(3.5, 0.0) == 1.0
    assert stats._gamma_upper_reg(3.5, math.inf) == 0.0
    for a, x in ((0.0, 1.0), (1.25, 1.0), (2.0, -1.0), (math.nan, 1.0)):
        with pytest.raises(DomainError):
            stats._gamma_upper_reg(a, x)


# ---------------------------------------------------------------------------
# reference laws


def test_normal_cdf_values():
    assert stats.normal_cdf(0.0) == 0.5
    # frozen from scipy.special.ndtr(1.96)
    assert stats.normal_cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-6)


def test_normal_cdf_symmetry_and_monotone():
    zs = np.linspace(-8, 8, 10**4)
    vals = [stats.normal_cdf(float(z)) for z in zs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    for z in (0.3, 1.1, 2.7, 5.0):
        assert stats.normal_cdf(-z) == pytest.approx(1.0 - stats.normal_cdf(z), abs=1e-12)


def test_poisson_pmf():
    assert stats.poisson_pmf(1.0, 0) == pytest.approx(math.exp(-1))
    assert stats.poisson_pmf(0.0, 0) == 1.0
    assert stats.poisson_pmf(0.0, 3) == 0.0
    for mu in (0.5, 3.0, 40.0):
        k = stats.poisson_tail_cutoff(mu, 1e-12)
        total = math.fsum(stats.poisson_pmf(mu, j) for j in range(k + 1))
        assert total == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(DomainError):
        stats.poisson_pmf(-1.0, 0)


def _forward_tail_cutoff(mean, eps):
    # the cutoff as first written: a forward sum from exp(-mean), exact while
    # exp(-mean) is a normal float
    k, term = 0, math.exp(-mean)
    cum, cap = term, int(mean + 20.0 * math.sqrt(mean) + 200.0)
    while cum < 1.0 - eps and k < cap:
        k += 1
        term *= mean / k
        cum += term
    return k


def test_poisson_tail_cutoff_keeps_the_forward_sum_where_it_was_exact():
    tenths = [j / 10 for j in range(1, 401)]
    assert [stats.poisson_tail_cutoff(m, 1e-12) for m in tenths] == \
        [_forward_tail_cutoff(m, 1e-12) for m in tenths]
    assert stats.poisson_tail_cutoff(math.pi, 1e-12) == 22


@pytest.mark.parametrize("eps", [1e-10, 1e-12])
@pytest.mark.parametrize("mean", [0.3, math.pi, 40.0, 745.0, 800.0, 1e4, math.pi * 1e6])
def test_poisson_tails_against_mpmath(mean, eps):
    # P(X > K) is the regularized lower gamma P(K + 1, mean), P(X < K) the upper Q(K, mean)
    above = lambda k: mpmath.gammainc(k + 1, 0, mean, regularized=True)
    below = lambda k: mpmath.gammainc(k, mean, mpmath.inf, regularized=True) if k > 0 else 0
    (hi, upper), (lo, lower) = stats.poisson_tail(mean, eps), stats.poisson_tail(mean, eps, -1)
    with mpmath.workdps(30):
        assert above(hi) < eps <= above(hi - 1) and below(lo) < eps <= below(lo + 1)
        assert upper == pytest.approx(float(above(hi)), rel=1e-10)
        assert lower == pytest.approx(float(below(lo)), rel=1e-10, abs=1e-300)
    assert stats.poisson_tail_cutoff(mean, eps) == hi


@pytest.mark.parametrize("mean", [745.0, 1000.5, 3e4, math.pi * 1e6, 1e8])
def test_poisson_pmf_keeps_its_precision_at_large_means(mean):
    # the direct log form loses up to 7e-9 relative at mean pi * 1e6
    sd = math.sqrt(mean)
    for k in {999, 1000, 1001, int(mean), int(mean - 3 * sd), int(mean + 5 * sd)}:
        with mpmath.workdps(40):
            exact = float(mpmath.exp(-mean + k * mpmath.log(mean) - mpmath.loggamma(k + 1)))
        assert stats.poisson_pmf(mean, k) == pytest.approx(exact, rel=1e-11, abs=1e-300)


def test_poisson_tail_refusals():
    with pytest.raises(DomainError, match=r"0 < eps <= 1/4"):
        stats.poisson_tail(3.0, 0.5)
    with pytest.raises(CapacityError, match=r"^a Poisson tail at mean 2e\+09 is over the cap"):
        stats.poisson_tail_cutoff(2e9)
    assert stats.poisson_tail(0.0, 1e-12, -1) == stats.poisson_tail(0.0, 1e-12) == (0, 0.0)


@pytest.mark.parametrize("replicates, error, message", [
    (0, DomainError, r"^a campaign needs R >= 1, got R = 0$"),
    (10**20, CapacityError, r"^a campaign needs R <= 100000000, got R = 10{20}$"),
])
def test_replicate_count_is_checked_before_any_stream(monkeypatch, replicates, error, message):
    made = []
    monkeypatch.setattr(stats, "_seed_words", lambda *a: made.append(a))
    with pytest.raises(error, match=message):
        stats.run_replicates("degree", {"dist": "uniform:0,1", "theta": 1.0, "n": 5},
                             replicates, 0)
    assert made == []


def test_squared_deviations_beyond_the_floats_are_an_infinite_variance(monkeypatch):
    # each squared deviation is a float, their sum is not: math.fsum raises
    # OverflowError there, and the campaign refuses the variance by name
    spread = lambda params, streams: [1e154 * (-1) ** i for i, _ in enumerate(streams)]
    monkeypatch.setitem(stats._EXPERIMENTS, "spread", (spread, None))
    with pytest.raises(NumericError, match=r"^the sample variance is not finite: inf$"):
        stats.run_replicates("spread", {}, 7, 0)


@pytest.mark.parametrize("lam, centering", [(1e-10, 1e-320), (1.0, 1e308)])
def test_clt_scale_beyond_the_floats_names_cr_before_any_stream(monkeypatch, lam, centering):
    # lam * c_d * Cr underflows to 0 or overflows to inf
    made = []
    monkeypatch.setattr(stats, "_seed_words", lambda *a: made.append(a))
    params = dict(_SPACE, dist="uniform:0,1", r=3.0, lam=lam, Cr=centering)
    with pytest.raises(NumericError, match=re.escape(f"at Cr = {centering!r} is not a positive")):
        stats.run_replicates("clt", params, 7, 0)
    assert made == []
