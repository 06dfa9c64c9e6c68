"""Weight-law unit tests: CDF/quantile contracts, sampling, expectations,
and the split-support check against a brute-force grid oracle."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from threshnet import dist, limits, spatial
from threshnet.errors import DomainError, NumericError
from threshnet.stats import ks_statistic, make_stream
from law_ids import law_call_id, law_id

ALL_KINDS = [
    dist.uniform(0.0, 1.0),
    dist.exponential(1.0),
    dist.pareto(1.0, 1.0),
    dist.two_point(0.2, 0.5, 0.9),
    dist.finite_discrete([(0.1, 0.25), (0.5, 0.5), (1.1, 0.25)]),
    dist.point_mass(0.7),
]


def test_cdf_examples():
    assert dist.uniform(0, 1).cdf(0.3) == pytest.approx(0.3)
    assert dist.exponential(1.0).cdf(0.0) == 0.0
    assert dist.pareto(1.0, 1.0).cdf(2.0) == pytest.approx(0.5)


def test_quantile_examples():
    assert dist.uniform(0, 1)._ppf(0.25) == pytest.approx(0.25)
    assert dist.exponential(1.0)._ppf(1 - math.exp(-2)) == pytest.approx(2.0)
    assert dist.two_point(0.2, 0.5, 0.9)._ppf(0.7) == 0.9


@pytest.mark.parametrize("d", ALL_KINDS, ids=law_id)
def test_generalized_inverse(d):
    rng = np.random.default_rng(2024)
    for p in rng.random(1000):
        if not 0.0 < p < 1.0:
            continue
        q = d._ppf(p)
        assert d.cdf(q) >= p - 1e-12
    # quantile(cdf(x)) <= x at points carrying mass
    if d.is_discrete:
        xs = [x for x, _ in d.atoms()]
    else:
        xs = [d._ppf(float(p)) for p in rng.random(200) if 0 < p < 1]
    for x in xs:
        c = d.cdf(x)
        if 0.0 < c < 1.0:
            assert d._ppf(c) <= x + 1e-12


def test_uniform_tails_clip_before_the_difference():
    # b - x and x - a overflow far outside [0, 1e308]; on the support the
    # tails are the plain quotients, bit for bit
    wide = dist.uniform(0.0, 1e308)
    xs = [-1e308, -math.inf, 0.0, 5e307, 1e308, math.inf]
    assert wide.sf(np.array(xs)).tolist() == [1.0, 1.0, 1.0, 0.5, 0.0, 0.0]
    assert wide.cdf(np.array(xs)).tolist() == [0.0, 0.0, 0.0, 0.5, 1.0, 1.0]
    assert [wide.sf(x) for x in xs] == [1.0, 1.0, 1.0, 0.5, 0.0, 0.0]
    rng = np.random.default_rng(41)
    for a, b in ((0.0, 1.0), (-3.0, 0.25), (0.0, 1e308), (-1e308, -1e307)):
        x = np.concatenate([rng.uniform(a, b, 1000), [a, b]])
        law = dist.uniform(a, b)
        assert law.sf(x).tobytes() == ((b - x) / (b - a)).tobytes()
        assert law.cdf(x).tobytes() == ((x - a) / (b - a)).tobytes()


def test_exponential_tails_beyond_the_floats():
    # rate x overflows to inf: the tails are 1 and 0, with no overflow warning
    law = dist.exponential(5.0)
    xs = [7.190772539449264e307, 1.7e308, math.inf]
    assert law.cdf(np.array(xs)).tolist() == [1.0, 1.0, 1.0]
    assert law.sf(np.array(xs)).tolist() == [0.0, 0.0, 0.0]
    assert [law.cdf(x) for x in xs] == [1.0, 1.0, 1.0]
    assert [law.sf(x) for x in xs] == [0.0, 0.0, 0.0]


def test_cdf_shape_on_grid():
    for d in ALL_KINDS:
        lo, hi = d.support()
        hi_eff = hi if math.isfinite(hi) else d._ppf(0.999) + 1.0
        grid = np.linspace(lo - 1.0, hi_eff + 1.0, 500)
        vals = d.cdf(grid)
        assert np.all(np.diff(vals) >= -1e-15)
        assert d.cdf(lo - 2.0) == 0.0
        if math.isfinite(hi):
            assert d.cdf(hi + 1.0) == 1.0


def test_sampling_point_mass_constant():
    s = make_stream(5)
    assert dist.point_mass(0.7).sample(s) == 0.7
    assert np.all(dist.point_mass(0.7).sample(s, 100) == 0.7)


def test_sampling_uniform_ks():
    x = dist.uniform(0, 1).sample(make_stream(3), 10**5)
    d = ks_statistic(x, lambda t: max(0.0, min(1.0, t)))
    assert d < 0.01  # KS critical value at n = 1e5 is ~0.0043 at 1%


def test_sampling_two_point_frequency():
    y = dist.two_point(0.2, 0.5, 0.9).sample(make_stream(4), 10**5)
    assert abs(float(np.mean(y == 0.2)) - 0.5) < 0.01


def _reference_draw(law, u):
    """The inverse transform as it ran out of place on the whole draw, kept
    here as the reference for the in-place sampler."""
    if law.kind == "uniform":
        a, b = law.params
        x = a + (b - a) * u
    elif law.kind == "exponential":
        (rate,) = law.params
        x = -np.log1p(-u) / rate
    elif law.kind == "pareto":
        c, alpha = law.params
        x = (c / (1.0 - u)) ** (1.0 / alpha)
    else:
        vals, cum, _ = law._atom_tables()
        x = vals[np.searchsorted(cum[1:], u, side="left")]
    return float(x) if np.ndim(u) == 0 else np.asarray(x, dtype=float)


# pareto alpha = 2 and 1 take numpy's sqrt and copy fast paths for arrays
SAMPLED_LAWS = ALL_KINDS + [dist.pareto(2.0, 2.0), dist.pareto(1.5, 3.0),
                            dist.uniform(-2.0, 0.5), dist.exponential(0.3)]


@pytest.mark.parametrize("size", [None, 7, 2**16 + 3, (5000, 4), (3, 2**15 + 1)],
                         ids=["scalar", "n", "n-blocks", "rows", "rows-blocks"])
@pytest.mark.parametrize("law", SAMPLED_LAWS, ids=law_call_id)
def test_sampling_matches_the_out_of_place_transform_bit_for_bit(law, size):
    if size is None:
        draws, uniforms = make_stream(21), make_stream(21)
        for _ in range(500):
            x = law.sample(draws)
            assert type(x) is float and x == _reference_draw(law, uniforms.random())
    else:
        x = law.sample(make_stream(21), size)
        ref = _reference_draw(law, make_stream(21).random(size))
        assert x.dtype == np.float64 and x.shape == ref.shape
        assert x.tobytes() == ref.tobytes()


@pytest.mark.parametrize("block", [1, 7, None], ids=["block-1", "block-7", "block-default"])
@pytest.mark.parametrize("law", SAMPLED_LAWS, ids=law_call_id)
def test_blocks_are_the_whole_array_draw_bit_for_bit(monkeypatch, law, block):
    # n and rows of 4 on both sides of one and two block boundaries: the blocks
    # are cut at whole rows and concatenate to the whole-array draw, and the
    # stream ends where that draw leaves it, the buffered 32-bit half included
    if block is not None:
        monkeypatch.setattr(dist, "_SAMPLE_BLOCK", block)
    for k in (1, 4):
        rows = max(1, dist._SAMPLE_BLOCK // k)
        for n in sorted({1, 2, rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows,
                         2 * rows + 1} - {0}):
            size = n if k == 1 else (n, k)
            stream, reference = make_stream(n), make_stream(n)
            for s in (stream, reference):
                s.integers(2**32, dtype=np.uint32)
            blocks = list(law.blocks(stream, size))
            whole = law.sample(reference, size)
            assert [b.shape[0] for b in blocks] == [min(rows, n - s) for s in range(0, n, rows)]
            assert np.concatenate(blocks).shape == whole.shape
            assert np.concatenate(blocks).tobytes() == whole.tobytes()
            assert stream.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("law", SAMPLED_LAWS, ids=law_call_id)
def test_ppf_leaves_its_input_unchanged(law):
    u = np.linspace(0.0, 0.999, 101)
    before = u.copy()
    x = law._ppf(u)
    assert u.flags.writeable and u.tobytes() == before.tobytes()
    assert x.tobytes() == _reference_draw(law, before).tobytes()


def test_sampling_determinism():
    a = dist.exponential(2.0).sample(make_stream(11), 1000)
    b = dist.exponential(2.0).sample(make_stream(11), 1000)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("d", ALL_KINDS, ids=law_id)
def test_expectation_normalization(d):
    assert dist.expectation(d, lambda x: 1.0) == pytest.approx(1.0, abs=1e-12)


def test_expectation_means():
    assert dist.expectation(dist.uniform(0, 1), lambda x: x) == pytest.approx(0.5, abs=1e-10)
    assert dist.expectation(dist.exponential(1.0), lambda x: x) == pytest.approx(1.0, abs=1e-8)


def test_expectation_nonfinite_integrand():
    with pytest.raises(NumericError):
        dist.expectation(dist.uniform(0, 1), lambda x: math.inf)


@pytest.mark.parametrize(
    "d", [dist.uniform(0, 1), dist.exponential(1.0), dist.pareto(1.0, 2.0)],
    ids=lambda d: d.kind,
)
def test_expectation_indicator_tail(d):
    # tail expectations must match 1 - cdf to quadrature accuracy
    ts = np.linspace(d._ppf(0.01), d._ppf(0.99), 100)
    for t in ts:
        val = dist.expectation(d, lambda x, t=t: np.where(x > t, 1.0, 0.0))
        assert abs(val - (1.0 - d.cdf(float(t)))) < 1e-8


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "d, g, density, lower",
    [
        (dist.exponential(1.0), lambda x: x * x, lambda x: x**2 * mpmath.exp(-x), 0),
        (dist.exponential(2.0), lambda x: x**3, lambda x: 2 * x**3 * mpmath.exp(-2 * x), 0),
        (dist.pareto(1.0, 3.0), lambda x: x, lambda x: 3 * x**-3, 1),
    ],
    ids=["exp-x2", "exp2-x3", "pareto3-x"],
)
def test_expectation_finite_tail_moments(d, g, density, lower):
    # finite moments of unbounded laws: no node may round onto u = 1, where
    # the quantile is infinite
    exact = float(mpmath.quad(density, [lower, mpmath.inf]))
    assert dist.expectation(d, g) == pytest.approx(exact, rel=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_expectation_strong_tail_singularity():
    # E[X**2] under pareto(1, 4) integrates (1 - u)**-0.5: finite, but the
    # cell at u = 1 is accepted at width 1e-14 with its error unresolved, so
    # only ~1e-9 relative accuracy is reached
    assert dist.expectation(dist.pareto(1.0, 4.0), lambda x: x * x) == pytest.approx(
        2.0, rel=1e-8
    )


# ---------------------------------------------------------------------------
# array-valued quadrature


def test_quad_checked_values():
    assert dist.quad_checked(np.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-13)
    with pytest.raises(DomainError):  # unbounded ranges go through quantile space
        dist.quad_checked(lambda s: np.exp(-s), 1.0, math.inf)
    # a kink on a breakpoint, a constant integrand, an empty range
    assert dist.quad_checked(
        lambda s: np.abs(s - 0.3), 0.0, 1.0, points=[0.3, 2.0]
    ) == pytest.approx(0.29, rel=1e-13)
    assert dist.quad_checked(lambda s: 2.0, 1.0, 4.0) == pytest.approx(6.0, rel=1e-13)
    assert dist.quad_checked(np.sin, 2.0, 2.0) == 0.0


def test_quad_checked_mass_beyond_the_first_nodes():
    # nearly all of the integral lies below the first level's smallest node
    # (about 1.6e-3, where exp(-x / 3e-6) is 1e-226); the scale grows as
    # bisection finds it, so the panels close instead of exhausting the budget
    for eps in (1e-4, 1e-5, 3e-6):
        value = dist.quad_checked(lambda x: np.exp(-x / eps), 0.0, 1.0)
        assert value == pytest.approx(eps * -math.expm1(-1.0 / eps), rel=1e-13)


@pytest.mark.parametrize("d", ALL_KINDS, ids=law_id)
def test_sf_is_the_upper_tail(d):
    lo, hi = d.support()
    xs = np.linspace(lo - 1.0, (hi if math.isfinite(hi) else lo + 10.0) + 1.0, 97)
    assert d.sf(xs) == pytest.approx(1.0 - d.cdf(xs), abs=1e-15)
    assert d.sf(float(xs[40])) == pytest.approx(1.0 - d.cdf(float(xs[40])), abs=1e-15)


def test_sf_keeps_far_tails():
    # 1 - cdf rounds these tails to 0
    assert dist.exponential(1.0).sf(40.0) == math.exp(-40.0)
    assert dist.exponential(2.0).cdf(30.0) == 1.0
    assert dist.pareto(1.0, 3.0).sf(1e6) == pytest.approx(1e-18, rel=1e-15)
    # atom laws cumulate their masses from the top
    law = dist.finite_discrete([(0.0, 1.0 - 1e-20), (1.0, 1e-20)])
    assert law.sf(0.5) == 1e-20
    assert law.sf(np.array([-1.0, 0.0, 1.0])).tolist() == [1.0, 1e-20, 0.0]


def test_quad_checked_nonfinite_integrand():
    with pytest.raises(NumericError, match="not finite"):
        dist.quad_checked(lambda s: np.where(s > 0.3, np.inf, 1.0), 0.0, 1.0)


def test_quad_checked_exhausted_budget():
    with pytest.raises(NumericError, match="budget"):
        dist.quad_checked(lambda s: np.sin(200.0 * s * s), 0.0, 10.0)


def test_quad_checked_domain():
    with pytest.raises(DomainError):
        dist.quad_checked(np.sin, -math.inf, 0.0)
    with pytest.raises(DomainError):
        dist.quad_checked(np.sin, 1.0, 0.0)
    with pytest.raises(DomainError, match=r"\[2.0, 1.0\]"):
        dist.quad_checked(np.sin, np.array([0.0, 2.0]), 1.0)


def test_quad_checked_batch_equals_rows():
    # finite rows, empty rows, per-row breakpoints (NaN padded) and a
    # per-row parameter: each row equals its own call exactly; a batch with
    # infinite rows is refused
    lo = np.array([0.0, 0.5, 1.0, 0.3, 2.0, 0.0])
    hi = np.array([1.0, math.inf, 1.0, 4.0, math.inf, 0.7])
    points = np.array([
        [0.25, np.nan, np.nan],
        [0.8, 3.0, np.nan],
        [0.5, np.nan, np.nan],
        [1.0, 2.5, 3.5],
        [np.nan, np.nan, np.nan],
        [0.35, 0.7, 9.0],
    ])
    c = np.array([0.25, 0.8, 0.5, 2.5, 3.0, 0.35])
    k = np.array([1e-6, 1.0, 1.0, 1e3, 1.0, 1e-3])  # each row has its own scale

    def f(s, c, k):
        return k * (np.abs(s - c) + np.sin(7.0 * s * s)) * np.exp(-s)

    with pytest.raises(DomainError, match=r"\[0.5, inf\]"):
        dist.quad_checked(f, lo, hi, points=points, args=(c, k))
    finite = np.isfinite(hi)
    flo, fhi, fpoints, fc, fk = (a[finite] for a in (lo, hi, points, c, k))
    batch = dist.quad_checked(f, flo, fhi, points=fpoints, args=(fc, fk))
    rows = [
        dist.quad_checked(lambda s, i=i: f(s, fc[i], fk[i]), flo[i], fhi[i],
                          points=[p for p in fpoints[i] if not math.isnan(p)])
        for i in range(flo.size)
    ]
    assert isinstance(rows[0], float) and batch.shape == flo.shape
    assert batch.tolist() == rows
    assert batch[1] == 0.0  # the empty row [1.0, 1.0]
    # 1-D breakpoints shared by every row
    shared = dist.quad_checked(np.sin, lo, hi.clip(max=5.0), points=[0.6, 1.5])
    assert shared.tolist() == [
        dist.quad_checked(np.sin, lo[i], min(hi[i], 5.0), points=[0.6, 1.5])
        for i in range(lo.size)
    ]


def test_quad_checked_batch_errors_name_the_row():
    lo, hi = np.array([0.0, 2.0, 5.0]), np.array([1.0, 3.0, 6.0])
    with pytest.raises(NumericError, match=r"not finite at node .* of \[5.0, 6.0\]"):
        dist.quad_checked(lambda s: np.where(s > 5.2, np.inf, 1.0), lo, hi)
    with pytest.raises(NumericError, match=r"\[0.0, 10.0\] exhausted its budget"):
        dist.quad_checked(lambda s: np.sin(200.0 * s * s), np.zeros(2),
                          np.array([1.0, 10.0]))


def test_expectation_calls_g_on_node_arrays():
    shapes = []

    def g(x):
        shapes.append(np.shape(x))
        return x

    dist.expectation(dist.uniform(0, 1), g)
    cells = sum(shape[0] for shape in shapes) // 21
    assert all(len(shape) == 1 and shape[0] % 21 == 0 for shape in shapes)
    assert len(shapes) < cells
    # whole levels, unchunked: the 15 seed panels of the 8- and 7-cell passes,
    # then their 30 halves
    assert shapes[:2] == [(15 * 21,), (30 * 21,)]
    shapes.clear()
    law = dist.finite_discrete([(0.1, 0.25), (0.5, 0.5), (1.1, 0.25)])
    assert dist.expectation(law, g) == pytest.approx(0.55, abs=1e-15)
    assert shapes == [(3,)]
    with pytest.raises(NumericError, match="atom x=0.5"):
        dist.expectation(law, lambda x: np.where(x == 0.5, np.nan, x))


def test_gauss_legendre_literals():
    nodes, weights = np.polynomial.legendre.leggauss(21)
    assert dist._GL_NODES.tolist() == nodes.tolist()
    assert dist._GL_WEIGHTS.tolist() == weights.tolist()


def test_expectation_exhausted_budget():
    with pytest.raises(NumericError, match=r"\[0.0, 0.5\] exhausted its budget of 256 panels"):
        dist.expectation(dist.uniform(0, 1), lambda x: np.sin(1e5 * x))


def test_expectation_unresolved_singularity():
    # x**-0.9 is integrable, but its mass below the panel width floor of
    # 1e-14 of the row is 4% of the total, far above the error a row may keep
    with pytest.raises(NumericError,
                       match=r"\[0.4285714285714286, 1.0\] exhausted its budget of 256 panels"):
        dist.expectation(dist.uniform(0, 1), lambda x: x**-0.9)


def _sliver_steps(*steps):
    """A sum of unit steps 1{x > edge + offset} under uniform(0, 1), where x
    is u itself.  Each offset is below the node-free sliver of the seed
    panel that starts at ``edge``, so the pass whose partition has that
    edge misses the step's mass; the other passes resolve it."""
    return lambda x: sum(np.where(x > edge + offset, 1.0, 0.0) for edge, offset in steps)


def test_expectation_passes_disagree():
    # 1/8 is a dyadic point that the 7- and 11-cell passes reach at
    # bisection depth 3, where their slivers are narrower than 3e-5; 1/7
    # and 1/11 are edges of one partition only
    g = _sliver_steps((1 / 8, 1e-4), (1 / 7, 3e-5), (1 / 11, 1e-5))
    with pytest.raises(NumericError, match="passes disagree"):
        dist.expectation(dist.uniform(0, 1), g)


@pytest.mark.parametrize("down", [False, True], ids=["step-up", "step-down"])
def test_expectation_majority_of_three_passes(down):
    # the 8-cell pass misses the step, the 7-cell pass sees it, and the
    # 11-cell pass breaks the tie; the outlier is the largest pass for a
    # step up and the smallest for a step down
    up = _sliver_steps((1 / 8, 1e-4))
    g = (lambda x: 1.0 - up(x)) if down else up
    exact = 1 / 8 + 1e-4 if down else 1.0 - (1 / 8 + 1e-4)
    assert dist.expectation(dist.uniform(0, 1), g) == pytest.approx(exact, abs=1e-12)


# ---------------------------------------------------------------------------
# expectation against the depth-first reference


def _reference_expectation(law, g, limit=256):
    """``expectation`` as it ran depth first, one 21-node cell per call of
    ``g`` and an absolute tolerance per cell, kept as the reference the
    passes through ``quad_checked`` must match."""
    if law.is_discrete:
        return dist.expectation(law, g)
    nodes, weights = np.polynomial.legendre.leggauss(21)

    def cell(a, b):
        half = 0.5 * (b - a)
        u = a + half * (nodes + 1.0)
        v = (1.0 - b) + half * (1.0 - nodes)
        xs = np.where(u <= 0.5, law._ppf(np.minimum(u, 0.5)), law._isf(v))
        vals = np.broadcast_to(np.asarray(g(xs), dtype=float), xs.shape)
        assert np.isfinite(vals).all()
        return half * math.fsum((weights * vals).tolist())

    def adaptive_unit_integral(n_seeds, abstol=1e-10, budget=16384):
        seeds = [(i / n_seeds, (i + 1) / n_seeds) for i in range(n_seeds)]
        stack = [(a, b, cell(a, b)) for a, b in seeds]
        accepted = []
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
            assert used <= budget
            stack.append((a, mid, left))
            stack.append((mid, b, right))
        return math.fsum(accepted)

    first = adaptive_unit_integral(8, budget=64 * limit)
    second = adaptive_unit_integral(7, budget=64 * limit)
    if abs(first - second) <= 5e-9 * max(1.0, abs(first)):
        return 0.5 * (first + second)
    third = adaptive_unit_integral(11, budget=64 * limit)
    candidates = sorted([first, second, third])
    if candidates[1] - candidates[0] <= candidates[2] - candidates[1]:
        close = (candidates[0], candidates[1])
    else:
        close = (candidates[1], candidates[2])
    assert abs(close[0] - close[1]) <= 5e-9 * max(1.0, abs(close[1]))
    return 0.5 * (close[0] + close[1])


_SPATIAL = spatial.SpatialConfig(d=2, beta=2.0, theta=1.0, lam=1.0, r=3.0)
_INTEGRANDS = {
    "x": lambda law: lambda x: x,
    "x2": lambda law: lambda x: x * x,
    "indicator": lambda law: lambda x: np.where(x > 0.6, 1.0, 0.0),
    "triangle-h1": lambda law: lambda x: limits.conditional_triangle_probability(
        limits.LimitConfig(law, 1.0), x),
    "radial": lambda law: lambda x: spatial.radial_intensity(_SPATIAL, law, x),
}


@pytest.mark.parametrize("name", sorted(_INTEGRANDS))
@pytest.mark.parametrize("law", ALL_KINDS, ids=law_id)
def test_expectation_equals_depth_first_reference(law, name):
    if name in ("x", "x2") and law.kind == "pareto":
        law = dist.pareto(1.0, 8.0)  # pareto(1, 1) has no finite mean
    g = _INTEGRANDS[name](law)
    assert dist.expectation(law, g) == pytest.approx(_reference_expectation(law, g), rel=1e-12)


@pytest.mark.parametrize("name", ["x", "x2", "indicator", "triangle-h1"])
@pytest.mark.parametrize("law", ALL_KINDS, ids=law_id)
def test_expectation_equals_one_uncertified_row(law, name):
    # the certified passes and one expect_rows row over the whole line agree;
    # the indicator jumps at 0.6, away from every seed edge
    if name in ("x", "x2") and law.kind == "pareto":
        law = dist.pareto(1.0, 8.0)  # pareto(1, 1) has no finite mean
    g = _INTEGRANDS[name](law)
    row = dist.expect_rows(law, g, -math.inf, math.inf)
    assert dist.expectation(law, g) == pytest.approx(row, rel=5e-9)


# ---------------------------------------------------------------------------
# partial expectations

ATOM_LAWS = [
    dist.two_point(0.2, 0.5, 0.9),
    dist.finite_discrete([(0.1, 0.25), (0.5, 0.5), (1.1, 0.25)]),
    dist.point_mass(0.7),
]


@pytest.mark.parametrize("law", ATOM_LAWS, ids=law_id)
def test_expect_rows_atoms_equal_brute_force_sums(law):
    # the range ends fall on atoms, below and above the support and at +-inf
    ends = [-math.inf, 0.0, 0.1, 0.2, 0.5, 0.7, 0.9, 1.1, 2.0, math.inf]
    lo, hi = (np.array(column) for column in zip(*[(a, b) for a in ends for b in ends]))
    shift = np.linspace(-1.0, 1.0, lo.size)
    got = dist.expect_rows(law, lambda x, c: (x - c) ** 2, lo, hi, args=(shift,))
    want = [math.fsum(p * (x - c) ** 2 for x, p in law.atoms() if a < x <= b)
            for a, b, c in zip(lo, hi, shift)]
    assert got.tolist() == want


# law, density, tail power: under pareto(2, 3) the integrand grows like
# v**(-2/3) in the tail level v, so its rows run in v**(1/3)
_DENSITIES = {
    "uniform": (dist.uniform(-0.5, 1.5), lambda x: mpmath.mpf(1) / 2, 1.0),
    "exponential": (dist.exponential(2.0), lambda x: 2 * mpmath.exp(-2 * x), 1.0),
    "pareto": (dist.pareto(2.0, 3.0), lambda x: 6 * x**-4, 3.0),
}


@pytest.mark.parametrize("name", sorted(_DENSITIES))
@pytest.mark.parametrize("lo, hi", [(-math.inf, math.inf), (0.2, 1.3), (1.0, math.inf),
                                    (-1.0, 0.7), (1.3, 1.3), (1.3, 0.2)])
def test_expect_rows_continuous_against_mpmath(name, lo, hi):
    law, density, power = _DENSITIES[name]
    cut = 1.4  # the kink of g, given as a weight
    s_lo, s_hi = law.support()
    a, b = max(lo, s_lo), min(hi, s_hi)
    nodes = [a, *([cut] if a < cut < b else []), b]
    exact = float(mpmath.quad(lambda x: abs(x - cut) * x * density(x), nodes)) if a < b else 0.0
    got = dist.expect_rows(law, lambda x: np.abs(x - cut) * x, lo, hi, points=[cut],
                           tail_power=power)
    assert isinstance(got, float)
    assert got == pytest.approx(exact, rel=1e-12, abs=1e-15)


@pytest.mark.xfail(strict=True, reason=(
    "g(isf(v)) grows like v**(-2/3) at v = 0, which the panels cannot resolve, "
    "yet the summed error estimate stays below the failure bound: 2.4e-6 "
    "relative off, no error; see the FOUND item on dist.quad_checked in "
    "CHANGES.md"))
def test_expect_rows_unresolved_tail_growth_is_not_silent():
    law = dist.pareto(2.0, 3.0)
    cut = 1.4
    with mpmath.workdps(30):
        exact = float(mpmath.quad(lambda x: 6 * abs(x - mpmath.mpf(cut)) * x**-3,
                                  [mpmath.cbrt(2), cut, mpmath.inf]))
    try:
        got = dist.expect_rows(law, lambda x: np.abs(x - cut) * x, -math.inf, math.inf,
                               points=[cut])
    except NumericError:
        return  # a typed refusal is a correct outcome too
    assert got == pytest.approx(exact, rel=1e-9, abs=0)


@pytest.mark.parametrize("law", [dist.exponential(1.0), dist.pareto(1.0, 2.5),
                                 *ATOM_LAWS], ids=law_id)
def test_expect_rows_batch_equals_scalar_calls(law):
    lo = np.array([-math.inf, 0.0, 0.3, 1.0, 2.0, 0.5])
    hi = np.array([math.inf, 1.0, 4.0, math.inf, 1.0, 0.9])
    c = np.array([0.1, 0.7, 1.2, 2.5, 0.0, 3.0])
    points = np.stack([c, c + 1.0], axis=1)

    def g(x, c):
        return np.sqrt(np.abs(x - c)) + x

    batch = dist.expect_rows(law, g, lo, hi, points=points, args=(c,))
    rows = [dist.expect_rows(law, g, lo[i], hi[i], points=points[i], args=(c[i],))
            for i in range(lo.size)]
    assert batch.tolist() == rows


@pytest.mark.parametrize("law", [dist.exponential(1.0), dist.pareto(1.0, 2.5),
                                 *ATOM_LAWS], ids=law_id)
def test_expect_rows_more_rows_than_a_batch(law, monkeypatch):
    # the rows run in consecutive bounded batches, each row still bit for bit
    # a call of its own
    m = dist._ROWS_PER_BATCH + 45
    shift = np.arange(m) * 1e-3
    lo = np.resize([-math.inf, 0.0, 0.3, 1.0, 2.0, 0.5], m) + shift
    hi = np.resize([math.inf, 1.0, 4.0, math.inf, 1.0, 0.9], m) + shift
    c = np.resize([0.1, 0.7, 1.2, 2.5, 0.0, 3.0], m) + shift
    points = np.stack([c, c + 1.0], axis=1)
    quad, quad_rows, g_sizes = dist.quad_checked, [], []

    def spy(f, lo, hi, **kwargs):
        quad_rows.append(np.size(lo))
        return quad(f, lo, hi, **kwargs)

    def g(x, c):
        g_sizes.append(x.size)
        return np.sqrt(np.abs(x - c)) + x

    monkeypatch.setattr(dist, "quad_checked", spy)
    batch = dist.expect_rows(law, g, lo, hi, points=points, args=(c,))
    if law.is_discrete:  # one call of g a batch, on at most all atoms of every row
        assert quad_rows == [] and len(g_sizes) == 2
        assert max(g_sizes) <= dist._ROWS_PER_BATCH * len(law.atoms())
    else:
        assert quad_rows == [dist._ROWS_PER_BATCH, 45]
    rows = [dist.expect_rows(law, g, lo[i], hi[i], points=points[i], args=(c[i],))
            for i in range(m)]
    assert batch.tolist() == rows


def test_expect_rows_nonfinite_integrand():
    law = dist.finite_discrete([(0.1, 0.25), (0.5, 0.5), (1.1, 0.25)])
    with pytest.raises(NumericError, match="atom x=0.5"):
        dist.expect_rows(law, lambda x: np.where(x == 0.5, np.inf, x), 0.0, 1.0)
    # an atom outside the range is never evaluated
    assert dist.expect_rows(law, lambda x: 1.0 / (x - 0.5), 0.6, 2.0) == pytest.approx(
        0.25 / 0.6, rel=1e-15)
    # a continuous row names the law and the weight x, not a tail level
    with pytest.raises(NumericError, match=r"^exponential:1\.0 integrand not finite at x=") as err:
        dist.expect_rows(dist.exponential(1.0), lambda x: np.where(x > 2.0, np.nan, x),
                         1.0, math.inf)
    assert float(str(err.value).rpartition("=")[2]) > 2.0


# ---------------------------------------------------------------------------
# split-support check


def test_split_support_examples():
    holds, wit = dist.check_split_support(dist.uniform(0, 1), 1.0)
    assert holds
    u, v = wit
    assert u < 0.5 < v and u + v > 1.0
    assert dist.check_split_support(dist.two_point(0.2, 0.5, 0.9), 1.2) == (False, None)
    holds, wit = dist.check_split_support(dist.two_point(0.4, 0.5, 0.8), 1.0)
    assert holds and wit == (0.4, 0.8)
    # the heavy witness lies where cdf rounds to 1
    holds, (u, v) = dist.check_split_support(dist.exponential(8.0), 6.0)
    assert holds and u < 3.0 < v and u + v > 6.0


def _split_support_oracle(d, theta):
    """Brute-force scan over a fine support grid with epsilon mass probes."""
    lo, hi = d.support()
    hi_eff = hi if math.isfinite(hi) else d._ppf(1 - 1e-3)
    grid = list(np.linspace(lo, hi_eff, 4001))
    if d.is_discrete:
        grid = [x for x, _ in d.atoms()]

    def in_support(t):
        eps = 1e-9 * max(1.0, abs(t))
        return d.cdf(t + eps) - d.cdf(t - eps) > 0.0

    half = theta / 2.0
    us = [t for t in grid if t < half - 1e-9 and in_support(t)]
    vs = [t for t in grid if t > half + 1e-9 and in_support(t)]
    return any(u + v > theta + 1e-12 for u in us for v in vs[-1:]) if vs else False


@pytest.mark.parametrize("theta", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("d", ALL_KINDS, ids=law_id)
def test_split_support_matches_grid_oracle(d, theta):
    holds, wit = dist.check_split_support(d, theta)
    assert holds == _split_support_oracle(d, theta)
    if holds:
        u, v = wit
        assert u < theta / 2 < v and u + v > theta


def test_split_support_adjacent_floats():
    # theta - 1 and theta / 2 are adjacent floats: no float u lies between them
    theta = 1.9999999999999998
    assert math.nextafter(theta - 1.0, 1.0) == theta / 2
    assert dist.check_split_support(dist.uniform(0, 1), theta) == (False, None)


# Random laws of each kind.
_LAWS = {
    "uniform": st.tuples(st.floats(-2, 2), st.floats(0.05, 3)).map(
        lambda t: dist.uniform(t[0], t[0] + t[1])),
    "exponential": st.floats(0.1, 5).map(dist.exponential),
    "pareto": st.tuples(st.floats(0.2, 3), st.floats(0.3, 5)).map(lambda t: dist.pareto(*t)),
    "two_point": st.tuples(st.floats(-1, 2), st.floats(0.01, 0.99), st.floats(0.01, 2)).map(
        lambda t: dist.two_point(t[0], t[1], t[0] + t[2])),
    "discrete": st.lists(st.tuples(st.floats(-1, 3), st.integers(1, 9)), min_size=1,
                         max_size=5, unique_by=lambda atom: atom[0]).map(
        lambda atoms: dist.finite_discrete(
            [(x, w / sum(w for _, w in atoms)) for x, w in atoms])),
    "point": st.floats(-2, 2).map(dist.point_mass),
}


def _anchors(law):
    """The thetas where the verdict can change: 2 inf, inf + sup, 2 sup, and
    for atom laws 2x and x + sup at every atom x."""
    lo, hi = law.support()
    xs = [x for x, _ in law.atoms()] if law.is_discrete else [lo]
    return [t for t in (*(2 * x for x in xs), *(x + hi for x in xs), 2 * hi) if math.isfinite(t)]


def _nudged(anchor, data):
    """``anchor`` moved by a few ulps, or by a relative step of 1e-15 to 1."""
    if data.draw(st.booleans()):
        theta = anchor
        for _ in range(data.draw(st.integers(1, 3))):
            theta = math.nextafter(theta, data.draw(st.sampled_from([-math.inf, math.inf])))
        return theta
    step = 10.0 ** data.draw(st.floats(-15, 0)) * max(1.0, abs(anchor))
    return anchor + data.draw(st.sampled_from([-1.0, 1.0])) * step


@pytest.mark.parametrize("kind", sorted(_LAWS))
def test_split_support_witness_is_valid_property(kind):
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_LAWS[kind], st.data())
    def check(law, data):
        if data.draw(st.booleans()):
            theta = _nudged(data.draw(st.sampled_from(_anchors(law))), data)
        else:
            theta = data.draw(st.one_of(st.floats(-3, 40),
                                        st.floats(allow_nan=False, allow_infinity=False)))
        holds, wit = dist.check_split_support(law, theta)
        if not holds:
            assert wit is None
            return
        u, v = wit
        assert u < theta / 2 < v and u + v > theta
        lo, hi = law.support()
        if law.is_discrete:
            assert {u, v} <= {x for x, _ in law.atoms()}
        else:
            assert lo <= u and v <= hi and math.isfinite(v)

    check()


@pytest.mark.parametrize("kind", sorted(_LAWS))
def test_split_support_matches_grid_oracle_property(kind):
    # The oracle resolves the support to its grid step (atoms to 1e-9), so
    # theta keeps that far from every anchor, and below the grid's top for
    # unbounded laws.
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(_LAWS[kind], st.data())
    def check(law, data):
        lo, hi = law.support()
        top = hi if math.isfinite(hi) else law._ppf(1 - 1e-3)
        gap = 1e-6 * max(1.0, abs(top)) if law.is_discrete else 4 * (top - lo) / 4000
        anchors = _anchors(law)
        if data.draw(st.booleans()):
            theta = data.draw(st.sampled_from(anchors)) + data.draw(
                st.sampled_from([-1.0, 1.0])) * data.draw(st.floats(1.0, 100.0)) * gap
        else:
            theta = data.draw(st.floats(2 * lo - 1.0, 2 * top + 1.0))
        assume(all(abs(theta - anchor) >= gap for anchor in anchors))
        assume(math.isfinite(hi) or theta < 2 * (top - gap))
        assert dist.check_split_support(law, theta)[0] == _split_support_oracle(law, theta)

    check()


# ---------------------------------------------------------------------------
# construction and parsing


def test_constructor_validation():
    with pytest.raises(DomainError):
        dist.uniform(1.0, 1.0)
    with pytest.raises(DomainError):
        dist.exponential(0.0)
    with pytest.raises(DomainError):
        dist.pareto(-1.0, 1.0)
    with pytest.raises(DomainError):
        dist.two_point(0.9, 0.5, 0.2)
    with pytest.raises(DomainError):
        dist.finite_discrete([(0.1, 0.6), (0.2, 0.5)])  # sums to 1.1
    with pytest.raises(DomainError):
        dist.finite_discrete([(0.1, 0.5), (0.1, 0.5)])  # duplicate atom


@pytest.mark.parametrize("scale_c, alpha", [(10.0, 0.001), (0.1, 0.001)],
                         ids=["overflow", "underflow"])
def test_pareto_refuses_a_lower_bound_outside_floats(scale_c, alpha):
    # scale_c**(1/alpha) is 10**1000 or 0.1**1000, not a positive finite float
    with pytest.raises(DomainError, match="pareto"):
        dist.pareto(scale_c, alpha)
    with pytest.raises(DomainError, match="pareto"):
        dist.parse_dist(f"pareto:{scale_c},{alpha}")


def test_parse_dist():
    assert dist.parse_dist("uniform:0,1") == dist.uniform(0, 1)
    assert dist.parse_dist("exp:2.5") == dist.exponential(2.5)
    assert dist.parse_dist("pareto:1,1.5") == dist.pareto(1, 1.5)
    assert dist.parse_dist("twopoint:0.2,0.5,0.9") == dist.two_point(0.2, 0.5, 0.9)
    assert dist.parse_dist("discrete:0.1:0.25,0.5:0.5,1.1:0.25") == ALL_KINDS[4]
    assert dist.parse_dist("point:0.7") == dist.point_mass(0.7)
    for bad in ("gauss:0,1", "uniform:1", "exp:", "uniform:0;1"):
        with pytest.raises(DomainError):
            dist.parse_dist(bad)


@pytest.mark.parametrize("spec, law", [
    ("uniform:-1,2", dist.uniform(-1.0, 2.0)),
    ("exp:0.5", dist.exponential(0.5)),
    ("pareto:2,3", dist.pareto(2.0, 3.0)),
    ("twopoint:0.2,0.5,0.9", dist.two_point(0.2, 0.5, 0.9)),
    ("discrete:1.1:0.25,0.1:0.75", dist.finite_discrete([(0.1, 0.75), (1.1, 0.25)])),
    ("point:0.7", dist.point_mass(0.7)),
], ids=["uniform", "exp", "pareto", "twopoint", "discrete", "point"])
def test_parse_dist_builds_one_of_four_kinds(spec, law):
    # each spec form gives its constructor's law, of one of the four kinds
    parsed = dist.parse_dist(spec)
    assert parsed == law and hash(parsed) == hash(law)
    assert parsed.kind in ("uniform", "exponential", "pareto", "discrete")


def test_two_point_and_point_mass_are_discrete_laws():
    assert dist.two_point(0.2, 0.5, 0.9) == dist.finite_discrete([(0.2, 0.5), (0.9, 0.5)])
    assert dist.point_mass(0.7) == dist.finite_discrete([(0.7, 1.0)])


@pytest.mark.parametrize("spec", ["uniform:0,1,2", "exp:1,2", "twopoint:0,0.5", "point:"])
def test_parse_dist_wrong_count_of_numbers_names_the_spec(spec):
    with pytest.raises(DomainError, match=re.escape(f"malformed distribution spec {spec!r}")):
        dist.parse_dist(spec)


@pytest.mark.parametrize("spec, law", [
    ("uniform:-1e308,1e308", "uniform"), ("uniform:-inf,0", "uniform"),
    ("exp:1e-320", "exponential"), ("exp:5e-309", "exponential"),
])
def test_parameters_whose_width_or_scale_leaves_the_floats(spec, law):
    # b - a, or the mean 1/rate, is not a finite float: the quantile would be
    # NaN or inf at every level
    with pytest.raises(DomainError, match=rf"^{law} requires .* is a finite float$"):
        dist.parse_dist(spec)


def test_parameters_just_inside_the_floats_still_build():
    assert dist.uniform(-8e307, 8e307).params == (-8e307, 8e307)
    assert dist.exponential(1e-300).params == (1e-300,)


def test_pareto_upper_quantile_beyond_the_floats_is_inf_without_a_warning():
    assert dist.pareto(1.0, 1.01)._isf(np.array([1e-320, 0.0])).tolist() == [math.inf] * 2


def test_expect_rows_names_the_law_whose_quantile_overflows():
    # at tail power 1000 the first nodes' levels t**1000 underflow to 0
    with pytest.raises(NumericError, match=r"^pareto:1\.0,1\.01 quantile at tail level "):
        dist.expect_rows(dist.pareto(1.0, 1.01), lambda w: 1.0 / w, 1.0, math.inf,
                         tail_power=1000.0)
