"""Acceptance suite: one test per criterion A1-A14, each printing a PASS/FAIL
line with the measured quantities.

Two criteria are left red on purpose; the analysis:

* A3 standardizes the triangle density CLT by sqrt(0.1) = sqrt(3 * 1/30).
  The U-statistic CLT variance for a degree-3 kernel is 9 * zeta1 = 0.3, not
  3 * zeta1 (exact finite-n variance: n * Var = 0.30015 at n = 2000;
  simulation agrees).  The criterion as stated therefore cannot pass; the
  companion test right below it runs the identical pipeline with the
  sqrt(9 * zeta1) standardization and passes.

* A14 runs the heavy-tail spatial CLT at r = 1e4.  The standardized samples
  converge in distribution but the finite-r drift is
  sqrt(lam c_d) (C_r(x) - r)/sqrt(r) ~ x log(r)/sqrt(r), which at r = 1e4 is
  at least +0.23 for every possible origin weight (x >= 1) and ~0.5 at the
  median; the weight law has infinite mean, so the sample mean of the
  standardized statistic is not even tight.  The stated bounds (|mean| <
  0.15, KS < 0.08) are unreachable at r = 1e4 for any seed.  The companion
  pure-Poisson CLT test validates the standardization pipeline itself.
"""

import functools
import math
import time

import numpy as np
import pytest

from threshnet import dist, graph, limits, motifs, spatial, stats
from threshnet.cli import local_limit_cdf
from threshnet.stats import make_stream

UNI = dist.uniform(0, 1)
UNI_CFG = limits.LimitConfig(UNI, 1.0)


def _criterion(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'}  [{detail}]")
    assert ok, f"{name} failed: {detail}"


def test_A1_exact_degree_pmf():
    t0 = time.perf_counter()
    worst = max(abs(limits.degree_pmf(UNI_CFG, 9, k) - 0.1) for k in range(10))
    elapsed = time.perf_counter() - t0
    _criterion("A1", worst < 1e-9 and elapsed < 1.0,
               f"max |pmf - 0.1| = {worst:.2e} (tol 1e-9), {elapsed:.3f}s (< 1s)")


def test_A2_triangle_slln():
    t0 = time.perf_counter()
    rep = stats.run_replicates(
        "triangles", {"dist": "uniform:0,1", "theta": 1.0, "n": 20000}, 1, 11
    )
    elapsed = time.perf_counter() - t0
    dev = abs(rep.mean - 0.25)
    tol = 4 * math.sqrt(0.1 / 20000)
    _criterion("A2", dev < tol and elapsed < 1.0,
               f"|T/C(n,3) - 1/4| = {dev:.5f} (tol {tol:.5f}), {elapsed:.3f}s (< 1s)")


@functools.cache
def _triangle_clt_samples():
    rep = stats.run_replicates(
        "triangles", {"dist": "uniform:0,1", "theta": 1.0, "n": 2000}, 500, 23
    )
    return math.sqrt(2000) * (rep.samples - 0.25)


def test_A3_triangle_clt_as_stated():
    # standardization by sqrt(3 * zeta1) = sqrt(0.1) exactly as specified;
    # see the module docstring for why this cannot pass
    t0 = time.perf_counter()
    z = _triangle_clt_samples() / math.sqrt(0.1)
    ks = stats.ks_statistic(z, stats.normal_cdf)
    elapsed = time.perf_counter() - t0
    _criterion("A3", ks < 0.09 and elapsed < 120.0,
               f"KS vs normal = {ks:.4f} (tol 0.09) with sqrt(3*zeta1) scaling, "
               f"{elapsed:.1f}s (< 2min)")


def test_A3_companion_clt_with_u_statistic_constant():
    # identical pipeline, standardized by the degree-3 U-statistic CLT
    # constant sqrt(9 * zeta1) = sqrt(0.3)
    z = _triangle_clt_samples() / math.sqrt(0.3)
    ks = stats.ks_statistic(z, stats.normal_cdf)
    var = float(np.var(_triangle_clt_samples(), ddof=1))
    _criterion("A3-companion", ks < 0.09,
               f"KS vs normal = {ks:.4f} (tol 0.09) with sqrt(9*zeta1) scaling; "
               f"empirical var of sqrt(n)(U - F3) = {var:.3f} vs 9*zeta1 = 0.3")


def test_A4_degree_limit():
    t0 = time.perf_counter()
    rep = stats.run_replicates(
        "degree", {"dist": "uniform:0,1", "theta": 1.0, "n": 2000}, 2000, 5
    )
    # limiting law of D_n(1)/n for uniform weights at theta = 1 is uniform(0,1)
    ks = stats.ks_statistic(rep.samples, lambda t: max(0.0, min(1.0, t)))
    elapsed = time.perf_counter() - t0
    _criterion("A4", ks < 0.05 and elapsed < 60.0,
               f"KS vs uniform = {ks:.4f} (tol 0.05), {elapsed:.1f}s (< 1min)")


@functools.cache
def _pair_samples():
    rep = stats.run_replicates(
        "pair", {"dist": "uniform:0,1", "theta": 1.0, "n": 1000}, 2000, 13
    )
    return rep.samples.T


def test_A5_pair_independence():
    d1, d2, _ = _pair_samples()
    corr = float(np.corrcoef(d1, d2)[0, 1])
    _criterion("A5", abs(corr) < 0.08, f"|corr| = {abs(corr):.4f} (tol 0.08)")


def test_A6_conditional_dependence():
    d1, d2, edge = _pair_samples()
    mask = edge > 0.5
    corr = float(np.corrcoef(d1[mask], d2[mask])[0, 1])
    cov_lim, corr_lim = limits.edge_conditioned_correlation(UNI_CFG)
    holds, _ = dist.check_split_support(UNI, 1.0)
    ok = abs(corr - corr_lim) < 0.05 and holds and abs(corr_lim + 0.5) < 1e-6
    _criterion("A6", ok,
               f"corr given edge = {corr:.4f} vs limit {corr_lim:.4f} (tol 0.05), "
               f"split support = {holds}")


def test_A7_degenerate_regime():
    tp = dist.two_point(0.2, 0.5, 0.9)
    g = graph.sample_graph(tp, 500, 1.2, make_stream(7))
    deg = graph.all_degrees(g)
    heavy = g.weights > 0.5
    n_heavy = int(heavy.sum())
    light_ok = bool((deg[~heavy] == 0).all())
    heavy_ok = bool((deg[heavy] == n_heavy - 1).all())
    clique_ok = graph.count_triangles(g) == math.comb(n_heavy, 3)
    holds, _ = dist.check_split_support(tp, 1.2)
    _criterion("A7", light_ok and heavy_ok and clique_ok and not holds,
               f"light isolated = {light_ok}, heavy complete = {heavy_ok} "
               f"(clique of {n_heavy}), split support = {holds}")


def test_A8_motif_census_parity():
    tri = motifs.triangle_motif()
    c4 = motifs.parse_motif("k=4;edges=1-2,2-3,3-4,4-1")
    rng = np.random.default_rng(19)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(3, 61))
        theta = float(rng.uniform(0.3, 1.7))
        g = graph.GraphSample.from_weights(rng.random(n), theta)
        if motifs.count_motif_tuples(g, tri) != 6 * graph.count_triangles(g):
            mismatches += 1
    _criterion("A8", mismatches == 0 and c4.symmetry_count == 8,
               f"{mismatches} census/counter mismatches in 100 instances; "
               f"4-cycle symmetry count = {c4.symmetry_count}")


def test_A9_motif_slln():
    c4 = motifs.parse_motif("k=4;edges=1-2,2-3,3-4,4-1")
    g = graph.sample_graph(UNI, 300, 1.0, make_stream(14))
    census = motifs.count_motif_tuples(g, c4)
    ratio = census / 300**4
    est, se = motifs.motif_probability_mc(UNI, c4, 1.0, 10**7, make_stream(100))
    rel = abs(ratio - est) / est
    _criterion("A9", rel < 0.05,
               f"census/n^4 = {ratio:.5f} vs MC {est:.5f} (se {se:.1e}), "
               f"relative dev = {rel:.4f} (tol 0.05)")


def test_A10_local_triangles():
    rep = stats.run_replicates(
        "local", {"dist": "uniform:0,1", "theta": 1.0, "n": 2000}, 1000, 31
    )
    ref = local_limit_cdf(UNI_CFG, 2048)
    ks = stats.ks_statistic(rep.samples, ref)
    _criterion("A10", ks < 0.08, f"KS vs law of conditional mean = {ks:.4f} (tol 0.08)")


def test_A11_kernel_variance_estimator():
    est, se = motifs.motif_kernel_variance_mc(
        UNI, motifs.triangle_motif(), 1.0, 10**5, make_stream(56)
    )
    dev = abs(est - 1 / 30)
    _criterion("A11", dev < 4 * se,
               f"estimate = {est:.5f} vs 1/30 = {1/30:.5f}, dev = {dev:.5f} "
               f"(4 se = {4*se:.5f})")


def _spatial_params(mode, x0=None):
    p = {"dist": "uniform:0,1", "theta": 1.0, "d": 2, "beta": 2.0,
         "lam": 1.0, "r": 3.0, "mode": mode}
    if x0 is not None:
        p["x0"] = x0
    return p


def test_A12_thinning_proposition():
    cfg = spatial.SpatialConfig(d=2, beta=2.0, theta=1.0, lam=1.0, r=3.0)
    direct = stats.run_replicates("spatial", _spatial_params("direct", 0.5), 5000, 41)
    mixture = stats.run_replicates("spatial", _spatial_params("mixture", 0.5), 5000, 42)
    rate = spatial.origin_degree_rate(cfg, UNI, 0.5)
    kmax = max(int(direct.samples.max()), stats.poisson_tail_cutoff(rate, 1e-12))
    probs = [stats.poisson_pmf(rate, k) for k in range(kmax + 1)]
    probs.append(max(0.0, 1.0 - math.fsum(probs)))
    observed = np.bincount(direct.samples.astype(int), minlength=kmax + 2)
    chi2, dof, pvalue = stats.chi_square_gof(observed.tolist(), probs)
    ks2 = stats.ks_two_sample(direct.samples, mixture.samples)
    _criterion("A12", pvalue > 0.01 and ks2 < 0.04,
               f"chi2 = {chi2:.2f} (dof {dof}), p = {pvalue:.4f} (> 0.01) vs "
               f"Poisson(pi = {rate:.6f}); direct-vs-mixture KS = {ks2:.4f} (< 0.04)")


def test_A13_mixture_mean_and_normalization():
    cfg = spatial.SpatialConfig(d=2, beta=2.0, theta=1.0, lam=1.0, r=3.0)
    rep = stats.run_replicates("spatial", _spatial_params("mixture"), 5000, 43)
    dev_se = abs(rep.mean - math.pi) / rep.stderr
    kmax = stats.poisson_tail_cutoff(2 * math.pi * 0.75, 1e-10) + 5
    total = math.fsum(spatial.origin_degree_pmf(cfg, UNI, k) for k in range(kmax + 1))
    _criterion("A13", dev_se < 3.0 and abs(total - 1.0) <= 1e-8,
               f"mean = {rep.mean:.4f} vs pi, {dev_se:.2f} se (< 3); "
               f"pmf sum = {total:.10f} (1 +/- 1e-8)")


def test_A14_spatial_clt_as_stated():
    # Pareto example at r = 1e4 exactly as specified; see the module
    # docstring for why the finite-r drift makes this unreachable
    t0 = time.perf_counter()
    params = {"dist": "pareto:1,1", "theta": 1.0, "d": 2, "beta": 1.0,
              "lam": 1.0, "r": 1e4, "Cr": 1e4}
    rep = stats.run_replicates("clt", params, 1000, 44)
    ks = stats.ks_statistic(rep.samples, stats.normal_cdf)
    elapsed = time.perf_counter() - t0
    ok = abs(rep.mean) < 0.15 and 0.85 <= rep.variance <= 1.15 and ks < 0.08 \
        and elapsed < 60.0
    _criterion("A14", ok,
               f"mean = {rep.mean:.3f} (|.| < 0.15), var = {rep.variance:.3f} "
               f"([0.85, 1.15]), KS = {ks:.3f} (< 0.08), {elapsed:.1f}s (< 1min)")


def test_A14_companion_pure_poisson_clt():
    # degenerate mixing (deterministic Poisson parameter 2*pi*5000): the
    # standardization pipeline reproduces the classical Poisson CLT
    params = {"dist": "point:0.5", "theta": -1.0, "d": 2, "beta": 2.0,
              "lam": 1.0, "r": 100.0, "Cr": 5000.0}
    rep = stats.run_replicates("clt", params, 1000, 45)
    ks = stats.ks_statistic(rep.samples, stats.normal_cdf)
    ok = ks < 0.06 and abs(rep.mean) < 0.15 and 0.85 <= rep.variance <= 1.15
    _criterion("A14-companion", ok,
               f"pure-Poisson CLT: mean = {rep.mean:.3f}, var = {rep.variance:.3f}, "
               f"KS = {ks:.3f} (< 0.06)")
