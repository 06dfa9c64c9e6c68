"""Command-line front end.

Subcommands: degree, pair, triangles, motif, local, limits, spatial,
clt-check.  Flags override keys of an optional flat-JSON config file.  Exit
codes: 0 success, 1 usage error, 2 numeric/capacity error.  Identical
invocations with identical seeds reproduce identical output bytes.  Reports
are JSON; sample-bearing commands also emit plot-ready ECDF and histogram
CSV tables next to the report.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import graph, limits, motifs, spatial, stats
from .dist import check_split_support, expectation, parse_dist
from .errors import (
    CapacityError,
    DegenerateConditioningError,
    DomainError,
    NumericError,
    RegimeError,
    ThreshnetError,
    UsageError,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems must exit 1, not argparse's 2
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="threshnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_n=True, with_r=True):
        p.add_argument("--config", help="flat JSON config file; flags override")
        p.add_argument("--dist", help="weight law spec, e.g. uniform:0,1")
        p.add_argument("--theta", type=float, help="edge threshold")
        if with_n:
            p.add_argument("--n", type=int, help="vertex count")
        if with_r:
            p.add_argument("--R", type=int, help="replicate count")
        p.add_argument("--seed", type=int, help="master seed (default 0)")
        p.add_argument("--out", help="report output path")
        p.add_argument("--format", choices=("json", "csv"), dest="fmt",
                       help="report format (default json)")

    common(sub.add_parser("degree", help="degree-fraction samples vs the limit law"))
    common(sub.add_parser("pair", help="tagged-pair degree correlation experiment"))
    common(sub.add_parser("triangles", help="one-shot triangle census"), with_r=False)

    p = sub.add_parser("motif", help="exact motif census")
    common(p, with_r=False)
    p.add_argument("--motif", dest="motif", help="motif spec, e.g. k=4;edges=1-2,2-3,3-4,4-1")
    p.add_argument("--density-samples", type=int, dest="density_samples",
                   help="also estimate the motif probability by Monte Carlo")

    common(sub.add_parser("local", help="local triangle-density samples"))

    p = sub.add_parser("limits", help="closed-form limit tables and summaries")
    common(p, with_r=False)
    p.add_argument("--table", choices=("degree-pmf", "summary", "limit-cdf", "h1"),
                   help="which table to emit")
    p.add_argument("--grid", type=int, help="grid size for cdf/h1 tables")

    p = sub.add_parser("spatial", help="spatial origin-degree experiment")
    common(p, with_n=False)
    p.add_argument("--mode", choices=("direct", "mixture"), help="sampler")
    p.add_argument("--d", type=int, help="dimension (1, 2 or 3)")
    p.add_argument("--beta", type=float, help="distance exponent")
    p.add_argument("--lambda", type=float, dest="lam", help="Poisson intensity")
    p.add_argument("--r", type=float, help="ball radius")
    p.add_argument("--x0", type=float, help="fix the origin weight")

    p = sub.add_parser("clt-check", help="standardized spatial degree samples vs normal")
    common(p, with_n=False)
    p.add_argument("--d", type=int, help="dimension (1, 2 or 3)")
    p.add_argument("--beta", type=float, help="distance exponent")
    p.add_argument("--lambda", type=float, dest="lam", help="Poisson intensity")
    p.add_argument("--r", type=float, help="ball radius")
    p.add_argument("--Cr", type=float, dest="Cr", help="centering sequence value")
    return parser


_DEFAULTS = {"seed": 0, "fmt": "json", "mode": "mixture", "grid": 512}


def _merge_config(args: argparse.Namespace) -> dict:
    """Config-file values fill in flags left unset; flags win."""
    merged: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc}")
        if not isinstance(file_cfg, dict):
            raise UsageError("config file must hold a flat JSON object")
        merged.update(file_cfg)
    for key, value in vars(args).items():
        if key == "config" or value is None:
            continue
        merged[key] = value
    for key, value in _DEFAULTS.items():
        merged.setdefault(key, value)
    return merged


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise UsageError(f"missing required option(s): {', '.join('--' + m for m in missing)}")


def _parse_dist_arg(spec: str):
    try:
        return parse_dist(spec)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc


def _parse_motif_arg(spec: str):
    try:
        return motifs.parse_motif(spec)
    except (DomainError, CapacityError) as exc:
        raise UsageError(str(exc)) from exc


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _write_report(cfg: dict, payload: dict, samples: np.ndarray | None,
                  columns=None) -> None:
    out = cfg.get("out")
    if out is None:
        sys.stdout.write(_json_bytes(payload).decode("utf-8"))
        return
    path = Path(out)
    if cfg.get("fmt", "json") == "csv" and samples is not None:
        _write_samples_csv(path, samples, columns)
    else:
        path.write_bytes(_json_bytes(payload))
    if samples is not None and samples.ndim == 1:
        _write_ecdf_csv(path.with_name(path.stem + "_ecdf.csv"), samples)
        _write_hist_csv(path.with_name(path.stem + "_hist.csv"), samples)


def _write_samples_csv(path: Path, samples: np.ndarray, columns=None) -> None:
    header = ",".join(columns) if columns else "value"
    lines = [header]
    if samples.ndim == 1:
        lines.extend(repr(float(v)) for v in samples)
    else:
        lines.extend(",".join(repr(float(v)) for v in row) for row in samples)
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def _write_ecdf_csv(path: Path, samples: np.ndarray) -> None:
    xs = np.sort(samples)
    n = xs.size
    lines = ["value,ecdf"]
    lines.extend(f"{float(x)!r},{(i + 1) / n!r}" for i, x in enumerate(xs))
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def _write_hist_csv(path: Path, samples: np.ndarray) -> None:
    counts, edges = np.histogram(samples, bins=min(50, max(5, samples.size // 20)))
    lines = ["bin_left,bin_right,count"]
    lines.extend(
        f"{float(edges[i])!r},{float(edges[i + 1])!r},{int(c)}"
        for i, c in enumerate(counts)
    )
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def _write_table_csv(path_or_none, header: str, rows) -> None:
    text = header + "\n" + "".join(",".join(repr(v) if isinstance(v, float) else str(v)
                                            for v in row) + "\n" for row in rows)
    if path_or_none is None:
        sys.stdout.write(text)
    else:
        Path(path_or_none).write_bytes(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# command implementations


def _cmd_degree(cfg: dict) -> None:
    _require(cfg, "dist", "theta", "n", "R")
    d = _parse_dist_arg(cfg["dist"])
    params = {"dist": cfg["dist"], "theta": float(cfg["theta"]), "n": int(cfg["n"])}
    report = stats.run_replicates("degree", params, int(cfg["R"]), int(cfg["seed"]))
    lcfg = limits.LimitConfig(d, float(cfg["theta"]))
    ks = stats.ks_statistic(report.samples, lambda t: limits.limit_degree_cdf(lcfg, t))
    report.gof = {
        "name": "ks_vs_limit_degree_cdf",
        "stat": ks,
        "pvalue": stats.kolmogorov_sf(math.sqrt(report.replicates) * ks),
    }
    _write_report(cfg, report.to_dict(), report.samples)


def _cmd_pair(cfg: dict) -> None:
    _require(cfg, "dist", "theta", "n", "R")
    d = _parse_dist_arg(cfg["dist"])
    params = {"dist": cfg["dist"], "theta": float(cfg["theta"]), "n": int(cfg["n"])}
    report = stats.run_replicates("pair", params, int(cfg["R"]), int(cfg["seed"]))
    d1, d2, edge = report.samples.T
    mask = edge > 0.5
    lcfg = limits.LimitConfig(d, float(cfg["theta"]))
    try:
        cov_limit, corr_limit = limits.edge_conditioned_correlation(lcfg)
    except DegenerateConditioningError:
        cov_limit = corr_limit = None
    holds, witness = check_split_support(lcfg.dist, lcfg.theta)
    report.extras = {
        "corr_unconditional": _corr(d1, d2),
        "corr_given_edge": _corr(d1[mask], d2[mask]) if mask.sum() >= 2 else None,
        "edge_fraction": float(edge.mean()),
        "limit_cov_given_edge": cov_limit,
        "limit_corr_given_edge": corr_limit,
        "split_support": holds,
        "split_support_witness": list(witness) if witness else None,
    }
    _write_report(cfg, report.to_dict(), report.samples, report.columns)


def _corr(a: np.ndarray, b: np.ndarray):
    if a.size < 2 or float(np.std(a)) == 0.0 or float(np.std(b)) == 0.0:
        return None
    return float(np.corrcoef(a, b)[0, 1])


def _cmd_triangles(cfg: dict) -> None:
    _require(cfg, "dist", "theta", "n")
    dist = _parse_dist_arg(cfg["dist"])
    n = graph.check_vertex_count(cfg["n"], 3, "the triangle density")
    theta = float(cfg["theta"])
    g = graph.sample_graph(dist, n, theta, stats.make_stream(int(cfg["seed"])))
    t_count = graph.count_triangles(g)
    lcfg = limits.LimitConfig(dist, theta)
    payload = {
        "experiment": "triangles",
        "config": {"dist": cfg["dist"], "theta": theta, "n": n},
        "seed": int(cfg["seed"]),
        "triangles": t_count,
        "triangle_density": t_count / math.comb(n, 3),
        "limit_triangle_probability": limits.triangle_probability(lcfg),
    }
    _write_report(cfg, payload, None)


def _cmd_motif(cfg: dict) -> None:
    _require(cfg, "dist", "theta", "n", "motif")
    dist = _parse_dist_arg(cfg["dist"])
    motif = _parse_motif_arg(cfg["motif"])
    n, theta = int(cfg["n"]), float(cfg["theta"])
    stream = stats.make_stream(int(cfg["seed"]))
    g = graph.sample_graph(dist, n, theta, stream)
    count = motifs.count_motif_tuples(g, motif)
    payload = {
        "experiment": "motif",
        "config": {"dist": cfg["dist"], "theta": theta, "n": n, "motif": cfg["motif"]},
        "seed": int(cfg["seed"]),
        "ordered_tuples": count,
        "tuples_over_n_pow_k": count / n**motif.k,
        "symmetry_count": motif.symmetry_count,
        "subgraph_count": count // motif.symmetry_count,
    }
    if cfg.get("density_samples"):
        est, se = motifs.motif_probability_mc(
            dist, motif, theta, int(cfg["density_samples"]), stream
        )
        payload["motif_probability_mc"] = {"estimate": est, "stderr": se}
    _write_report(cfg, payload, None)


def _cmd_local(cfg: dict) -> None:
    _require(cfg, "dist", "theta", "n", "R")
    d = _parse_dist_arg(cfg["dist"])
    params = {"dist": cfg["dist"], "theta": float(cfg["theta"]), "n": int(cfg["n"])}
    report = stats.run_replicates("local", params, int(cfg["R"]), int(cfg["seed"]))
    lcfg = limits.LimitConfig(d, float(cfg["theta"]))
    ref = local_limit_cdf(lcfg, int(cfg["grid"]))
    ks = stats.ks_statistic(report.samples, ref)
    report.gof = {
        "name": "ks_vs_local_limit",
        "stat": ks,
        "pvalue": stats.kolmogorov_sf(math.sqrt(report.replicates) * ks),
    }
    _write_report(cfg, report.to_dict(), report.samples)


def local_limit_cdf(lcfg: limits.LimitConfig, grid: int):
    """CDF of the limiting local triangle density: the conditional triangle
    probability of a random weight, tabulated on a fine quantile grid."""
    if grid < 1:
        raise DomainError(f"the quantile grid needs grid >= 1, got grid = {grid}")
    us = (np.arange(grid) + 0.5) / grid
    values = np.sort(limits.conditional_triangle_probability(lcfg, lcfg.dist._ppf(us)))

    def cdf(t: float) -> float:
        return float(np.searchsorted(values, t, side="right")) / grid

    return cdf


def _cmd_limits(cfg: dict) -> None:
    _require(cfg, "dist", "theta", "table")
    dist = _parse_dist_arg(cfg["dist"])
    lcfg = limits.LimitConfig(dist, float(cfg["theta"]))
    table = cfg["table"]
    out = cfg.get("out")
    if table == "degree-pmf":
        _require(cfg, "n")
        n = int(cfg["n"])
        rows = [(k, limits.degree_pmf(lcfg, n, k)) for k in range(n + 1)]
        _write_table_csv(out, "k,pmf", rows)
    elif table == "limit-cdf":
        grid = int(cfg["grid"])
        ts = np.linspace(0.0, 1.0, grid)
        rows = [(float(t), limits.limit_degree_cdf(lcfg, float(t))) for t in ts]
        _write_table_csv(out, "t,cdf", rows)
    elif table == "h1":
        grid = int(cfg["grid"])
        xs = dist._ppf((np.arange(grid) + 0.5) / grid)
        h1 = limits.conditional_triangle_probability(lcfg, xs)
        _write_table_csv(out, "x,h1", zip(xs.tolist(), h1.tolist()))
    else:  # summary
        holds, witness = check_split_support(dist, lcfg.theta)
        try:
            cov, corr = limits.edge_conditioned_correlation(lcfg)
        except DegenerateConditioningError:
            cov = corr = None
        f3 = limits.triangle_probability(lcfg)
        payload = {
            "config": {"dist": cfg["dist"], "theta": lcfg.theta},
            "edge_probability": limits.edge_probability(lcfg),
            "triangle_probability": f3,
            "triangle_kernel_variance": limits.triangle_kernel_variance(lcfg, f3),
            "limit_cov_given_edge": cov,
            "limit_corr_given_edge": corr,
            "split_support": holds,
            "split_support_witness": list(witness) if witness else None,
        }
        if out is None:
            sys.stdout.write(_json_bytes(payload).decode("utf-8"))
        else:
            Path(out).write_bytes(_json_bytes(payload))


def _cmd_spatial(cfg: dict) -> None:
    _require(cfg, "dist", "theta", "d", "beta", "lam", "r", "R")
    dist = _parse_dist_arg(cfg["dist"])
    scfg = spatial.SpatialConfig(
        d=int(cfg["d"]), beta=float(cfg["beta"]), theta=float(cfg["theta"]),
        lam=float(cfg["lam"]), r=float(cfg["r"]),
    )
    params = {
        "dist": cfg["dist"], "theta": scfg.theta, "d": scfg.d, "beta": scfg.beta,
        "lam": scfg.lam, "r": scfg.r, "mode": cfg["mode"],
    }
    if cfg.get("x0") is not None:
        params["x0"] = float(cfg["x0"])
    report = stats.run_replicates("spatial", params, int(cfg["R"]), int(cfg["seed"]))
    if cfg.get("x0") is not None:
        rate = spatial.origin_degree_rate(scfg, dist, float(cfg["x0"]))
        stat, dof, pvalue = _poisson_gof(report.samples, rate)
        report.gof = {"name": "chi2_vs_poisson", "stat": stat, "dof": dof,
                      "pvalue": pvalue}
        report.extras["conditional_poisson_rate"] = rate
    else:
        try:
            mean = scfg.lam * spatial.sphere_surface(scfg.d) * expectation(
                dist, lambda x: spatial.radial_intensity(scfg, dist, x)
            )
            report.extras["mean_identity"] = mean
        except (RegimeError, NumericError):
            report.extras["mean_identity"] = None
    _write_report(cfg, report.to_dict(), report.samples)


def _poisson_gof(samples: np.ndarray, rate: float):
    top = int(samples.max())
    kmax = max(top, stats.poisson_tail_cutoff(rate, 1e-12))
    probs = [stats.poisson_pmf(rate, k) for k in range(kmax + 1)]
    probs.append(max(0.0, 1.0 - math.fsum(probs)))
    observed = np.bincount(samples.astype(int), minlength=kmax + 2).astype(float)
    return stats.chi_square_gof(observed.tolist(), probs)


def _cmd_clt_check(cfg: dict) -> None:
    _require(cfg, "dist", "theta", "d", "beta", "lam", "r", "Cr", "R")
    _parse_dist_arg(cfg["dist"])
    params = {
        "dist": cfg["dist"], "theta": float(cfg["theta"]), "d": int(cfg["d"]),
        "beta": float(cfg["beta"]), "lam": float(cfg["lam"]), "r": float(cfg["r"]),
        "Cr": float(cfg["Cr"]),
    }
    report = stats.run_replicates("clt", params, int(cfg["R"]), int(cfg["seed"]))
    ks = stats.ks_statistic(report.samples, stats.normal_cdf)
    report.gof = {
        "name": "ks_vs_standard_normal",
        "stat": ks,
        "pvalue": stats.kolmogorov_sf(math.sqrt(report.replicates) * ks),
    }
    _write_report(cfg, report.to_dict(), report.samples)


_COMMANDS = {
    "degree": _cmd_degree,
    "pair": _cmd_pair,
    "triangles": _cmd_triangles,
    "motif": _cmd_motif,
    "local": _cmd_local,
    "limits": _cmd_limits,
    "spatial": _cmd_spatial,
    "clt-check": _cmd_clt_check,
}


def dispatch(cfg: dict) -> int:
    command = cfg.get("command")
    if command not in _COMMANDS:
        raise UsageError(f"unknown command {command!r}")
    _COMMANDS[command](cfg)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _merge_config(args)
        return dispatch(cfg)
    except UsageError as exc:
        print(f"threshnet: usage error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, CapacityError, RegimeError, DomainError,
            DegenerateConditioningError, ThreshnetError) as exc:
        print(f"threshnet: error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"threshnet: usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
