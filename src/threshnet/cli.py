"""Command-line front end.

Subcommands: degree, pair, triangles, motif, local, limits, spatial,
clt-check.  Flags override keys of an optional flat-JSON config file.  Exit
codes: 0 success, 1 usage error, 2 any other package error (numeric, capacity,
a count outside its bounds).  Identical invocations with identical seeds
reproduce identical output bytes.  Each report goes to --out, or to stdout
without it: JSON, or CSV for the limits tables and, with --format csv, for the
samples.  Commands with one sample per replicate also write plot-ready ECDF and
histogram CSV tables next to an --out report.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import graph, limits, motifs, spatial, stats
from .dist import check_split_support, parse_dist
from .errors import (
    CapacityError,
    DegenerateConditioningError,
    DomainError,
    NumericError,
    RegimeError,
    ThreshnetError,
    UsageError,
    check_count,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems must exit 1, not argparse's 2
        raise UsageError(message)


def _float_type(allow_inf: bool):
    """An argparse type: a float that is never nan, and finite unless ``allow_inf``."""
    def convert(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if math.isnan(value) or (math.isinf(value) and not allow_inf):
            raise argparse.ArgumentTypeError(
                f"invalid {'non-nan' if allow_inf else 'finite'} float value: {text!r}")
        return value

    return convert


_FINITE, _NOT_NAN = _float_type(False), _float_type(True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="threshnet", description=__doc__)
    parser.config_flags = {}  # command -> {option key: flag}, to parse config files
    sub = parser.add_subparsers(dest="command", required=True)
    head = (("--config", {"help": "flat JSON config file; flags override"}),
            ("--dist", {"help": "weight law spec, e.g. uniform:0,1"}),
            ("--theta", {"type": _FINITE, "help": "edge threshold"}))
    tail = (("--seed", {"type": int, "help": "master seed (default 0)"}),
            ("--out", {"help": "report output path"}),
            ("--format", {"choices": ("json", "csv"), "dest": "fmt",
                          "help": "report format (default json)"}))
    n = ("--n", {"type": int, "help": "vertex count"})
    r = ("--R", {"type": int, "help": "replicate count"})
    grid = ("--grid", {"type": int, "help": "grid size for cdf/h1 tables"})
    space = (("--d", {"type": int, "help": "dimension (1, 2 or 3)"}),
             ("--beta", {"type": _FINITE, "help": "distance exponent"}),
             ("--lambda", {"type": _FINITE, "dest": "lam", "help": "Poisson intensity"}),
             ("--r", {"type": _NOT_NAN, "help": "ball radius (may be inf)"}))

    def command(name, help, *flags):
        p = sub.add_parser(name, help=help)
        actions = [p.add_argument(flag, **kwargs) for flag, kwargs in head + flags + tail]
        parser.config_flags[name] = {a.dest: a.option_strings[0] for a in actions
                                     if a.dest != "config"}

    command("degree", "degree-fraction samples vs the limit law", n, r)
    command("pair", "tagged-pair degree correlation experiment", n, r)
    command("triangles", "one-shot triangle census", n)
    command("motif", "exact motif census", n,
            ("--motif", {"help": "motif spec, e.g. k=4;edges=1-2,2-3,3-4,4-1"}),
            ("--density-samples", {
                "type": int, "help": "also estimate the motif probability by Monte Carlo"}))
    command("local", "local triangle-density samples", n, r, grid)
    command("limits", "closed-form limit tables and summaries", n,
            ("--table", {"choices": ("degree-pmf", "summary", "limit-cdf", "h1"),
                         "help": "which table to emit"}), grid)
    command("spatial", "spatial origin-degree experiment", r,
            ("--mode", {"choices": ("direct", "mixture"), "help": "sampler"}), *space,
            ("--x0", {"type": _FINITE, "help": "fix the origin weight"}))
    command("clt-check", "standardized spatial degree samples vs normal", r, *space,
            ("--Cr", {"type": _FINITE, "help": "centering sequence value"}))
    return parser


_DEFAULTS = {"seed": 0, "fmt": "json", "mode": "mixture", "grid": 512}


def _merge_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    """Config-file values fill in flags left unset; flags win.  The file's
    values go through the command's own flags, so each takes its flag's type,
    checks and choices; a null leaves its key unset, and a key that is no
    option of the command is ignored."""
    merged: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc}")
        if not isinstance(file_cfg, dict):
            raise UsageError(f"config file {args.config} must hold a flat JSON object")
        flags = parser.config_flags[args.command]
        tokens = [f"{flags[k]}={v if isinstance(v, str) else json.dumps(v)}"
                  for k, v in file_cfg.items() if k in flags and v is not None]
        try:
            file_args = parser.parse_args([args.command, *tokens])
        except UsageError as exc:
            raise UsageError(f"config file {args.config}: {exc}") from exc
        merged.update((k, v) for k, v in vars(file_args).items() if v is not None)
    merged.update((k, v) for k, v in vars(args).items() if v is not None and k != "config")
    for key, value in _DEFAULTS.items():
        merged.setdefault(key, value)
    return merged


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        flags = build_parser().config_flags[cfg["command"]]
        raise UsageError(f"missing required option(s): {', '.join(flags[m] for m in missing)}")


def _parse(parse_fn, spec: str):
    """A malformed spec from the command line is a usage error."""
    try:
        return parse_fn(spec)
    except (DomainError, CapacityError) as exc:
        raise UsageError(str(exc)) from exc


def _write(out, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_bytes(text.encode("utf-8"))


def _csv(header: str, rows) -> str:
    """CSV text; ``str`` prints a float as its shortest round-trip repr."""
    return header + "\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)


def _write_report(cfg: dict, payload: dict, samples: np.ndarray | None = None,
                  columns=None) -> None:
    """The JSON report, or with ``--format csv`` the raw samples, to ``--out``
    or stdout; next to an ``--out`` file also the ECDF and histogram of 1-D
    samples."""
    out = cfg.get("out")
    if cfg["fmt"] == "csv" and samples is not None:
        rows = samples.reshape(samples.shape[0], -1).tolist()
        _write(out, _csv(",".join(columns) if columns else "value", rows))
    else:
        _write(out, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    if out is None or samples is None or samples.ndim != 1:
        return
    path = Path(out)
    xs = np.sort(samples).tolist()
    ecdf = [(x, (i + 1) / len(xs)) for i, x in enumerate(xs)]
    _write(path.with_name(path.stem + "_ecdf.csv"), _csv("value,ecdf", ecdf))
    counts, edges = np.histogram(samples, bins=min(50, max(5, samples.size // 20)))
    hist = zip(edges[:-1].tolist(), edges[1:].tolist(), counts.tolist())
    _write(path.with_name(path.stem + "_hist.csv"), _csv("bin_left,bin_right,count", hist))


def _replicates(cfg: dict, experiment: str, *keys: str):
    """The replicate report of ``experiment`` and the oracles' config;
    ``keys`` are the further required options, passed on as parameters."""
    _require(cfg, "dist", "theta", *keys, "R")
    dist = _parse(parse_dist, cfg["dist"])
    params = {key: cfg[key] for key in ("dist", "theta", *keys)}
    report = stats.run_replicates(experiment, params, cfg["R"], cfg["seed"])
    return report, limits.LimitConfig(dist, cfg["theta"])


def _ks(report: stats.ReplicateReport, name: str, cdf) -> None:
    ks = stats.ks_statistic(report.samples, cdf)
    pvalue = stats.kolmogorov_sf(math.sqrt(report.replicates) * ks)
    report.gof = {"name": name, "stat": ks, "pvalue": pvalue}


def _split_support(lcfg: limits.LimitConfig) -> dict:
    holds, witness = check_split_support(lcfg.dist, lcfg.theta)
    return {"split_support": holds,
            "split_support_witness": list(witness) if witness else None}


def _limit_correlation(lcfg: limits.LimitConfig) -> dict:
    """The limit covariance and correlation given an edge; null if none can occur."""
    try:
        cov, corr = limits.edge_conditioned_correlation(lcfg)
    except DegenerateConditioningError:
        cov = corr = None
    return {"limit_cov_given_edge": cov, "limit_corr_given_edge": corr}


# ---------------------------------------------------------------------------
# command implementations


def _cmd_degree(cfg: dict) -> None:
    report, lcfg = _replicates(cfg, "degree", "n")
    _ks(report, "ks_vs_limit_degree_cdf", lambda t: limits.limit_degree_cdf(lcfg, t))
    _write_report(cfg, report.to_dict(), report.samples, report.columns)


def _cmd_pair(cfg: dict) -> None:
    report, lcfg = _replicates(cfg, "pair", "n")
    d1, d2, edge = report.samples.T
    mask = edge > 0.5
    report.extras = {
        "corr_unconditional": _corr(d1, d2),
        "corr_given_edge": _corr(d1[mask], d2[mask]) if mask.sum() >= 2 else None,
        "edge_fraction": float(edge.mean()),
        **_limit_correlation(lcfg),
        **_split_support(lcfg),
    }
    _write_report(cfg, report.to_dict(), report.samples, report.columns)


def _corr(a: np.ndarray, b: np.ndarray):
    if a.size < 2 or float(np.std(a)) == 0.0 or float(np.std(b)) == 0.0:
        return None
    return float(np.corrcoef(a, b)[0, 1])


def _cmd_triangles(cfg: dict) -> None:
    _require(cfg, "dist", "theta", "n")
    dist = _parse(parse_dist, cfg["dist"])
    n = check_count(cfg["n"], 3, "the triangle density")
    theta = cfg["theta"]
    t_count = graph.count_triangles(
        graph.sample_graph(dist, n, theta, stats.make_stream(cfg["seed"])))
    payload = {
        "experiment": "triangles",
        "config": {"dist": cfg["dist"], "theta": theta, "n": n},
        "seed": cfg["seed"],
        "triangles": t_count,
        "triangle_density": t_count / math.comb(n, 3),
        "limit_triangle_probability": limits.triangle_probability(
            limits.LimitConfig(dist, theta)),
    }
    _write_report(cfg, payload)


def _cmd_motif(cfg: dict) -> None:
    _require(cfg, "dist", "theta", "n", "motif")
    dist = _parse(parse_dist, cfg["dist"])
    motif = _parse(motifs.parse_motif, cfg["motif"])
    n, theta = cfg["n"], cfg["theta"]
    samples = check_count(cfg.get("density_samples", 0), 0, "the motif density", "density_samples")
    stream = stats.make_stream(cfg["seed"])
    g = graph.sample_graph(dist, n, theta, stream)
    count = motifs.count_motif_tuples(g, motif)
    payload = {
        "experiment": "motif",
        "config": {"dist": cfg["dist"], "theta": theta, "n": n, "motif": cfg["motif"]},
        "seed": cfg["seed"],
        "ordered_tuples": count,
        "tuples_over_n_pow_k": count / n**motif.k,
        "symmetry_count": motif.symmetry_count,
        "subgraph_count": count // motif.symmetry_count,
    }
    if samples:
        est, se = motifs.motif_probability_mc(dist, motif, theta, samples, stream)
        payload["motif_probability_mc"] = {"estimate": est, "stderr": se}
    _write_report(cfg, payload)


def _cmd_local(cfg: dict) -> None:
    grid = check_count(cfg["grid"], 1, "the quantile grid", "grid")  # before the replicates
    report, lcfg = _replicates(cfg, "local", "n")
    _ks(report, "ks_vs_local_limit", local_limit_cdf(lcfg, grid))
    _write_report(cfg, report.to_dict(), report.samples, report.columns)


def _quantile_grid(dist, grid: int) -> np.ndarray:
    """The weights at the midpoints of ``grid`` equal quantile cells."""
    grid = check_count(grid, 1, "the quantile grid", "grid")
    return dist._ppf((np.arange(grid) + 0.5) / grid)


def local_limit_cdf(lcfg: limits.LimitConfig, grid: int):
    """CDF of the limiting local triangle density: the ECDF of the conditional
    triangle probability of a random weight, tabulated on a quantile grid."""
    return stats.ecdf(limits.conditional_triangle_probability(
        lcfg, _quantile_grid(lcfg.dist, grid)))


def _cmd_limits(cfg: dict) -> None:
    _require(cfg, "dist", "theta", "table")
    lcfg = limits.LimitConfig(_parse(parse_dist, cfg["dist"]), cfg["theta"])
    table, out = cfg["table"], cfg.get("out")
    if table == "degree-pmf":
        _require(cfg, "n")
        n = check_count(cfg["n"], 0, "the degree-pmf table", cap=10**5)  # an expectation a row
        rows = [(k, limits.degree_pmf(lcfg, n, k)) for k in range(n + 1)]
        _write(out, _csv("k,pmf", rows))
    elif table == "limit-cdf":
        grid = check_count(cfg["grid"], 1, "the limit-cdf table", "grid")
        ts = np.linspace(0.0, 1.0, grid).tolist()
        _write(out, _csv("t,cdf", [(t, limits.limit_degree_cdf(lcfg, t)) for t in ts]))
    elif table == "h1":
        xs = _quantile_grid(lcfg.dist, cfg["grid"])
        h1 = limits.conditional_triangle_probability(lcfg, xs)
        _write(out, _csv("x,h1", zip(xs.tolist(), h1.tolist())))
    else:  # summary
        split = _split_support(lcfg)
        correlation = _limit_correlation(lcfg)
        f3 = limits.triangle_probability(lcfg)
        payload = {
            "config": {"dist": cfg["dist"], "theta": lcfg.theta},
            "edge_probability": limits.edge_probability(lcfg),
            "triangle_probability": f3,
            "triangle_kernel_variance": limits.triangle_kernel_variance(lcfg, f3),
            **correlation,
            **split,
        }
        _write_report(cfg, payload)


def _cmd_spatial(cfg: dict) -> None:
    x0 = ("x0",) if cfg.get("x0") is not None else ()
    report, lcfg = _replicates(cfg, "spatial", "d", "beta", "lam", "r", "mode", *x0)
    scfg = spatial.SpatialConfig(**{k: report.config[k]
                                    for k in ("d", "beta", "theta", "lam", "r")})
    if x0:
        rate = spatial.origin_degree_rate(scfg, lcfg.dist, report.config["x0"])
        stat, dof, pvalue = _poisson_gof(report.samples, rate)
        report.gof = {"name": "chi2_vs_poisson", "stat": stat, "dof": dof,
                      "pvalue": pvalue}
        report.extras["conditional_poisson_rate"] = rate
    else:
        try:
            report.extras["mean_identity"] = spatial.mean_origin_degree(scfg, lcfg.dist)
        except (RegimeError, NumericError):
            report.extras["mean_identity"] = None
    _write_report(cfg, report.to_dict(), report.samples, report.columns)


def _poisson_gof(samples: np.ndarray, rate: float):
    top = int(samples.max())
    kmax = max(top, stats.poisson_tail_cutoff(rate, 1e-12))
    probs = [stats.poisson_pmf(rate, k) for k in range(kmax + 1)]
    probs.append(max(0.0, 1.0 - math.fsum(probs)))
    observed = np.bincount(samples.astype(int), minlength=kmax + 2).astype(float)
    return stats.chi_square_gof(observed.tolist(), probs)


def _cmd_clt_check(cfg: dict) -> None:
    report, _ = _replicates(cfg, "clt", "d", "beta", "lam", "r", "Cr")
    _ks(report, "ks_vs_standard_normal", stats.normal_cdf)
    _write_report(cfg, report.to_dict(), report.samples, report.columns)


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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _merge_config(parser, args)
        _COMMANDS[cfg["command"]](cfg)
        return 0
    except UsageError as exc:
        print(f"threshnet: usage error: {exc}", file=sys.stderr)
        return 1
    except ThreshnetError as exc:
        print(f"threshnet: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
