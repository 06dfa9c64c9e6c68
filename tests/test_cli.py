"""Command-line interface: contracts on output files, exit codes, config
merging, and byte-level reproducibility."""

import contextlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import threshnet
from threshnet.cli import build_parser, main


def run(args):
    return main(args)


def test_triangles_report(tmp_path):
    out = tmp_path / "t.json"
    code = run(["triangles", "--dist", "uniform:0,1", "--theta", "1", "--n", "2000",
                "--seed", "7", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert set(["triangles", "triangle_density", "limit_triangle_probability"]) <= set(report)
    assert report["limit_triangle_probability"] == pytest.approx(0.25, abs=1e-8)
    assert abs(report["triangle_density"] - 0.25) < 0.05


def test_limits_degree_pmf_table(tmp_path):
    out = tmp_path / "pmf.csv"
    code = run(["limits", "--dist", "uniform:0,1", "--theta", "1",
                "--table", "degree-pmf", "--n", "9", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,pmf"
    assert len(lines) == 11
    for line in lines[1:]:
        _, pmf = line.split(",")
        assert abs(float(pmf) - 0.1) < 1e-9


def test_spatial_mixture_mean(tmp_path):
    out = tmp_path / "s.json"
    code = run(["spatial", "--mode", "mixture", "--d", "2", "--beta", "2",
                "--theta", "1", "--lambda", "1", "--r", "3", "--dist", "uniform:0,1",
                "--R", "800", "--seed", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["mean_identity"] == pytest.approx(math.pi, abs=1e-8)
    se = report["stderr"]
    assert abs(report["mean"] - math.pi) < 3 * se


def test_report_json_roundtrip(tmp_path):
    out = tmp_path / "d.json"
    run(["degree", "--dist", "uniform:0,1", "--theta", "1", "--n", "100",
         "--R", "50", "--seed", "5", "--out", str(out)])
    report = json.loads(out.read_text())
    assert report["R"] == 50
    assert report["seed"] == 5
    assert report["gof"]["name"] == "ks_vs_limit_degree_cdf"
    # re-parsed report matches the in-memory campaign exactly
    from threshnet import stats as tstats

    rep = tstats.run_replicates(
        "degree", {"dist": "uniform:0,1", "theta": 1.0, "n": 100}, 50, 5
    )
    assert report["mean"] == rep.mean
    assert report["variance"] == rep.variance
    assert report["config"] == rep.config
    # the plot-ready tables appear next to the report
    assert (tmp_path / "d_ecdf.csv").exists()
    assert (tmp_path / "d_hist.csv").exists()
    ecdf_lines = (tmp_path / "d_ecdf.csv").read_text().splitlines()
    assert ecdf_lines[0] == "value,ecdf"
    assert len(ecdf_lines) == 51


def test_byte_identical_reruns(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["pair", "--dist", "uniform:0,1", "--theta", "1", "--n", "100",
            "--R", "60", "--seed", "11"]
    run(args + ["--out", str(out1)])
    run(args + ["--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_pair_report_fields(tmp_path):
    out = tmp_path / "p.json"
    run(["pair", "--dist", "uniform:0,1", "--theta", "1", "--n", "200",
         "--R", "200", "--seed", "2", "--out", str(out)])
    report = json.loads(out.read_text())
    assert report["limit_corr_given_edge"] == pytest.approx(-0.5, abs=1e-6)
    assert report["split_support"] is True
    assert report["columns"] == ["d1_over_n", "d2_over_n", "edge"]


def test_motif_command(tmp_path):
    out = tmp_path / "m.json"
    code = run(["motif", "--dist", "uniform:0,1", "--theta", "1", "--n", "40",
                "--motif", "k=4;edges=1-2,2-3,3-4,4-1", "--seed", "4",
                "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["symmetry_count"] == 8
    assert report["ordered_tuples"] % 8 == 0


def test_usage_error_no_partial_output(tmp_path):
    out = tmp_path / "x.json"
    code = run(["degree", "--dist", "uniform:0,1", "--theta", "1",
                "--out", str(out)])  # missing --n/--R
    assert code == 1
    assert not out.exists()


def test_unknown_command_usage_error():
    assert run(["frobnicate"]) == 1


_SPATIAL = ["spatial", "--d", "2", "--beta", "2", "--lambda", "1", "--theta", "1",
            "--r", "3", "--dist", "uniform:0,1", "--R", "5"]


@pytest.mark.parametrize("args, config, named", [
    (["degree", "--dist", "uniform:0,1", "--theta", "nan", "--n", "50", "--R", "5"], None,
     "--theta"),
    (["limits", "--table", "degree-pmf", "--dist", "uniform:0,1", "--theta", "nan",
      "--n", "3"], None, "--theta"),
    (["motif", "--dist", "uniform:0,1", "--theta", "nan", "--n", "10",
      "--motif", "k=3;edges=1-2,2-3,3-1"], None, "--theta"),
    (["limits", "--table", "summary", "--dist", "twopoint:0,0.5,inf", "--theta", "1"], None,
     "two_point"),
    (["limits", "--table", "summary", "--dist", "pareto:inf,2", "--theta", "1"], None,
     "pareto"),
    (["limits", "--table", "summary", "--dist", "discrete:0:nan,1:1", "--theta", "1"], None,
     "discrete"),
    (_SPATIAL + ["--beta", "nan"], None, "--beta"),
    (_SPATIAL + ["--x0", "nan"], None, "--x0"),
    (_SPATIAL + ["--lambda", "inf"], None, "--lambda"),
    (_SPATIAL + ["--r", "nan"], None, "--r"),
    (["degree", "--dist", "uniform:0,1", "--theta", "1", "--R", "5"], {"n": 10.7}, "--n"),
    (["degree", "--dist", "uniform:0,1", "--theta", "1", "--R", "5"], {"n": True}, "--n"),
    (["degree", "--dist", "uniform:0,1", "--n", "5", "--R", "5"], {"theta": math.nan},
     "--theta"),
    (["limits", "--dist", "uniform:0,1", "--theta", "1"], {"table": "nope"}, "--table"),
    (["limits", "--table", "summary", "--dist", "pareto:10,0.001", "--theta", "1"], None,
     "pareto"),
    (["degree", "--dist", "pareto:10,0.001", "--theta", "1", "--n", "10", "--R", "2"], None,
     "pareto"),
    (["limits", "--table", "summary", "--dist", "pareto:0.1,0.001", "--theta", "1"], None,
     "pareto"),
])
def test_outside_numbers_are_checked(tmp_path, capsys, args, config, named):
    # a config file value takes its flag's type and checks
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args = args + ["--config", str(cfg)]
    assert run(args + ["--out", str(tmp_path / "r.json")]) == 1
    assert named in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] in ([], ["cfg.json"])


@pytest.mark.parametrize("command", [
    ["limits", "--table", "summary"], ["pair", "--n", "10", "--R", "3"]])
def test_split_support_at_adjacent_floats(tmp_path, command):
    # theta - 1 and theta / 2 are adjacent floats: no light-heavy edge exists
    out = tmp_path / "r.json"
    assert run(command + ["--dist", "uniform:0,1", "--theta", "1.9999999999999998",
                          "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["split_support"] is False and report["split_support_witness"] is None


# Each command's required options besides --dist and --theta, and values
# that each option must refuse.
_REQUIRED = {
    "degree": {"--n": "20", "--R": "3"},
    "pair": {"--n": "20", "--R": "3"},
    "triangles": {"--n": "20"},
    "motif": {"--n": "10", "--motif": "k=3;edges=1-2,2-3,3-1"},
    "local": {"--n": "20", "--R": "3"},
    "limits": {"--table": "summary"},
    "spatial": {"--d": "2", "--beta": "2", "--lambda": "1", "--r": "3", "--R": "3"},
    "clt-check": {"--d": "2", "--beta": "2", "--lambda": "1", "--r": "3", "--R": "3",
                  "--Cr": "1"},
}
_REFUSED = {
    **dict.fromkeys(("theta", "beta", "lam", "x0", "Cr"), [math.nan, math.inf, -math.inf, "x"]),
    "r": [math.nan, "x"],
    **dict.fromkeys(("n", "R", "d", "seed", "grid", "density_samples"),
                    [10.7, True, "x", math.nan]),
    **dict.fromkeys(("table", "mode", "fmt"), ["nope", 1]),
    "dist": ["gauss:0,1", "uniform:0", "pareto:inf,2", "twopoint:0,0.5,inf",
             "discrete:0:nan,1:1", "exp:nan", "point:inf", True],
    "motif": ["k=3;edges=1-9", "k=x"],
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_usage_errors_leave_no_output_property(data):
    # a required option left out, or a refused value given by flag or config file
    command = data.draw(st.sampled_from(sorted(_REQUIRED)))
    flags = build_parser().config_flags[command]
    options = {"--dist": "uniform:0,1", "--theta": "1", **_REQUIRED[command]}
    via = data.draw(st.sampled_from(["missing", "flag", "config"]))
    with tempfile.TemporaryDirectory() as tmp:
        if via == "missing":
            del options[data.draw(st.sampled_from(sorted(options)))]
        else:
            key = data.draw(st.sampled_from(sorted(set(_REFUSED) & set(flags))))
            value = data.draw(st.sampled_from(_REFUSED[key]))
            options.pop(flags[key], None)
            if via == "flag":
                options[flags[key]] = value if isinstance(value, str) else json.dumps(value)
            else:
                (Path(tmp) / "cfg.json").write_text(json.dumps({key: value}))
                options["--config"] = str(Path(tmp) / "cfg.json")
        argv = [command, *(token for item in options.items() for token in item)]
        assert run(argv + ["--out", str(Path(tmp) / "r.json")]) == 1
        assert sorted(os.listdir(tmp)) in ([], ["cfg.json"])


def test_bad_dist_spec_usage_error(tmp_path):
    out = tmp_path / "x.json"
    code = run(["degree", "--dist", "gauss:0,1", "--theta", "1", "--n", "10",
                "--R", "2", "--out", str(out)])
    assert code == 1
    assert not out.exists()


def test_capacity_error_exit_code(tmp_path):
    out = tmp_path / "m.json"
    code = run(["spatial", "--mode", "direct", "--d", "3", "--beta", "1",
                "--theta", "1", "--lambda", "1", "--r", "10000",
                "--dist", "uniform:0,1", "--R", "2", "--out", str(out)])
    assert code == 2
    assert not out.exists()


# The direct sampler's array draw of the same law overflows to inf, with no
# warning, before a scalar draw raises.
@pytest.mark.parametrize("mode", ["direct", "mixture"])
def test_scalar_pareto_overflow_exit_code(tmp_path, capsys, mode):
    out = tmp_path / "s.json"
    code = run(["spatial", "--mode", mode, "--dist", "pareto:1,0.005", "--d", "2",
                "--beta", "2", "--lambda", "1", "--theta", "1", "--r", "3", "--R", "50",
                "--seed", "1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("threshnet: error: ") and "pareto:1.0,0.005" in err
    assert "overflows" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, message", [
    (["--d", "2", "--beta", "0", "--theta", "1", "--dist", "uniform:0,1"], "beta <= 0"),
    (["--d", "2", "--beta", "-1", "--theta", "1", "--dist", "uniform:0,1"], "beta <= 0"),
    (["--d", "3", "--beta", "0.5", "--theta", "0.8", "--dist", "pareto:1,1"], "E[|X|**6]"),
])
def test_divergent_limit_exit_code(tmp_path, capsys, args, message):
    out = tmp_path / "s.json"
    code = run(["spatial", "--mode", "mixture", "--lambda", "1", "--r", "inf", "--R", "5",
                *args, "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


_MIXTURE = ["spatial", "--mode", "mixture", "--d", "2", "--beta", "2", "--theta", "1",
            "--dist", "uniform:0,1", "--R", "3"]
_CLT = ["clt-check", "--d", "2", "--beta", "2", "--theta", "1", "--dist", "uniform:0,1",
        "--R", "3"]


@pytest.mark.parametrize("args, named", [
    (_MIXTURE + ["--lambda", "1", "--r", "1e200"], "radius r = 1e+200"),
    (_MIXTURE + ["--lambda", "1", "--r", "1e200", "--dist", "exp:1"], "radius r = 1e+200"),
    (_MIXTURE + ["--lambda", "1e-300", "--r", "1e200", "--mode", "direct"],
     "radius r = 1e+200"),
    (_CLT + ["--lambda", "1", "--r", "1e200", "--Cr", "1"], "radius r = 1e+200"),
    (_MIXTURE + ["--lambda", "1", "--r", "1e-200", "--beta", "-2"], "radius r = 1e-200"),
    (_MIXTURE + ["--lambda", "1", "--r", "1e120", "--d", "3", "--beta", "0.5",
                 "--dist", "pareto:1,3"], "radius r = 1e+120"),
    (_MIXTURE + ["--lambda", "1e300", "--r", "3"], "Poisson rate 2.34016e+300"),
    (_MIXTURE + ["--lambda", "1e300", "--r", "3", "--x0", "0.5"], "Poisson rate 3.14159e+300"),
    (_CLT + ["--lambda", "1e300", "--r", "3", "--Cr", "1"], "Poisson rate 2.34016e+300"),
    (_CLT + ["--lambda", "1", "--r", "3", "--Cr", "1e-320"], "sample variance is not finite"),
], ids=["r-psi", "r-exponential", "r-ball-volume", "r-clt", "r-negative-beta",
        "r-pareto", "rate", "rate-x0", "rate-clt", "variance"])
def test_numbers_beyond_the_floats_exit_code(tmp_path, capsys, args, named):
    # a radius whose powers leave the floats, a Poisson rate numpy cannot
    # draw, a sample moment that overflows: each is named, and nothing is written
    code = run(args + ["--out", str(tmp_path / "s.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("threshnet: error: ") and named in err
    assert list(tmp_path.iterdir()) == []


def test_radius_with_finite_powers_still_runs(tmp_path):
    # r**2 = 1e300 is a float, and the mean identity is pi as at any radius
    out = tmp_path / "s.json"
    assert run(_MIXTURE + ["--lambda", "1", "--r", "1e150", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["mean_identity"] == pytest.approx(math.pi, rel=1e-12)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dist": "uniform:0,1", "theta": 1.0, "n": 100, "R": 30, "seed": 9,
    }))
    out1 = tmp_path / "c1.json"
    run(["degree", "--config", str(cfg), "--out", str(out1)])
    report1 = json.loads(out1.read_text())
    assert report1["R"] == 30
    out2 = tmp_path / "c2.json"
    run(["degree", "--config", str(cfg), "--R", "10", "--out", str(out2)])
    report2 = json.loads(out2.read_text())
    assert report2["R"] == 10  # flag wins


@pytest.mark.parametrize("key", ["seed", "grid"])
def test_config_null_leaves_the_default(tmp_path, key):
    args = ["local", "--dist", "uniform:0,1", "--theta", "1", "--n", "30", "--R", "5"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: None}))
    plain, nulled = tmp_path / "plain.json", tmp_path / "nulled.json"
    assert run(args + ["--out", str(plain)]) == 0
    assert run(args + ["--config", str(cfg), "--out", str(nulled)]) == 0
    assert nulled.read_bytes() == plain.read_bytes()


def test_config_null_required_key_is_named(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dist": "uniform:0,1", "theta": 1.0, "n": 30, "R": None}))
    out = tmp_path / "d.json"
    assert run(["degree", "--config", str(cfg), "--out", str(out)]) == 1
    assert "missing required option(s): --R" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content", [None, "[1, 2]", '"uniform:0,1"'])
def test_config_file_usage_errors_name_the_file(tmp_path, capsys, content):
    # an unreadable path, or JSON that is not an object
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    out = tmp_path / "d.json"
    assert run(["degree", "--dist", "uniform:0,1", "--theta", "1", "--n", "30", "--R", "5",
                "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("threshnet: usage error: ") and str(cfg) in err
    assert not out.exists()


def test_missing_option_is_named_by_its_flag(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert run(_SPATIAL[:5] + _SPATIAL[7:] + ["--out", str(out)]) == 1  # no --lambda 1
    assert "missing required option(s): --lambda" in capsys.readouterr().err
    assert not out.exists()


def test_csv_sample_output(tmp_path):
    out = tmp_path / "d.csv"
    run(["degree", "--dist", "uniform:0,1", "--theta", "1", "--n", "50",
         "--R", "20", "--seed", "1", "--format", "csv", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == "value"
    assert len(lines) == 21


def test_limits_other_tables(tmp_path):
    out = tmp_path / "cdf.csv"
    run(["limits", "--dist", "uniform:0,1", "--theta", "1", "--table", "limit-cdf",
         "--grid", "21", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == "t,cdf" and len(lines) == 22
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert vals == sorted(vals) and vals[-1] == 1.0

    out = tmp_path / "h1.csv"
    run(["limits", "--dist", "uniform:0,1", "--theta", "1", "--table", "h1",
         "--grid", "16", "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == "x,h1" and len(lines) == 17

    out = tmp_path / "summary.json"
    run(["limits", "--dist", "uniform:0,1", "--theta", "1", "--table", "summary",
         "--out", str(out)])
    summary = json.loads(out.read_text())
    assert summary["edge_probability"] == pytest.approx(0.5, abs=1e-9)
    assert summary["triangle_kernel_variance"] == pytest.approx(1 / 30, abs=1e-6)
    assert summary["split_support"] is True


def test_limits_summary_exponential_far_tail(tmp_path):
    # the edge probability e**-20 * 21 needs sf, not 1 - cdf, in its integrand
    out = tmp_path / "summary.json"
    code = run(["limits", "--dist", "exp:5", "--theta", "4", "--table", "summary",
                "--out", str(out)])
    assert code == 0
    summary = json.loads(out.read_text())
    assert summary["edge_probability"] == pytest.approx(21 * math.exp(-20), rel=1e-13, abs=0)


def test_clt_check_command(tmp_path):
    out = tmp_path / "c.json"
    code = run(["clt-check", "--dist", "point:0.5", "--theta", "-1", "--d", "2",
                "--beta", "2", "--lambda", "1", "--r", "100", "--Cr", "5000",
                "--R", "300", "--seed", "6", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["gof"]["name"] == "ks_vs_standard_normal"
    assert report["gof"]["stat"] < 0.1


def test_import_does_not_load_scipy():
    # numpy is the only runtime dependency
    src = str(Path(threshnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, threshnet.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "or m.startswith('numpy.polynomial')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("args, minimum", [
    (["degree", "--n", "0", "--R", "3"], "n >= 1"),
    (["local", "--n", "0", "--R", "3"], "n >= 2"),
    (["local", "--n", "1", "--R", "3"], "n >= 2"),
    (["triangles", "--n", "1"], "n >= 3"),
    (["triangles", "--n", "2"], "n >= 3"),
    (["local", "--n", "10", "--R", "3", "--config", "{cfg}"], "grid >= 1"),
    (["limits", "--table", "h1", "--grid", "0"], "grid >= 1"),
    (["limits", "--table", "limit-cdf", "--grid", "0"], "grid >= 1"),
    (["limits", "--table", "degree-pmf", "--n", "-3"], "n >= 0"),
    (["local", "--n", "10", "--R", "3", "--grid", "0"], "grid >= 1"),
    (["pair", "--n", "0", "--R", "3"], "n >= 1"),
    (["motif", "--n", "2", "--motif", "k=3;edges=1-2,2-3"], "n >= 3"),
])
def test_small_inputs_name_their_minimum(tmp_path, capsys, args, minimum):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": 0}))
    out = tmp_path / "x.json"
    argv = [a.format(cfg=cfg) for a in args]
    code = run(argv + ["--dist", "uniform:0,1", "--theta", "1", "--out", str(out)])
    assert code == 2
    assert minimum in capsys.readouterr().err
    assert not out.exists()


def test_local_grid_flag_equals_config(tmp_path):
    args = ["local", "--dist", "uniform:0,1", "--theta", "1", "--n", "30", "--R", "12",
            "--seed", "2", "--out"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": 64}))
    flag, config, coarse, default = (
        tmp_path / f"{name}.json" for name in ("flag", "config", "coarse", "default"))
    assert run(args + [str(flag), "--grid", "64"]) == 0
    assert run(args + [str(config), "--config", str(cfg)]) == 0
    assert flag.read_bytes() == config.read_bytes()
    # the grid reaches the KS reference; the default stays 512
    assert run(args + [str(coarse), "--grid", "2"]) == 0
    assert run(args + [str(default)]) == 0
    assert run(args + [str(flag), "--grid", "512"]) == 0
    assert flag.read_bytes() == default.read_bytes() != coarse.read_bytes()


@pytest.mark.parametrize("args", [
    ["local", "--dist", "uniform:0,1", "--theta", "1", "--n", "30", "--R", "12",
     "--seed", "2"],
    ["limits", "--dist", "pareto:1,3", "--theta", "2.5", "--table", "summary"],
    ["limits", "--dist", "exp:1", "--theta", "1", "--table", "h1", "--grid", "9"],
    ["degree", "--dist", "uniform:0,1", "--theta", "1", "--n", "40", "--R", "6",
     "--seed", "4", "--format", "csv"],
])
def test_stdout_matches_out_file(tmp_path, capsys, args):
    assert run(args) == 0
    stdout = capsys.readouterr().out.encode("utf-8")
    out = tmp_path / "r.out"
    assert run(args + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert stdout == out.read_bytes()


def test_pair_csv_samples_without_side_tables(tmp_path):
    out = tmp_path / "p.csv"
    code = run(["pair", "--dist", "uniform:0,1", "--theta", "1", "--n", "30",
                "--R", "7", "--seed", "3", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "d1_over_n,d2_over_n,edge"
    assert len(lines) == 8 and all(len(line.split(",")) == 3 for line in lines[1:])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv"]


_SHARED = {"-h", "--help", "--config", "--dist", "--theta", "--seed", "--out", "--format"}
_SPACE = {"--d", "--beta", "--lambda", "--r"}


@pytest.mark.parametrize("command, own", [
    ("degree", {"--n", "--R"}),
    ("pair", {"--n", "--R"}),
    ("triangles", {"--n"}),
    ("motif", {"--n", "--motif", "--density-samples"}),
    ("local", {"--n", "--R", "--grid"}),
    ("limits", {"--n", "--table", "--grid"}),
    ("spatial", {"--R", "--mode", "--x0"} | _SPACE),
    ("clt-check", {"--R", "--Cr"} | _SPACE),
])
def test_subcommand_options(command, own):
    (subparsers,) = [a for a in build_parser()._actions if a.dest == "command"]
    assert set(subparsers.choices[command]._option_string_actions) == _SHARED | own


def _gof(tmp_path, args):
    out = tmp_path / "r.json"
    assert run([*args.split(), "--out", str(out)]) == 0
    return json.loads(out.read_text())["gof"]


@pytest.mark.parametrize("args", [
    "degree --dist uniform:0,1 --theta 1.5 --n 200 --R 200 --seed 1",
    "local --dist uniform:0,1 --theta 1.5 --n 400 --R 200 --seed 1",
])
def test_ks_against_a_limit_with_an_atom_at_zero(tmp_path, args):
    # theta = 1.5 isolates the weights below 0.5, an atom of the limit law at
    # 0; the samples on it are not counted against that jump
    gof = _gof(tmp_path, args)
    assert gof["stat"] <= 0.1 and gof["pvalue"] > 0.05


@pytest.mark.parametrize("args", [
    "degree --dist point:0.3 --theta 1 --n 50 --R 20 --seed 1",
    "degree --dist twopoint:0.1,0.5,0.5 --theta 1 --n 50 --R 20 --seed 1",
    "local --dist point:1 --theta 1 --n 50 --R 20 --seed 1",
])
def test_ks_samples_equal_to_their_limit(tmp_path, args):
    # every sample equals the limit, a single atom
    gof = _gof(tmp_path, args)
    assert gof["stat"] == 0.0 and gof["pvalue"] == 1.0


@pytest.mark.xfail(strict=True, reason=(
    "D/n <= (n - 1)/n never reaches the atom at 1 that weights above theta "
    "put on the limit degree law; see the FOUND item on the degree fraction"))
def test_ks_degree_fraction_against_a_limit_atom_at_one(tmp_path):
    gof = _gof(tmp_path, "degree --dist exp:1 --theta 1 --n 2000 --R 400 --seed 3")
    assert gof["stat"] < 0.2


@pytest.mark.xfail(strict=True, reason=(
    "expectation(pareto(1, 3), x**2) raises; see the FOUND item on heavy "
    "pareto tail moments"))
def test_mixture_mean_identity_pareto_second_moment(tmp_path):
    # 2 pi (E[X^2] + E[X]^2) at d = 2, beta = 1, lambda = 1, theta = 1, r = inf
    out = tmp_path / "s.json"
    assert run(["spatial", "--mode", "mixture", "--d", "2", "--beta", "1", "--lambda", "1",
                "--theta", "1", "--dist", "pareto:1,3", "--r", "inf", "--R", "50",
                "--seed", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["mean_identity"] == pytest.approx(10.5 * math.pi,
                                                                          rel=1e-9)


# The error boundary: every input the CLI accepts ends in a report or a typed
# error.  Each variant is a small base call; the property sets some of its
# numeric flags to extreme values and may swap in an extreme weight law.  The
# base sizes are small and every extreme count is refused before any draw, and
# direct mode keeps r = 3 and lambda = 1 unless one is set to an extreme, so
# its point count is either small or over the cap.
_SPACE_BASE = {"--d": "2", "--beta": "2", "--lambda": "1", "--r": "3", "--R": "3"}
_VARIANTS = [
    ("degree", {"--n": "20", "--R": "3"}),
    ("pair", {"--n": "20", "--R": "3"}),
    ("triangles", {"--n": "20"}),
    ("motif", {"--n": "8", "--motif": "k=3;edges=1-2,2-3,3-1", "--density-samples": "10"}),
    ("local", {"--n": "20", "--R": "3", "--grid": "16"}),
    ("limits", {"--table": "degree-pmf", "--n": "5"}),
    ("limits", {"--table": "summary"}),
    ("limits", {"--table": "limit-cdf", "--grid": "8"}),
    ("limits", {"--table": "h1", "--grid": "8"}),
    ("spatial", {"--mode": "mixture", **_SPACE_BASE}),
    ("spatial", {"--mode": "mixture", **_SPACE_BASE, "--x0": "0.5"}),
    ("spatial", {"--mode": "mixture", **_SPACE_BASE, "--d": "1", "--beta": "1", "--r": "inf"}),
    ("spatial", {"--mode": "direct", **_SPACE_BASE}),
    ("clt-check", {**_SPACE_BASE, "--Cr": "1"}),
]
_INT_FLAGS = {"--n", "--R", "--grid", "--density-samples", "--d", "--seed"}
_FLOAT_FLAGS = {"--theta", "--beta", "--lambda", "--r", "--x0", "--Cr"}
_EXTREMES = [0.0, -1.0, 1e-320, 1e20, 1e308, math.inf, -math.inf, math.nan]
_EXTREME_LAWS = ["uniform:0,1", "exp:1", "uniform:-1e308,1e308", "exp:1e-320", "pareto:1,1.01"]
# A message names a flag, a law or a quantity.
_NAMED = re.compile(
    r"--[a-z]|\b(n|R|grid|density_samples|d|r|theta|beta|lam|x0|Cr|"
    r"uniform|exponential|pareto|weight|rate|mean|variance|quantile|quadrature|count|points)\b")


def _extreme_text(flag: str, value: float) -> str:
    """An integral value as an int for an int flag (1e20 as 100000000000000000000)."""
    integral = flag in _INT_FLAGS and math.isfinite(value) and value.is_integer()
    return str(int(value)) if integral else repr(value)


@contextlib.contextmanager
def _time_limit(seconds: int):
    """Raise TimeoutError in a call that runs past ``seconds``, so that a count
    the cap no longer refuses fails the test instead of hanging the run."""
    def expire(signum, frame):
        raise TimeoutError(f"the call ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_every_input_ends_in_a_report_or_a_typed_error(data):
    # runs under the suite's filterwarnings = error, so a numpy warning fails
    # the call like any exception that is not a ThreshnetError
    command, options = data.draw(st.sampled_from(_VARIANTS))
    numeric = sorted((set(options) | {"--theta", "--seed"}) & (_INT_FLAGS | _FLOAT_FLAGS))
    options = {**options, "--dist": data.draw(st.sampled_from(_EXTREME_LAWS)), "--theta": "1"}
    for flag in data.draw(st.sets(st.sampled_from(numeric), max_size=2)):
        options[flag] = _extreme_text(flag, data.draw(st.sampled_from(_EXTREMES)))
    argv = [command, *(f"{flag}={value}" for flag, value in options.items())]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        out = Path(tmp) / "r.out"
        with _time_limit(20):
            code = run(argv + ["--out", str(out)])
        written = out.read_text() if code == 0 else None
        assert code == 0 or os.listdir(tmp) == [], argv
    if code == 0:
        assert "NaN" not in written and "nan" not in written, argv
    else:
        assert code in (1, 2) and _NAMED.search(err.getvalue()), (argv, err.getvalue())


@pytest.mark.parametrize("args, named", [
    (["degree", "--n", str(10**20), "--R", "3"], "n <= 100000000, got n = 10"),
    (["limits", "--table", "degree-pmf", "--n", str(10**20)], "n <= 100000, got n = 10"),
    (["degree", "--n", "5", "--R", str(10**20)], "R <= 100000000, got R = 10"),
    (["motif", "--n", "5", "--motif", "k=3;edges=1-2,2-3", "--density-samples", str(10**20)],
     "density_samples <= 100000000, got density_samples = 10"),
], ids=["n", "pmf-rows", "R", "density-samples"])
def test_counts_above_their_cap_end_at_once(tmp_path, args, named):
    # without the cap these fail in numpy's allocator or run until killed
    src = str(Path(threshnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "r.json"
    child = subprocess.run(
        [sys.executable, "-W", "error", "-m", "threshnet.cli", *args,
         "--dist", "uniform:0,1", "--theta", "1", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 2 and "Traceback" not in child.stderr
    assert child.stderr.startswith("threshnet: error: ") and named in child.stderr
    assert not out.exists()


_CR = ["clt-check", "--dist", "uniform:0,1", "--theta", "1", "--d", "2", "--beta", "2",
       "--r", "3", "--R", "3"]


@pytest.mark.parametrize("args, code, named", [
    (["local", "--n", "10", "--R", "3", "--grid", str(10**20)], 2, "grid <= 100000000"),
    (["limits", "--table", "limit-cdf", "--grid", str(10**20)], 2, "grid <= 100000000"),
    (["limits", "--table", "h1", "--grid", str(10**20)], 2, "grid <= 100000000"),
    (_CR + ["--lambda", "1e-10", "--Cr", "1e-320"], 2, "at Cr = 1e-320"),
    (_CR + ["--lambda", "1", "--Cr", "1e308"], 2, "at Cr = 1e+308"),
    (_MIXTURE + ["--lambda", "1", "--r", "3", "--x0", "1e308"], 2, "x0 = 1e+308"),
    (_MIXTURE + ["--d", "1", "--beta", "1", "--lambda", "1", "--r", "inf",
                 "--dist", "pareto:1,1.01"], 2, "pareto:1.0,1.01 quantile"),
    (["degree", "--n", "50", "--R", "3", "--dist", "uniform:-1e308,1e308"], 1, "uniform"),
    (["degree", "--n", "50", "--R", "3", "--dist", "exp:1e-320"], 1, "exponential"),
], ids=["local-grid", "limit-cdf-grid", "h1-grid", "Cr-underflow", "Cr-overflow",
        "x0-rate", "pareto-quantile", "uniform-width", "exp-reciprocal"])
def test_extreme_inputs_name_their_reason(tmp_path, capsys, args, code, named):
    # a later flag wins, so args may set their own law
    argv = [args[0], "--dist", "uniform:0,1", "--theta", "1", *args[1:]]
    assert run(argv + ["--out", str(tmp_path / "r.json")]) == code
    assert named in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []

