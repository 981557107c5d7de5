import argparse
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cascade_risk
from cascade_risk import (CovarianceMatrix, NoiseParams, build_custom,
                          build_path, build_pcycle, iota, laplacian,
                          region_bound, spectrum, steady_state_covariance)
from cascade_risk.cli import _SCHEMAS, build_parser, main, render_csv
from cascade_risk.experiments import covariance_rows

from oracles import add_pair_edges, format_cell, var_risk_scalar

PATH6 = """\
[graph]
type = path
n = 6

[platoon]
d = 3

[noise]
g = 0.1
tau = 0.03
beta = 2

[query]
epsilon = 0.1
c = 2

[scenario]
indices = [3]
states = 0
"""

COMPLETE12 = """\
[graph]
type = complete
n = 12

[platoon]
d = 3

[noise]
g = 10
tau = 0.03
beta = 0.005

[query]
epsilon = 0.4
c = 1

[scenario]
indices = [4, 5, 9]
states = [0, 0.1, 5]
"""

SIM_SMALL = """\
[graph]
type = path
n = 3

[platoon]
d = 3

[noise]
g = 0.1
tau = 0.03
beta = 2

[sim]
dt = 0.001
burn_in = 0.5
sample_interval = 0.1
samples_per_trial = 10
trials = 4
seed = 3
"""


DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def parse_csv(text):
    lines = text.splitlines()
    assert lines[0].startswith("# schema=")
    schema = lines[0].split("=", 1)[1]
    header = lines[1].split(",")
    rows = []
    trailers = []
    for line in lines[2:]:
        if line.startswith("# "):
            trailers.append(line[2:])
        else:
            rows.append(line.split(","))
    return schema, header, rows, trailers


def test_stability_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PATH6)
    assert main(["stability", "--config", cfg]) == 0
    schema, header, rows, trailers = parse_csv(capsys.readouterr().out)
    assert schema == "stability/v1"
    assert header == ["k", "lambda", "s1", "s2", "bound", "margin"]
    assert len(rows) == 5        # modes 2..6
    assert [r[0] for r in rows] == ["2", "3", "4", "5", "6"]
    assert trailers == ["stable=1"]
    assert all(float(r[5]) > 0.0 for r in rows)


def test_malformed_config_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[orbit]\nn = 5\n")
    assert main(["stability", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err and "orbit" in err
    assert err.count(cfg) == 1
    # errors found while building from the parsed file name it too
    for section in ('[graph]\ntype = star\nn = 4\n',
                    '[graph]\ntype = complete\n',
                    PATH6.replace("tau = ", "tau = [1]\n# ")):
        cfg = write_cfg(tmp_path, section)
        assert main(["stability", "--config", cfg]) == 1
        assert capsys.readouterr().err.count(cfg) == 1


def test_bad_custom_edge_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PATH6.replace(
        "type = path\n", 'type = custom\nedges = [["a", 2], [2, 3]]\n'))
    assert main(["stability", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cascade-risk: line 3:") and "endpoint" in err


def test_negative_seed_exit_code(tmp_path, capsys):
    # refused at entry, whether the sweep samples its patterns (at most
    # one enumerated) or enumerates them all and draws nothing
    sampled = write_cfg(tmp_path, PATH6 + "\n[experiment]\nenum_cap = 1\n"
                        "sample_count = 5\n", "sampled.cfg")
    exact = write_cfg(tmp_path, PATH6)
    for argv in (["sweep-sparsity", "--m", "2", "--config", sampled],
                 ["sweep-sparsity", "--m", "2", "--config", exact],
                 ["simulate", "--config", exact]):
        assert main(argv + ["--seed", "-1"]) == 1
        assert "seed -1" in capsys.readouterr().err


def test_undecodable_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(PATH6.replace("[noise]", "# caf\xe9\n[noise]")
                    .encode("latin-1"))
    assert main(["stability", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.count(str(cfg)) == 1 and "line 8:" in err and "0xe9" in err
    cfg.write_bytes(b"\xff" + PATH6.encode())
    assert main(["stability", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.count(str(cfg)) == 1 and "line 1:" in err
    assert "not UTF-8" in err


def test_missing_config_exit_code(tmp_path, capsys):
    assert main(["stability", "--config", str(tmp_path / "nope.cfg")]) == 1
    assert "cascade-risk:" in capsys.readouterr().err


def test_near_boundary_exit_code(tmp_path, capsys):
    beta = (region_bound(1.5) - 1e-8) / 0.03
    cfg = write_cfg(tmp_path, f"""\
[graph]
type = complete
n = 50

[noise]
g = 10
tau = 0.03
beta = {beta!r}
""")
    assert main(["covariance", "--config", cfg]) == 2
    assert "numerical error" in capsys.readouterr().err


def test_unstable_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """\
[graph]
type = complete
n = 50

[noise]
g = 10
tau = 0.04
beta = 0.005
""")
    assert main(["covariance", "--config", cfg]) == 1
    assert "stability region" in capsys.readouterr().err


_CLOSED_FORM = ["risk-profile", "--method", "closed-form"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("demo, argv, beta, code", [
    ("path20", ["covariance"], "1e-322", 2),    # subnormal s2: singular
    ("path20", ["covariance"], "1e-300", 2),    # f overflows, slowest mode
    ("complete50", _CLOSED_FORM, "1e-322", 2),
    ("complete50", _CLOSED_FORM, "1e-300", 0),  # f = 4.7e301 at s1 = 1.5
], ids=["covariance-1e-322", "covariance-1e-300", "closed-form-1e-322",
        "closed-form-1e-300"])
def test_tiny_gain_is_one_typed_error(tmp_path, capsys, demo, argv, beta,
                                      code):
    # f grows like pi / (s1^2 s2) as s2 = beta tau -> 0; where it leaves
    # the float range the run ends in one numerical error, with no
    # warning and no traceback
    text = (DEMO_CONFIGS / f"{demo}.cfg").read_text()
    cfg = write_cfg(tmp_path, re.sub(r"(?m)^beta = .*$", f"beta = {beta}",
                                     text))
    assert main(argv + ["--config", cfg]) == code
    err = capsys.readouterr().err
    assert err == ("" if code == 0 else "cascade-risk: numerical error: "
                   "f is not finite and positive on every mode\n")


def test_out_flag_writes_deterministic_file(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PATH6)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["risk-profile", "--config", cfg, "--out", str(out1)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["risk-profile", "--config", cfg, "--out", str(out2)]) == 0
    a, b = out1.read_bytes(), out2.read_bytes()
    assert a == b
    assert a.startswith(b"# schema=risk_profile/v1\n")
    assert b"\r" not in a


def test_unwritable_out_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PATH6)
    target = str(tmp_path / "missing-dir" / "x.csv")
    assert main(["risk-profile", "--config", cfg, "--out", target]) == 1


def test_risk_profile_methods_agree(tmp_path, capsys):
    cfg = write_cfg(tmp_path, COMPLETE12)
    assert main(["risk-profile", "--config", cfg,
                 "--method", "generic"]) == 0
    generic = parse_csv(capsys.readouterr().out)[2]
    assert main(["risk-profile", "--config", cfg,
                 "--method", "closed-form"]) == 0
    closed = parse_csv(capsys.readouterr().out)[2]
    assert len(generic) == len(closed) == 11
    branches = {r[2] for r in generic}
    assert branches == {"finite", "zero", "infinite"}
    for rg, rc in zip(generic, closed):
        assert rg[0] == rc[0] and rg[2] == rc[2] and rg[5] == rc[5]
        for col in (1, 3, 4, 6):
            if rg[col] == "" or rc[col] == "":
                assert rg[col] == rc[col]
                continue
            a, b = float(rg[col]), float(rc[col])
            if math.isinf(a) or math.isinf(b):
                assert a == b
            else:
                assert abs(a - b) <= 1e-9


def test_closed_form_requires_complete_graph(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PATH6)
    assert main(["risk-profile", "--config", cfg,
                 "--method", "closed-form"]) == 1
    assert "complete graph" in capsys.readouterr().err


def test_sweep_scale_baseline_rows(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PATH6)
    assert main(["sweep-scale", "--config", cfg, "--max-m", "3"]) == 0
    schema, header, rows, _ = parse_csv(capsys.readouterr().out)
    assert schema == "sweep_scale/v1"
    assert header == ["m", "j", "risk"]
    assert len(rows) == 5 + 3 * 5        # m = 0..3, five pairs each
    sigma = steady_state_covariance(
        spectrum(laplacian(build_path(6))), NoiseParams(g=0.1, tau=0.03, beta=2.0))
    for row in rows[:5]:
        assert row[0] == "0"
        j = int(row[1])
        expected, _ = var_risk_scalar(
            3.0, math.sqrt(sigma.values[j - 1, j - 1]), 3.0, 2.0, iota(0.1))
        assert float(row[2]) == expected
    for row in rows[5:]:
        m, j = int(row[0]), int(row[1])
        if j <= m:
            assert float(row[2]) == 0.0   # failed pairs report zero


def test_sweep_scale_bad_max_m(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PATH6)
    assert main(["sweep-scale", "--config", cfg, "--max-m", "9"]) == 1


def _exit_code(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def test_usage_errors_exit_1(tmp_path, capsys):
    # 2 is reserved for numerical failures
    cfg = write_cfg(tmp_path, PATH6)
    for argv in (["stability", "--bogus"], [], ["orbit"],
                 ["sweep-scale", "--config", cfg, "--max-m", "abc"],
                 ["sweep-scale", "--config", cfg],
                 ["risk-profile", "--config", cfg, "--method", "exact"],
                 ["covariance", "--config", cfg, "--seed", "3"]):
        assert _exit_code(argv) == 1, argv
        assert "usage: cascade-risk" in capsys.readouterr().err
    assert _exit_code(["--help"]) == 0
    assert _exit_code(["sweep-sparsity", "--help"]) == 0
    assert _exit_code(["--version"]) == 0
    assert capsys.readouterr().out.strip().endswith(cascade_risk.__version__)


def _subcommand_flags():
    """Subcommand -> its option strings, without -h/--help."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {opt for action in parser._actions
                   for opt in action.option_strings} - {"-h", "--help"}
            for name, parser in sub.choices.items()}


def test_seed_only_on_seeded_subcommands():
    seeded = {name for name, flags in _subcommand_flags().items()
              if "--seed" in flags}
    assert seeded == {"simulate", "sweep-sparsity"}


def test_parser_flags_match_readme_synopsis():
    # the synopsis lists each subcommand's flags; --out FILE, which all
    # take, is described under it
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    synopsis = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    listed = {}
    for line in synopsis.split("```", 1)[0].splitlines():
        words = line.split("#", 1)[0].split()
        assert words[0] == "cascade-risk"
        listed[words[1]] = set(re.findall(r"--[a-z][a-z-]*", line)) | {"--out"}
    assert listed == _subcommand_flags()


@pytest.mark.parametrize("argv", [
    ["risk-profile"], ["sweep-scale", "--max-m", "2"],
    ["sweep-sparsity", "--m", "2"]])
def test_nonfinite_states_refused_at_config(tmp_path, capsys, argv):
    # refused where they enter, naming the file and the line of `states`
    for states in ("NaN", "Infinity", "[1, NaN]"):
        text = PATH6.replace("indices = [3]", "indices = [3, 4]")
        cfg = write_cfg(tmp_path, text.replace("states = 0",
                                               f"states = {states}"))
        assert main(argv + ["--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "line 19:" in err and "'states'" in err and "finite" in err
        assert err.count(cfg) == 1


@pytest.mark.parametrize("command, key, value, words", [
    ("risk-profile", "g", "0", "must be nonzero"),
    ("risk-profile", "tau", "-0.03", "must be positive"),
    ("risk-profile", "beta", "0", "must be positive"),
    ("risk-profile", "beta", "-2", "must be positive"),
    ("risk-profile", "epsilon", "0", "strictly inside (0, 1)"),
    ("risk-profile", "epsilon", "1", "strictly inside (0, 1)"),
    ("risk-profile", "epsilon", "1.5", "strictly inside (0, 1)"),
    ("risk-profile", "c", "0.5", "must be >= 1"),
    ("simulate", "dt", "0", "must be positive"),
    ("simulate", "dt", "-0.001", "must be positive"),
    ("simulate", "burn_in", "0", "must be positive"),
    ("simulate", "sample_interval", "-0.1", "must be positive"),
    ("simulate", "trials", "1", "must be >= 2"),
    ("simulate", "samples_per_trial", "1", "must be >= 2"),
])
def test_range_refusals_name_the_line(tmp_path, capsys, command, key, value,
                                      words):
    # the library's own rule refuses the value, on the line of its key
    lines = (SIM_SMALL if command == "simulate" else PATH6).splitlines()
    line = next(i for i, ln in enumerate(lines, start=1)
                if ln.startswith(f"{key} = "))
    lines[line - 1] = f"{key} = {value}"
    cfg = write_cfg(tmp_path, "\n".join(lines) + "\n")
    assert main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cascade-risk: line {line}: ")
    assert words in err and err.count(cfg) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("g, words", [(1e160, "overflows"),
                                      (1e-170, "underflows")])
@pytest.mark.parametrize("text, argv", [
    (PATH6, ["covariance"]),
    (COMPLETE12, ["risk-profile", "--method", "generic"]),
    (COMPLETE12, ["risk-profile", "--method", "closed-form"])],
    ids=["covariance", "generic", "closed-form"])
def test_covariance_scale_outside_float_range(tmp_path, capsys, text, argv,
                                              g, words):
    # a finite g whose g^2 tau^3 leaves the float range: one typed error
    # naming g and tau, exit 1, and no RuntimeWarning on the way
    lines = [f"g = {g!r}" if ln.startswith("g = ") else ln
             for ln in text.splitlines()]
    cfg = write_cfg(tmp_path, "\n".join(lines) + "\n")
    assert main(argv + ["--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"cascade-risk: covariance scale g^2 tau^3 with g={g!r}, tau=0.03 "
        f"{words}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["sweep-scale", "--max-m", "2"], ["sweep-sparsity", "--m", "2"]])
def test_sweep_takes_one_state(tmp_path, capsys, argv):
    # the sweeps place their own failures, so a states array with more
    # than one entry is refused as such, not against a scenario's pairs
    text = PATH6.replace("indices = [3]", "indices = [3, 4]")
    cfg = write_cfg(tmp_path, text.replace("states = 0", "states = [1, 2]"))
    assert main(argv + ["--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "line 19:" in err and err.count(cfg) == 1
    assert "take one state value for every failure" in err
    assert "failed pairs" not in err


def test_closed_form_long_run_on_weak_noise(tmp_path, capsys):
    # pairs 1..58 of complete60 at 2.5 with sigma_c ~ 7e-7: the closed
    # form agrees with the generic route instead of refusing
    indices = list(range(1, 59))
    cfg = write_cfg(tmp_path, f"""\
[graph]
type = complete
n = 60

[platoon]
d = 3

[noise]
g = 0.1
tau = 0.01
beta = 2

[query]
epsilon = 0.1
c = 2

[scenario]
indices = {indices}
states = 2.5
""")
    rows = {}
    for method in ("closed-form", "generic"):
        assert main(["risk-profile", "--config", cfg,
                     "--method", method]) == 0
        rows[method] = parse_csv(capsys.readouterr().out)[2][-1]
    closed, generic = rows["closed-form"], rows["generic"]
    assert closed[:3] == generic[:3] == ["59", "0", "zero"]
    assert float(closed[3]) == 17.5
    assert abs(float(closed[3]) - float(generic[3])) <= 1e-12 * 17.5


def test_add_edge_baseline_matches_profile(tmp_path, capsys):
    cfg = write_cfg(tmp_path, PATH6)
    assert main(["add-edge", "--config", cfg, "--pair", "4"]) == 0
    schema, header, rows, _ = parse_csv(capsys.readouterr().out)
    assert schema == "add_edge/v1"
    assert header == ["target", "risk", "stable"]
    assert rows[0][0] == "0" and rows[0][2] == "1"
    assert main(["risk-profile", "--config", cfg]) == 0
    profile = parse_csv(capsys.readouterr().out)[2]
    entry = next(r for r in profile if r[0] == "4")
    assert rows[0][1] == entry[1]
    # targets skip the queried pair's own vehicles (4 and 5)
    assert [r[0] for r in rows[1:]] == ["1", "2", "3", "6"]


def test_add_edge_destabilizing_targets(tmp_path, capsys):
    # with tau = 0.35 and beta = 0.5 the path of 6 is stable, but a link
    # from pair 4's vehicles to any other vehicle pushes a mode out of
    # the region: each target gets an empty risk and stable = 0
    cfg = write_cfg(tmp_path, PATH6.replace("tau = 0.03", "tau = 0.35")
                    .replace("beta = 2", "beta = 0.5")
                    .replace("indices = [3]", "indices = [2]"))
    assert main(["add-edge", "--config", cfg, "--pair", "4"]) == 0
    schema, header, rows, _ = parse_csv(capsys.readouterr().out)
    assert schema == "add_edge/v1"
    assert rows[0][0] == "0" and rows[0][2] == "1"
    # f is accurate to 1e-8, which moves this risk by under 5e-6 (risk + c)
    assert abs(float(rows[0][1]) - 0.17590627659760427) <= 5e-6 * 2.18
    assert rows[1:] == [["1", "", "0"], ["2", "", "0"], ["3", "", "0"],
                        ["6", "", "0"]]


def test_add_edge_refuses_failed_or_out_of_range_pair(tmp_path, capsys):
    # PATH6 has pair 3 failed and pairs 1..5
    cfg = write_cfg(tmp_path, PATH6)
    for pair, message in (("3", "queried pair 3 is already failed"),
                          ("0", "pair index 0 outside 1..5"),
                          ("6", "pair index 6 outside 1..5")):
        assert main(["add-edge", "--config", cfg, "--pair", pair]) == 1
        assert message in capsys.readouterr().err


def _pair_block_cond(graph, indices):
    sigma = steady_state_covariance(
        spectrum(laplacian(graph)), NoiseParams(g=0.1, tau=0.03, beta=2.0))
    idx = np.array(indices) - 1
    return float(np.linalg.cond(sigma.values[np.ix_(idx, idx)]))


def test_add_edge_refused_scenario(tmp_path, capsys, monkeypatch):
    # failures at pairs 2 and 3; which failed blocks are refused is set
    # through the condition-number limit
    cfg = write_cfg(tmp_path, PATH6.replace("indices = [3]",
                                            "indices = [2, 3]"))
    graph = build_path(6)
    base = _pair_block_cond(graph, (2, 3))
    # every two-failure block is refused: the baseline has no risk
    monkeypatch.setattr(cascade_risk.risk, "RCOND_MIN", 1.0)
    assert main(["add-edge", "--config", cfg, "--pair", "4"]) == 2
    assert "numerical error" in capsys.readouterr().err
    # the baseline's block passes, so do candidates that condition no
    # worse; the others get an empty risk and stay stable
    limit = base * (1.0 + 1e-9)
    monkeypatch.setattr(cascade_risk.risk, "RCOND_MIN", 1.0 / limit)
    assert main(["add-edge", "--config", cfg, "--pair", "4"]) == 0
    rows = parse_csv(capsys.readouterr().out)[2]
    assert rows[0][0] == "0" and rows[0][1] != "" and rows[0][2] == "1"
    refused = []
    for target, risk, stable in rows[1:]:
        cond = _pair_block_cond(add_pair_edges(graph, 4, int(target)),
                                (2, 3))
        assert stable == "1"
        assert (risk == "") == (cond > limit), (target, cond, limit)
        if risk == "":
            refused.append(target)
    assert refused and len(refused) < len(rows) - 1


@pytest.mark.parametrize("method", ["generic", "closed-form"])
def test_naive_column_is_profile_without_failures(tmp_path, capsys, method):
    # the naive_risk column of a scenario run is, to the byte, the risk
    # column of the same platoon with no [scenario]
    runs = {}
    for name, text in (("scenario", COMPLETE12),
                       ("none", COMPLETE12.split("[scenario]")[0])):
        cfg = write_cfg(tmp_path, text, f"{name}.cfg")
        assert main(["risk-profile", "--config", cfg,
                     "--method", method]) == 0
        runs[name] = parse_csv(capsys.readouterr().out)[2]
    assert [r[5] for r in runs["scenario"]].count("1") == 3
    assert [r[6] for r in runs["scenario"]] == [r[1] for r in runs["none"]]
    assert [r[6] for r in runs["none"]] == [r[1] for r in runs["none"]]


def test_simulate_subcommand(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SIM_SMALL)
    assert main(["simulate", "--config", cfg]) == 0
    schema, header, rows, trailers = parse_csv(capsys.readouterr().out)
    assert schema == "simulate/v1"
    assert header == ["i", "j", "analytic_sigma", "empirical_sigma", "se",
                      "z_score"]
    assert [(r[0], r[1]) for r in rows] == [("1", "1"), ("1", "2"), ("2", "2")]
    assert len(trailers) == 1 and trailers[0].startswith("max_abs_z=")
    reported = float(trailers[0].split("=", 1)[1])
    assert reported == max(abs(float(r[5])) for r in rows)


def test_simulate_seed_flag_changes_output(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SIM_SMALL)
    assert main(["simulate", "--config", cfg]) == 0
    base = capsys.readouterr().out
    assert main(["simulate", "--config", cfg, "--seed", "3"]) == 0
    assert capsys.readouterr().out == base     # same seed as [sim]
    assert main(["simulate", "--config", cfg, "--seed", "4"]) == 0
    assert capsys.readouterr().out != base


def _child_env():
    # the child imports the same package as this process, installed or not
    src = str(Path(cascade_risk.__file__).parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_module_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, PATH6)
    proc = subprocess.run(
        [sys.executable, "-m", "cascade_risk", "stability", "--config", cfg],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout.startswith("# schema=stability/v1\n")


def test_cli_import_loads_no_scipy():
    code = ("import sys, cascade_risk.cli; print(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout == "[]\n"


def test_cell_formatting():
    assert format_cell(None) == ""
    assert format_cell("finite") == "finite"
    assert format_cell(3) == "3"
    assert format_cell(np.int64(7)) == "7"
    assert format_cell(True) == "1"
    assert format_cell(math.inf) == "inf"
    assert format_cell(-math.inf) == "-inf"
    assert format_cell(math.nan) == "nan"
    assert format_cell(-0.0) == "-0"
    assert float(format_cell(0.1)) == 0.1
    assert float(format_cell(1.0 / 3.0)) == 1.0 / 3.0
    assert float(format_cell(5e-324)) == 5e-324


# What the row producers put in each column of each schema: integers,
# floats, or branch tags; "float?" columns also hold None (an empty
# risk). Written independently of the templates in cli.py.
_COLUMNS = {
    "stability": "k:int lambda:float s1:float s2:float bound:float "
                 "margin:float",
    "covariance": "i:int j:int sigma_ij:float",
    "risk_profile": "j:int risk:float? branch:tag mu_tilde:float? "
                    "sigma_tilde:float? is_failed:int naive_risk:float",
    "simulate": "i:int j:int analytic_sigma:float empirical_sigma:float "
                "se:float z_score:float",
    "sweep_scale": "m:int j:int risk:float?",
    "sweep_sparsity": "s:int avg_risk:float inf_fraction:float "
                      "n_patterns:int exact:int",
    "add_edge": "target:int risk:float? stable:int",
}

_EDGE_FLOATS = (math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e308,
                -1e308, 2.2250738585072014e-308, 0.1, 1.0 / 3.0)
_float_cell = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.sampled_from(_EDGE_FLOATS).map(np.float64),
    st.floats(),
    st.floats().map(np.float64))
_CELLS = {
    "int": st.one_of(st.integers(),
                     st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
                     st.booleans()),
    "float": _float_cell,
    "float?": st.one_of(st.none(), _float_cell),
    "tag": st.one_of(st.sampled_from(("zero", "finite", "infinite",
                                      "error")),
                     st.text(st.characters(exclude_characters=",\n\r"))),
}


def _columns(schema):
    return [column.split(":") for column in _COLUMNS[schema].split()]


@st.composite
def _table(draw):
    schema = draw(st.sampled_from(sorted(_COLUMNS)))
    row = st.tuples(*(_CELLS[kind] for _, kind in _columns(schema)))
    rows = draw(st.lists(row, max_size=6))
    trailers = draw(st.lists(st.sampled_from(("stable=1", "max_abs_z=2.5")),
                             max_size=2))
    return schema, rows, trailers


def _oracle_csv(schema, rows, trailers):
    header = ",".join(name for name, _ in _columns(schema))
    lines = [f"# schema={schema}/v1", header]
    lines += [",".join(format_cell(cell) for cell in row) for row in rows]
    lines += [f"# {trailer}" for trailer in trailers]
    return "\n".join(lines) + "\n"


def test_cell_oracle_covers_every_schema():
    assert set(_COLUMNS) == set(_SCHEMAS)


@settings(max_examples=200, deadline=None)
@given(table=_table())
def test_render_csv_matches_cell_oracle(table):
    schema, rows, trailers = table
    expected = _oracle_csv(schema, rows, trailers)
    assert render_csv(schema, rows, trailers) == expected
    assert render_csv(schema, (row for row in rows), trailers) == expected


@pytest.mark.parametrize("schema", sorted(
    schema for schema, columns in _COLUMNS.items() if "?" in columns))
def test_render_csv_empty_cell_in_each_nullable_column(schema):
    columns = _columns(schema)
    filled = tuple({"int": np.int64(4), "float": -0.0, "float?": 5e-324,
                    "tag": "finite"}[kind] for _, kind in columns)
    rows = [filled]
    for at, (_, kind) in enumerate(columns):
        if kind == "float?":
            rows.append(filled[:at] + (None,) + filled[at + 1:])
    rows.append(tuple(None if kind == "float?" else cell
                      for (_, kind), cell in zip(columns, filled)))
    assert render_csv(schema, rows) == _oracle_csv(schema, rows, ())


def test_render_csv_refuses_mistyped_row():
    with pytest.raises(TypeError):
        render_csv("covariance", [(1, "x", 0.5)])
    with pytest.raises(ValueError):
        render_csv("sweep_scale", [(1, None)])


def test_render_csv_layout():
    text = render_csv("sweep_scale", [(0, 1, math.inf), (0, 2, None)],
                      trailers=("note=x",))
    assert text == ("# schema=sweep_scale/v1\n"
                    "m,j,risk\n"
                    "0,1,inf\n"
                    "0,2,\n"
                    "# note=x\n")


@st.composite
def _package_covariances(draw):
    """steady_state_covariance on a random connected weighted graph of
    up to 12 vehicles, with tau and beta inside the stability region."""
    n = draw(st.integers(2, 12))
    weight = st.floats(0.1, 3.0)
    edges = {(draw(st.integers(1, i - 1)), i): draw(weight)
             for i in range(2, n + 1)}
    for a, b in draw(st.lists(st.tuples(st.integers(1, n),
                                        st.integers(1, n)), max_size=n)):
        if a != b:
            edges[min(a, b), max(a, b)] = draw(weight)
    spec = spectrum(laplacian(build_custom(
        n, [(a, b, w) for (a, b), w in edges.items()])))
    tau = draw(st.floats(0.05, 0.9)) * (math.pi / 2) / spec.eigenvalues[-1]
    beta = (draw(st.floats(0.05, 0.9))
            * region_bound(spec.eigenvalues[1:] * tau).min() / tau)
    return steady_state_covariance(spec, NoiseParams(0.1, tau, beta))


@st.composite
def _one_by_one(draw):
    return CovarianceMatrix(np.array([[draw(st.floats(5e-324, 1e300))]]))


@st.composite
def _nextafter_lower(draw):
    """A hand-built matrix whose drawn lower entries are one ulp off
    their mirror, inside the 1e-12 symmetry tolerance."""
    n = draw(st.integers(2, 6))
    a = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n * n,
                               max_size=n * n))).reshape(n, n)
    v = a @ a.T + n * np.eye(n)
    v = 0.5 * (v + v.T)
    lower = st.integers(1, n - 1).flatmap(
        lambda i: st.tuples(st.just(i), st.integers(0, i - 1)))
    for i, j in draw(st.lists(lower, min_size=1)):
        v[i, j] = np.nextafter(v[j, i], draw(st.sampled_from((-1.0, 1.0)))
                               * math.inf)
    return CovarianceMatrix(v)


@st.composite
def _signed_zeros(draw):
    """A diagonal matrix whose off-diagonal zeros are 0.0 or -0.0,
    drawn independently on either side."""
    n = draw(st.integers(2, 6))
    v = np.diag(draw(st.lists(st.floats(1e-3, 1e3), min_size=n,
                              max_size=n)))
    signs = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    off = ~np.eye(n, dtype=bool) & np.array(signs).reshape(n, n)
    v[off] = -0.0
    return CovarianceMatrix(v)


def _cell_rows(sigma):
    return [(i, j, value)
            for i, row in enumerate(sigma.values.tolist(), start=1)
            for j, value in enumerate(row, start=1)]


@settings(max_examples=150, deadline=None)
@given(sigma=st.one_of(_package_covariances(), _one_by_one(),
                       _nextafter_lower(), _signed_zeros()))
def test_covariance_csv_matches_cell_oracle(sigma):
    # the body formats each entry of the symmetric matrix once; every
    # cell still reads as `%.17g` of its own value, bit for bit
    assert (render_csv("covariance", covariance_rows(sigma))
            == _oracle_csv("covariance", _cell_rows(sigma), ()))


def test_covariance_bytes_deterministic_and_match_cell_oracle(tmp_path,
                                                              capsys):
    cfg = write_cfg(tmp_path, PATH6.replace("type = path\nn = 6",
                                            "type = pcycle\nn = 200\np = 3"))
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["covariance", "--config", cfg, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert main(["covariance", "--config", cfg]) == 0
    outputs.append(capsys.readouterr().out.encode("utf-8"))
    sigma = steady_state_covariance(spectrum(laplacian(build_pcycle(200, 3))),
                                    NoiseParams(0.1, 0.03, 2.0))
    expected = _oracle_csv("covariance", _cell_rows(sigma), ()).encode("utf-8")
    assert outputs == [expected] * 3
