import argparse
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cascade_risk
import cascade_risk.cli as cli_module
import cascade_risk.graph as graph_module
import cascade_risk.stability as stability_module
from cascade_risk import (CovarianceMatrix, NoiseParams, build_complete,
                          build_custom, build_path, build_pcycle,
                          check_platoon, laplacian, region_bound, spectrum,
                          steady_state_covariance)
from cascade_risk.cli import (_SCHEMAS, _array_csv, _is_complete,
                              build_parser, main, render_csv)
from cascade_risk.config import (build_gap, build_graph, build_noise,
                                 build_scenario, load_config)
from cascade_risk.risk import iota
from cascade_risk.simulate import EmpiricalCovariance

from oracles import (add_pair_edges, format_cell, simulate_rows_reference,
                     var_risk_scalar)
from test_risk import _rounding_scales

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
    # a misspelled key is refused, not read as a scenario without
    # failures
    cfg = write_cfg(tmp_path, PATH6.replace("indices", "index"))
    assert main(["risk-profile", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cascade-risk: line 18: unknown key 'index'")
    # the simulator has no burn-in: a config that still sets one is
    # refused on its line
    cfg = write_cfg(tmp_path, SIM_SMALL.replace("dt = 0.001\n",
                                                "dt = 0.001\nburn_in = 6\n"))
    assert main(["simulate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cascade-risk: line 15: unknown key 'burn_in' "
                          "in [sim]")
    assert err.count("\n") == 1
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


@pytest.mark.parametrize("argv", [
    ["stability"], ["covariance"], ["risk-profile"],
    ["sweep-scale", "--max-m", "1"], ["sweep-sparsity", "--m", "1"],
    ["add-edge", "--pair", "1"], ["simulate"],
], ids=lambda argv: argv[0])
def test_degree_overflow_is_one_line(tmp_path, capsys, argv):
    # finite weights whose degree overflows: every job that builds the
    # Laplacian refuses it where the degree is summed, in one line and
    # with no RuntimeWarning (an error under this suite's filter)
    cfg = write_cfg(tmp_path, PATH6.replace(
        "type = path\nn = 6",
        "type = custom\nn = 3\nedges = [[1, 2, 1e308], [1, 3, 1e308]]"
    ).replace("indices = [3]", "indices = [2]"))
    assert main([*argv, "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cascade-risk: matrix entries must be finite\n"


def test_vehicle_count_beyond_float_range_exit_code(tmp_path, capsys):
    # refused by the count rule, not a traceback from formatting n
    cfg = write_cfg(tmp_path, PATH6.replace("n = 6", "n = 1" + "0" * 400))
    assert main(["stability", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cascade-risk: line 3: vehicle count 1000")
    assert "not finite" in err


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


@pytest.mark.parametrize("command", ["stability", "risk-profile"])
def test_config_with_byte_order_mark(tmp_path, capsys, command):
    # a UTF-8 byte-order mark, as Windows Notepad saves one, reads as
    # the same file without it
    plain = DEMO_CONFIGS / "path20.cfg"
    bom = tmp_path / "bom.cfg"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert main([command, "--config", str(plain)]) == 0
    expected = capsys.readouterr().out
    assert main([command, "--config", str(bom)]) == 0
    assert capsys.readouterr().out == expected


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


@pytest.mark.parametrize("noise, code", [
    ("tau = 0.05", 1),                                     # unstable
    (f"beta = {(region_bound(1.5) - 5e-7) / 0.03!r}", 2),  # margin 5e-7
], ids=["unstable", "near-boundary"])
def test_methods_refuse_alike(tmp_path, capsys, noise, code):
    # both methods put f through the one gate of the stability report,
    # so they refuse a complete platoon with the same line and exit code
    key = noise.split(" = ")[0]
    text = (DEMO_CONFIGS / "complete50.cfg").read_text()
    cfg = write_cfg(tmp_path, re.sub(rf"(?m)^{key} = .*$", noise, text))
    refusals = []
    for method in ("closed-form", "generic"):
        refusals.append((main(["risk-profile", "--config", cfg,
                               "--method", method]),
                         capsys.readouterr().err))
    assert refusals[0] == refusals[1]
    assert refusals[0][0] == code


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


def test_sweep_scale_refusal_writes_nothing(tmp_path, capsys):
    # the whole sweep is computed before any output: a refused max_m
    # (exit 1) or overflowed moments (exit 2) print no header to stdout
    # and create no --out file
    out = tmp_path / "scale.csv"
    for text, max_m, code in (
            (PATH6, "9", 1),
            (PATH6.replace("states = 0", "states = 1e308"), "3", 2)):
        cfg = write_cfg(tmp_path, text)
        assert main(["sweep-scale", "--config", cfg, "--max-m", max_m]) \
            == code
        assert main(["sweep-scale", "--config", cfg, "--max-m", max_m,
                     "--out", str(out)]) == code
        assert capsys.readouterr().out == ""
        assert not out.exists()


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


# key -> a config whose "@" stands for the key's value, 3 a valid one,
# and the subcommand that reads it
INTEGER_KEYS = {
    "n": (PATH6.replace("n = 6", "n = @"), ["stability"]),
    "p": (PATH6.replace("type = path\nn = 6",
                        "type = pcycle\nn = 7\np = @"), ["stability"]),
    "endpoint": (PATH6.replace("type = path\nn = 6", "type = custom\nn = 3\n"
                               "edges = [[1, 2], [2, @]]"), ["stability"]),
    "indices": (PATH6.replace("indices = [3]", "indices = [@]"),
                ["risk-profile"]),
    "trials": (SIM_SMALL.replace("trials = 4", "trials = @"), ["simulate"]),
    "samples_per_trial": (SIM_SMALL.replace("samples_per_trial = 10",
                                            "samples_per_trial = @"),
                          ["simulate"]),
    "seed": (SIM_SMALL.replace("seed = 3", "seed = @"), ["simulate"]),
    "enum_cap": (PATH6 + "\n[experiment]\nenum_cap = @\nsample_count = 5\n",
                 ["sweep-sparsity", "--m", "2"]),
    "sample_count": (PATH6 + "\n[experiment]\nenum_cap = 1\n"
                     "sample_count = @\n", ["sweep-sparsity", "--m", "2"]),
}


@pytest.mark.parametrize("key", INTEGER_KEYS)
def test_integer_keys_follow_the_library_rule(tmp_path, capsys, key):
    # one integer rule for every integer key: an integer or an integral
    # float, never a bool or a string, refused on the key's line
    text, argv = INTEGER_KEYS[key]
    line = next(i for i, ln in enumerate(text.splitlines(), start=1)
                if "@" in ln)
    outputs = []
    for value in ("3", "3.0"):
        out = tmp_path / f"{value}.csv"
        cfg = write_cfg(tmp_path, text.replace("@", value))
        assert main(argv + ["--config", cfg, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    for value in ("2.5", "true", '"x"'):
        cfg = write_cfg(tmp_path, text.replace("@", value))
        assert main(argv + ["--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cascade-risk: line {line}: ")
        assert "is not an integer" in err


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


@pytest.mark.parametrize("argv", [
    ["risk-profile"], ["add-edge", "--pair", "4"]],
    ids=["risk-profile", "add-edge"])
def test_empty_indices_take_a_scalar_state(tmp_path, capsys, argv):
    # a scalar state broadcasts to every failed pair, none included: the
    # run is, to the byte, the run of the same platoon with no [scenario]
    outputs = []
    for name, text in (("empty", PATH6.replace("indices = [3]",
                                               "indices = []")),
                       ("none", PATH6.split("[scenario]")[0])):
        cfg = write_cfg(tmp_path, text, f"{name}.cfg")
        assert main(argv + ["--config", cfg]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].err == ""


def _time_rescaled(text, graph, a):
    """The config `text` with its [graph] section replaced by the custom
    graph of `graph`'s links at a times their weight, tau by tau / a and
    beta by a beta."""
    edges = [[i + 1, j + 1, graph.weights[i, j].item() * a]
             for i, j in itertools.combinations(range(graph.n), 2)
             if graph.weights[i, j]]
    text = re.sub(r"(?s)\[graph\].*?\n\n",
                  f"[graph]\ntype = custom\nn = {graph.n}\n"
                  f"edges = {json.dumps(edges)}\n\n", text)
    text = re.sub(r"(?m)^tau = (.*)$",
                  lambda m: f"tau = {float(m[1]) / a!r}", text)
    return re.sub(r"(?m)^beta = (.*)$",
                  lambda m: f"beta = {float(m[1]) * a!r}", text)


@pytest.mark.parametrize("a", [0.25, 4.0, 3.0])
@pytest.mark.parametrize("name", ["path6", "complete12"])
def test_cli_time_rescaling_law(tmp_path, capsys, name, a):
    # link weights x a, tau / a and beta x a leave s1 = lambda tau,
    # s2 = beta tau and the eigenvectors as they are and scale the
    # prefactor g^2 tau^3 by a^-3: every covariance cell scales by a^-3
    # and the risk-profile mu_tilde column does not move, and the
    # complete graph's closed form, which does not read the scale of
    # Sigma, gives that column too. Where a^(-3/2) is a power of two
    # (a = 1/4, 4) and tau^3 scales exactly, the law holds bit for bit
    # on the generic route; at a = 3 within c n eps max|Sigma| for the
    # covariance and c n eps cond of test_risk's rounding scales for
    # mu_tilde, as is the closed form at every a, with c = 16 (c = 1.2,
    # 0.32 and 0.072 measured)
    text = {"path6": PATH6, "complete12": COMPLETE12}[name]
    base = write_cfg(tmp_path, text, "base.cfg")
    loaded = load_config(base)
    graph, noise = build_graph(loaded), build_noise(loaded)
    scaled = write_cfg(tmp_path, _time_rescaled(text, graph, a),
                       "scaled.cfg")

    def column(cfg, argv, name):
        assert main([*argv, "--config", cfg]) == 0
        _, header, rows, _ = parse_csv(capsys.readouterr().out)
        at = header.index(name)
        return [row[:2] for row in rows], np.array(
            [float(row[at] or "nan") for row in rows])

    keys, sigma = column(base, ["covariance"], "sigma_ij")
    scaled_keys, got = column(scaled, ["covariance"], "sigma_ij")
    assert scaled_keys == keys
    _, mu = column(base, ["risk-profile"], "mu_tilde")
    _, got_mu = column(scaled, ["risk-profile"], "mu_tilde")
    closed = []
    if name == "complete12":
        closed = [column(base, ["risk-profile", "--method", "closed-form"],
                         "mu_tilde")[1]]
    assert np.array_equal(np.isnan(got_mu), np.isnan(mu))
    exact = (a in (0.25, 4.0)
             and (noise.tau / a) ** 3 == noise.tau ** 3 * a ** -3)
    if exact:
        assert np.array_equal(got, sigma * a ** -3)
        assert np.array_equal(got_mu, mu, equal_nan=True)
    else:
        want = sigma * a ** -3
        assert (np.abs(got - want).max()
                <= 16 * graph.n * np.finfo(float).eps * np.abs(want).max())
    covariance = steady_state_covariance(spectrum(laplacian(graph)), noise)
    scenario = build_scenario(loaded)
    mean_scale, _, cond = _rounding_scales(covariance, scenario,
                                           build_gap(loaded))
    tol = 16 * graph.n * np.finfo(float).eps * cond * mean_scale
    for values in [got_mu, *closed]:
        assert np.array_equal(np.isnan(values), np.isnan(mu))
        live = ~np.isnan(mu)
        assert np.all(np.abs(values - mu)[live] <= tol[live])


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
    assert capsys.readouterr().err == (
        f"cascade-risk: numerical error: failed-block covariance condition "
        f"number {base:.3g} exceeds 1e+00\n")
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


@pytest.mark.parametrize("zero_se", [False, True])
def test_simulate_csv_matches_loop_reference(tmp_path, capsys, monkeypatch,
                                             zero_se):
    # the comparison of one numpy expression against the loop over
    # entries it replaced, on the covariances the job itself built: cell
    # for cell, bit for bit, and the max_abs_z trailer. With zero_se two
    # entries lose their standard error, one beside a differing estimate
    # (z = inf) and one beside an equal one (z = 0)
    seen = {}

    def covariance(*args):
        seen["analytic"] = steady_state_covariance(*args)
        return seen["analytic"]

    def pool(samples):
        empirical = real_pool(samples)
        if zero_se:
            cov = empirical.cov.copy()
            se = empirical.standard_errors.copy()
            se[0, 1] = se[1, 0] = se[1, 1] = 0.0
            cov[1, 1] = seen["analytic"].values[1, 1]
            empirical = EmpiricalCovariance(
                empirical.mean, cov, se, empirical.sample_count,
                empirical.mean_standard_errors)
        seen["empirical"] = empirical
        return empirical

    real_pool = cli_module._pool
    monkeypatch.setattr(cli_module, "steady_state_covariance", covariance)
    monkeypatch.setattr(cli_module, "_pool", pool)
    cfg = write_cfg(tmp_path, SIM_SMALL)
    assert main(["simulate", "--config", cfg]) == 0
    _, _, rows, trailers = parse_csv(capsys.readouterr().out)
    expected, max_abs_z = simulate_rows_reference(seen["analytic"],
                                                  seen["empirical"])
    assert rows == [[format_cell(cell) for cell in row] for row in expected]
    assert trailers == [f"max_abs_z={max_abs_z:.17g}"]
    assert (max_abs_z == math.inf) == zero_se
    if zero_se:
        assert [row[5] for row in rows] == [rows[0][5], "inf", "0"]


def test_simulate_divergence_exit_code(tmp_path, capsys):
    # stable, but the Euler-Maruyama chain at dt = tau has no stationary
    # law: a numerical failure, exit 2, not a validation error
    cfg = write_cfg(tmp_path, """\
[graph]
type = complete
n = 10

[platoon]
d = 3

[noise]
g = 0.1
tau = 0.1
beta = 5

[sim]
dt = 0.1
sample_interval = 0.1
samples_per_trial = 2
trials = 2
""")
    assert main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cascade-risk: numerical error: the chain of the "
                          "mode with eigenvalue 10 has no stationary law at "
                          "dt=0.1")
    assert err.count("\n") == 1


@pytest.mark.parametrize("key, value, what", [
    ("samples_per_trial", "1000000000000", "sample array"),
    ("dt", "1e-300", "state history"),      # ~3e298 delay steps
    ("dt", "1e-320", "state history"),      # tau / dt overflows to inf
    ("sample_interval", "1e300", "step count"),   # 1e303 steps a sample
    # 1e12 trials, not 1e11: the state history must exceed the address
    # space, so that no overcommitting host can hand it out
    ("trials", "1000000000000", "state history"),
])
def test_simulate_refuses_arrays_beyond_memory(tmp_path, capsys, key, value,
                                               what):
    # the arrays are allocated before one stream per trial is spawned,
    # and a size numpy cannot allocate, or a step count range cannot
    # hold, is one typed refusal
    text = (DEMO_CONFIGS / "simulate_path5.cfg").read_text()
    text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
    assert main(["simulate", "--config", write_cfg(tmp_path, text)]) == 1
    err = capsys.readouterr().err
    assert err == (f"cascade-risk: n=5 vehicles: the simulator's {what} "
                   f"does not fit in memory\n")


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


@pytest.mark.parametrize("top", ["scipy", "concurrent", "statistics"])
def test_cli_import_loads_no_unused_module(top):
    # iota's NormalDist is imported where it runs, so stability and
    # covariance never load it
    code = ("import sys, cascade_risk.cli; print(sorted("
            f"m for m in sys.modules if m.split('.')[0] == {top!r}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout == "[]\n"


def test_simulate_loads_no_thread_pool(tmp_path):
    # the noise helper is a plain thread: simulate loads neither
    # concurrent.futures nor the logging and queue that it imports
    cfg = DEMO_CONFIGS / "simulate_path5.cfg"
    code = ("import sys\n"
            "from cascade_risk.cli import main\n"
            f"code = main(['simulate', '--config', {str(cfg)!r}, "
            f"'--out', {str(tmp_path / 'simulate.csv')!r}])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] "
            "in ('concurrent', 'logging', 'queue')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout == "0 []\n"


def test_cell_formatting():
    with pytest.raises(TypeError):
        format_cell(None)
    assert format_cell("finite") == "finite"
    assert format_cell(3) == "3"
    assert format_cell(np.int64(7)) == "7"
    assert format_cell(True) == "1"
    assert format_cell(math.inf) == "inf"
    assert format_cell(-math.inf) == "-inf"
    assert format_cell(math.nan) == ""
    assert format_cell(-np.float64(math.nan)) == ""
    assert format_cell(-0.0) == "-0"
    assert float(format_cell(0.1)) == 0.1
    assert float(format_cell(1.0 / 3.0)) == 1.0 / 3.0
    assert float(format_cell(5e-324)) == 5e-324


# What the row producers put in each column of each schema: integers,
# floats, or branch tags. Any float may be nan, a missing value, which
# renders as an empty field. Written independently of the templates in
# cli.py.
_COLUMNS = {
    "stability": "k:int lambda:float s1:float s2:float bound:float "
                 "margin:float",
    "covariance": "i:int j:int sigma_ij:float",
    "risk_profile": "j:int risk:float branch:tag mu_tilde:float "
                    "sigma_tilde:float is_failed:int naive_risk:float",
    "simulate": "i:int j:int analytic_sigma:float empirical_sigma:float "
                "se:float z_score:float",
    "sweep_scale": "m:int j:int risk:float",
    "sweep_sparsity": "s:int avg_risk:float inf_fraction:float "
                      "n_patterns:int exact:int",
    "add_edge": "target:int risk:float stable:int",
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
    # a tag never reads "nan", the text of a missing value
    "tag": st.one_of(st.sampled_from(("zero", "finite", "infinite",
                                      "error")),
                     st.text(st.characters(exclude_characters=",\n\r"))
                     .filter(lambda tag: tag != "nan")),
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


@pytest.mark.parametrize("schema", sorted(_COLUMNS))
def test_render_csv_empty_cell_in_each_nullable_column(schema):
    # a nan in each float column alone, then in every float column at
    # once: adjacent nan fields (risk_profile's mu_tilde and
    # sigma_tilde) and a nan in the last column (naive_risk) included
    columns = _columns(schema)
    filled = tuple({"int": np.int64(4), "float": -0.0,
                    "tag": "finite"}[kind] for _, kind in columns)
    rows = [filled]
    for at, (_, kind) in enumerate(columns):
        if kind == "float":
            rows.append(filled[:at] + (math.nan,) + filled[at + 1:])
    rows.append(tuple(np.float64(-math.nan) if kind == "float" else cell
                      for (_, kind), cell in zip(columns, filled)))
    text = render_csv(schema, rows)
    assert text == _oracle_csv(schema, rows, ())
    assert "nan" not in text


def test_render_csv_refuses_mistyped_row():
    # a string where a number goes, None (a missing value is nan) and a
    # short row
    for row in ((1, "x", 0.5), (1, 2, None), (1, 0.5)):
        with pytest.raises(TypeError):
            render_csv("covariance", [row])


def test_render_csv_layout():
    text = render_csv("sweep_scale", [(0, 1, math.inf), (0, 2, math.nan)],
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
    # every cell reads as `%.17g` of its own value, bit for bit, also
    # where a lower entry differs from its mirror (-0.0, one ulp off)
    assert ("".join(_array_csv("covariance", sigma.values, 1))
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
    # one piece per matrix row, holding that row's lines only
    header, *pieces = _array_csv("covariance", sigma.values, 1)
    assert header == render_csv("covariance", ())
    assert len(pieces) == sigma.dim
    for i, piece in enumerate(pieces, start=1):
        assert all(line.startswith(f"{i},")
                   for line in piece.splitlines())


def test_covariance_rendering_memory_is_bounded(tmp_path):
    # the body is rendered one matrix row at a time, never held whole:
    # the traced peak while writing stays far below the body's size
    sigma = steady_state_covariance(spectrum(laplacian(build_pcycle(300, 3))),
                                    NoiseParams(0.1, 0.03, 2.0))
    out = tmp_path / "body.csv"
    tracemalloc.start()
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(_array_csv("covariance", sigma.values, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size / 20


# the traced peak each job may reach, in n^2 doubles
_SPECTRUM_JOB_PEAK = {"covariance": 4.5, "stability": 2.5,
                      "risk-profile": 4.5}


@pytest.mark.parametrize("command", _SPECTRUM_JOB_PEAK)
def test_spectrum_job_memory_is_bounded(tmp_path, command):
    # the graph is freed before the eigendecomposition: what is traced
    # at the covariance's peak is the Laplacian and numpy's eigh
    # workspace (4.28 n^2 doubles); stability builds no eigenvector, and
    # its peak is the builder's weights beside the Laplacian built from
    # them (2.08 n^2; 3.06 while the builder's weights were checked
    # again and copied); risk-profile frees its graph once the Laplacian
    # exists and the Laplacian once the spectrum does, so it peaks as
    # covariance does (4.06 n^2; 5.06 while the graph was kept)
    n = 300
    cfg = write_cfg(tmp_path, PATH6.replace(
        "type = path\nn = 6", f"type = pcycle\nn = {n}\np = 3"))
    tracemalloc.start()
    try:
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "out.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _SPECTRUM_JOB_PEAK[command] * n * n * 8


def test_add_edge_memory_is_bounded(tmp_path):
    # each candidate's weight copy is freed once its Laplacian exists,
    # its Laplacian once its spectrum does and its covariance once the
    # pair risk is read, and the baseline covariance is not kept: each
    # eigh runs beside the graph and its own Laplacian alone (5.64 n^2
    # doubles traced; 8.61 while the baseline covariance, the previous
    # candidate's covariance and the weight copy were kept)
    n = 120
    cfg = write_cfg(tmp_path, PATH6.replace("n = 6", f"n = {n}"))
    tracemalloc.start()
    try:
        assert main(["add-edge", "--pair", "60", "--config", cfg,
                     "--out", str(tmp_path / "out.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.0 * n * n * 8


def test_simulate_builds_one_spectrum(tmp_path, monkeypatch):
    # one Laplacian, one eigendecomposition of it and one stability
    # report serve the analytic covariance and the stepper; the
    # stepper's stationary law takes eigh of small per-mode matrices,
    # which are not counted
    n = 4
    counts = {"laplacian": 0, "eigen": 0, "report": 0}
    build = graph_module._laplacian
    report = stability_module._report

    def counted_laplacian(w):
        counts["laplacian"] += 1
        return build(w)

    def counted_report(*args):
        counts["report"] += 1
        return report(*args)

    def counted(solver):
        def solve(a, *args, **kwargs):
            if np.shape(a) == (n, n):
                counts["eigen"] += 1
            return solver(a, *args, **kwargs)
        return solve

    monkeypatch.setattr(graph_module, "_laplacian", counted_laplacian)
    monkeypatch.setattr(stability_module, "_report", counted_report)
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name,
                            counted(getattr(np.linalg, name)))
    cfg = write_cfg(tmp_path, SIM_SMALL.replace("n = 3", f"n = {n}"))
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "out.csv")]) == 0
    assert counts == {"laplacian": 1, "eigen": 1, "report": 1}


def test_stability_builds_no_eigenvectors(tmp_path, monkeypatch):
    # the region test reads eigenvalues alone, so the job never calls
    # eigh
    def eigh(*args, **kwargs):
        raise AssertionError("stability computed eigenvectors")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    cfg = write_cfg(tmp_path, PATH6)
    assert main(["stability", "--config", cfg,
                 "--out", str(tmp_path / "out.csv")]) == 0


_PCYCLE500 = PATH6.replace("type = path\nn = 6",
                           "type = pcycle\nn = 500\np = 3")
_STABILITY_CASES = {
    **{path.stem: path.read_text()
       for path in sorted(DEMO_CONFIGS.glob("*.cfg"))},
    "pcycle500": _PCYCLE500,
    # its top modes fall outside the region: empty bounds, -inf margins
    "pcycle500_tau0.2": _PCYCLE500.replace("tau = 0.03", "tau = 0.2"),
}


@pytest.mark.parametrize("name", _STABILITY_CASES)
def test_stability_rows_match_full_spectrum_route(tmp_path, name):
    # the eigenvalues-only job against the report of the full spectrum:
    # k, s2, every NaN (an empty cell) and -inf and the trailer agree
    # exactly, and every finite lambda, s1, bound and margin within
    # c n eps max|lambda| with c = 1. Each eigensolver moves an
    # eigenvalue by a small multiple of n eps max|lambda| (c = 0.23 at
    # most here); s1 = lambda tau and
    # |d bound / d s1| <= pi/2, so with tau pi/2 < 1 the other three
    # columns move less
    cfg = write_cfg(tmp_path, _STABILITY_CASES[name])
    out = tmp_path / "out.csv"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
    _, _, rows, trailers = parse_csv(out.read_text())
    loaded = load_config(cfg)
    graph, noise = build_graph(loaded), build_noise(loaded)
    assert noise.tau * math.pi / 2 < 1.0
    report = check_platoon(spectrum(laplacian(graph)), noise.tau,
                           noise.beta)
    assert trailers == [f"stable={1 if report.stable else 0}"]
    got = np.array([[cell or "nan" for cell in row] for row in rows],
                   dtype=float)
    modes = len(report.eigenvalues)
    want = np.column_stack((np.arange(2, modes + 2), report.eigenvalues,
                            report.s1, np.full(modes, report.s2),
                            report.bound, report.margin))
    assert got.shape == want.shape
    assert np.array_equal(got[:, [0, 3]], want[:, [0, 3]])
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(np.isinf(got), np.isinf(want))
    assert np.array_equal(got[np.isinf(got)], want[np.isinf(want)])
    tol = graph.n * np.finfo(float).eps * np.abs(want[:, 1]).max()
    finite = np.isfinite(want)
    assert np.all(np.abs(got[finite] - want[finite]) <= tol)


def test_completeness_check_counts_unit_weights():
    path = build_path(300)
    tracemalloc.start()
    try:
        assert not _is_complete(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * path.n * path.n * 8
    assert _is_complete(build_complete(5))
    # every link present, one of weight 2
    assert not _is_complete(build_custom(5, [
        (i, j, 2.0 if (i, j) == (2, 4) else 1.0)
        for j in range(2, 6) for i in range(1, j)]))


def _layout(text):
    """A CSV with each finite value read as "value": the schema, header,
    trailers and row keys as they stand, and every other cell as empty,
    inf, -inf or a branch tag."""
    schema, header, rows, trailers = parse_csv(text)
    keys = header.index("j") + 1
    return schema, header, trailers, [
        row[:keys] + [cell if cell == "" or cell.lstrip("-").isalpha()
                      else "value" for cell in row[keys:]]
        for row in rows]


def _at_one_and_two_threads(argv, cfg):
    """stdout of the subcommand at one and at two BLAS threads; the
    thread count is set in the child only."""
    outputs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "cascade_risk", *argv, "--config", cfg],
            capture_output=True, text=True,
            env={**_child_env(), "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0 and proc.stderr == ""
        outputs.append(proc.stdout)
    return outputs


def _sigma_cells(text):
    """The sigma_ij column of a covariance CSV, in row order."""
    return np.array([float(line.rpartition(",")[2])
                     for line in text.splitlines()[2:]])


@pytest.mark.parametrize("argv", [
    ["covariance"], ["risk-profile"], ["sweep-scale", "--max-m", "60"]],
    ids=["covariance", "risk-profile", "sweep-scale"])
def test_csv_layout_does_not_depend_on_blas_threads(tmp_path, argv):
    # blocked LAPACK and BLAS sum in an order set by the thread count,
    # so finite cells may move in their last digits between one and two
    # threads; the rows, the branch column and the empty and infinite
    # cells may not. At g = 5 the profile holds all three branches and
    # the sweep ~1600 infinite cells
    cfg = write_cfg(tmp_path, PATH6.replace("type = path\nn = 6",
                                            "type = pcycle\nn = 300\np = 3")
                    .replace("g = 0.1", "g = 5")
                    .replace("indices = [3]", "indices = [100, 101, 250]"))
    one, two = _at_one_and_two_threads(argv, cfg)
    assert _layout(one) == _layout(two)
    if argv == ["covariance"]:
        # each cell keeps within the README's bound, 64 n eps max|sigma|
        # (64 calibrated above the largest factor measured, 14.9), here
        # and on two more platoons at g = 0.1
        runs = [(300, one, two)] + [
            (n, *_at_one_and_two_threads(argv, write_cfg(
                tmp_path, PATH6.replace("type = path\nn = 6", graph),
                f"g01_{n}.cfg")))
            for n, graph in ((500, "type = pcycle\nn = 500\np = 3"),
                             (300, "type = path\nn = 300"))]
        for n, one, two in runs:
            sigma = _sigma_cells(one)
            bound = 64 * n * np.finfo(float).eps * np.abs(sigma).max()
            assert np.abs(_sigma_cells(two) - sigma).max() <= bound


def test_covariance_reader_that_stops_early_ends_quietly(tmp_path):
    # 2.6 MB of output, far above the pipe buffer: the reader closes the
    # pipe after two lines, and the run still exits 0 with no stderr
    cfg = write_cfg(tmp_path, PATH6.replace("type = path\nn = 6",
                                            "type = pcycle\nn = 300\np = 3"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cascade_risk", "covariance", "--config", cfg],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
    lines = [proc.stdout.readline(), proc.stdout.readline()]
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert lines == [b"# schema=covariance/v1\n", b"i,j,sigma_ij\n"]
    assert stderr == b""
