import numpy as np
import pytest

from cascade_risk import ConfigError, build_path
from cascade_risk.config import (build_experiment, build_gap, build_graph,
                                 build_noise, build_query, build_scenario,
                                 build_sim, load_config, parse_config,
                                 resolve_seed, scenario_state_values)

FULL = """\
# platoon under test
[graph]
type = complete
n = 50

[platoon]
d = 3

[noise]
g = 10
tau = 0.03
beta = 0.005

[query]
epsilon = 0.1
c = 2

[scenario]
indices = [23, 24, 25, 26, 27]
states = 0

[sim]
dt = 0.001
trials = 8
samples_per_trial = 20
seed = 7

[experiment]
enum_cap = 20
"""


def test_parse_full_config():
    cfg = parse_config(FULL)
    assert cfg.get("graph", "type") == "complete"
    assert cfg.get("graph", "n") == 50
    assert cfg.get("scenario", "indices") == [23, 24, 25, 26, 27]
    assert cfg.get("noise", "tau") == 0.03
    assert cfg.line_of("platoon", "d") == 7
    assert cfg.has("sim", "seed")
    assert not cfg.has("sim", "sample_interval")
    assert cfg.get("sim", "sample_interval", default=1.5) == 1.5


def test_parse_error_lines():
    with pytest.raises(ConfigError) as exc:
        parse_config("[rocket]\nfuel = 1\n")
    assert exc.value.line == 1
    assert "rocket" in str(exc.value)

    with pytest.raises(ConfigError) as exc:
        parse_config("# intro\nn = 50\n")
    assert exc.value.line == 2

    with pytest.raises(ConfigError) as exc:
        parse_config("[graph]\ntype complete\n")
    assert exc.value.line == 2

    with pytest.raises(ConfigError) as exc:
        parse_config("[graph]\n2type = complete\n")
    assert exc.value.line == 2

    # a key no code reads is refused, not silently ignored
    with pytest.raises(ConfigError) as exc:
        parse_config("[scenario]\nindex = [9, 10]\nstates = 0\n")
    assert exc.value.line == 2
    assert "unknown key 'index' in [scenario]" in str(exc.value)

    with pytest.raises(ConfigError) as exc:
        parse_config("[graph]\nn = 5\nn = 6\n")
    assert exc.value.line == 3

    with pytest.raises(ConfigError) as exc:
        parse_config("[graph]\nn =\n")
    assert exc.value.line == 2
    assert str(exc.value).startswith("line 2:")


def test_load_config_roundtrip(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(FULL)
    cfg = load_config(str(p))
    assert cfg.get("graph", "n") == 50
    assert cfg.path == str(p)


def test_build_graph_types():
    assert build_graph(parse_config("[graph]\ntype = complete\nn = 4\n")).n == 4
    g = build_graph(parse_config("[graph]\ntype = path\nn = 5\n"))
    assert np.array_equal(g.weights, build_path(5).weights)
    g = build_graph(parse_config("[graph]\ntype = pcycle\nn = 7\np = 2\n"))
    assert g.weights[0, 2] == 1.0 and g.weights[0, 3] == 0.0
    g = build_graph(parse_config(
        "[graph]\ntype = custom\nn = 3\nedges = [[1, 2], [2, 3, 2.5]]\n"))
    assert g.weights[0, 1] == 1.0 and g.weights[1, 2] == 2.5


def test_build_graph_errors():
    with pytest.raises(ConfigError) as exc:
        build_graph(parse_config("[graph]\ntype = star\nn = 4\n"))
    assert "star" in str(exc.value)
    with pytest.raises(ConfigError):
        build_graph(parse_config("[graph]\ntype = complete\nn = 4.5\n"))
    with pytest.raises(ConfigError):
        build_graph(parse_config("[graph]\ntype = complete\n"))
    with pytest.raises(ConfigError):
        build_graph(parse_config(
            "[graph]\ntype = custom\nn = 3\nedges = [[1, 2, 3, 4]]\n"))


@pytest.mark.parametrize("edges, words", [
    ('[[1, 2, "x"], [2, 3]]', "weight"),
    ('[["a", 2], [2, 3]]', "endpoint"),
    ("[[1.5, 2], [2, 3]]", "endpoint"),
    ("[[1, 2, true], [2, 3]]", "weight"),
    ("[[1, 2, NaN], [2, 3]]", "finite"),
    ("[[1, 2], [2, 3], [1, 2, 5]]", "repeats"),
    ("[[1, 2], [2, 3], [2, 1]]", "repeats"),
], ids=["str-weight", "str-endpoint", "float-endpoint", "bool-weight",
        "nan-weight", "repeated", "repeated-reversed"])
def test_build_graph_custom_edge_errors(edges, words):
    # edges follow the number and integer rules of every other key, and
    # an edge given twice is refused rather than taking the last weight
    with pytest.raises(ConfigError) as exc:
        build_graph(parse_config(
            f"[graph]\ntype = custom\nn = 3\nedges = {edges}\n"))
    assert exc.value.line == 4
    assert words in str(exc.value)


@pytest.mark.parametrize("text, line, words", [
    ("[graph]\ntype = path\nn = 1\n", 3, "at least 2 vehicles"),
    ("[graph]\ntype = pcycle\nn = 2\np = 1\n", 3, "at least 3 vehicles"),
    ("[graph]\ntype = pcycle\nn = 7\np = 5\n", 4, "p=5 outside 1..3"),
    ("[graph]\ntype = custom\nedges = [[1, 4], [2, 3]]\nn = 3\n", 3,
     "out of range"),
    ("[graph]\ntype = custom\nn = 4\nedges = [[1, 2], [3, 4]]\n", 4,
     "not connected"),
    ("[graph]\ntype = custom\nn = 1\nedges = []\n", 3,
     "at least 2 vehicles"),
    ("[graph]\ntype = path\nn = 10000000\n", 3, "does not fit in memory"),
    ("[graph]\ntype = complete\nn = 1e300\n", 3, "does not fit in memory"),
    ("[graph]\ntype = path\nn = 1" + "0" * 400 + "\n", 3, "not finite"),
], ids=["path-n", "pcycle-n", "pcycle-p", "custom-range",
        "custom-disconnected", "custom-n", "path-n-memory",
        "complete-n-memory", "path-n-float-range"])
def test_build_graph_refusals_name_the_line(text, line, words):
    # the builders' own refusals come back as config errors on the line
    # of n, or of p or edges
    with pytest.raises(ConfigError) as exc:
        build_graph(parse_config(text, "run.cfg"))
    assert exc.value.line == line and exc.value.path == "run.cfg"
    assert words in str(exc.value)


def test_build_gap_refuses_nonpositive_d():
    for d in ("0", "-3", "0.0"):
        with pytest.raises(ConfigError) as exc:
            build_gap(parse_config(f"[platoon]\n\nd = {d}\n", "run.cfg"))
        assert exc.value.line == 3 and exc.value.path == "run.cfg"
        assert "target gap" in str(exc.value)
    with pytest.raises(ConfigError):
        build_gap(parse_config("[platoon]\nd = NaN\n"))


def test_build_platoon_and_noise_and_query():
    cfg = parse_config(FULL)
    assert build_gap(cfg) == 3.0
    noise = build_noise(cfg)
    assert (noise.g, noise.tau, noise.beta) == (10.0, 0.03, 0.005)
    assert build_query(cfg) == (0.1, 2.0)
    with pytest.raises(ConfigError):
        build_noise(parse_config("[noise]\ng = 10\ntau = 0.03\n"))
    with pytest.raises(ConfigError):
        build_noise(parse_config(
            "[noise]\ng = true\ntau = 0.03\nbeta = 2\n"))


def test_build_scenario_broadcast():
    sc = build_scenario(parse_config(FULL))
    assert sc.indices == (23, 24, 25, 26, 27)
    assert sc.states == (0.0,) * 5

    sc = build_scenario(parse_config(
        "[scenario]\nindices = 4\nstates = [1.5]\n"))
    assert sc.indices == (4,) and sc.states == (1.5,)

    sc = build_scenario(parse_config(
        "[scenario]\nindices = [2, 5]\nstates = [0.5, 2.5]\n"))
    assert sc.states == (0.5, 2.5)


def test_build_scenario_empty():
    assert build_scenario(parse_config("[graph]\ntype = path\nn = 4\n")).m == 0
    assert build_scenario(parse_config("[scenario]\n")).m == 0


def test_build_scenario_errors():
    with pytest.raises(ConfigError):
        build_scenario(parse_config("[scenario]\nindices = [1, 2]\n"))
    with pytest.raises(ConfigError) as exc:
        build_scenario(parse_config(
            "[scenario]\nindices = [1, 2, 3]\nstates = [0, 0]\n"))
    assert "3 failed pairs" in str(exc.value)
    with pytest.raises(ConfigError):
        build_scenario(parse_config(
            "[scenario]\nindices = [1.5]\nstates = 0\n"))
    # FailureScenario's own refusals land on the indices line too
    for indices in ("[0, 1]", "[2, 1]", "[2, 2]"):
        with pytest.raises(ConfigError) as exc:
            build_scenario(parse_config(
                f"[scenario]\nindices = {indices}\nstates = 0\n"))
        assert exc.value.line == 2 and "pair indices" in str(exc.value)
    with pytest.raises(ConfigError):
        build_scenario(parse_config(
            "[scenario]\nindices = [1]\nstates = \"zero\"\n"))


def test_scenario_state_values():
    cfg = parse_config("[scenario]\nindices = [1, 2, 3]\nstates = 2\n")
    assert scenario_state_values(cfg, 3) == [2.0, 2.0, 2.0]
    cfg = parse_config("[scenario]\nindices = [1, 2]\nstates = [4]\n")
    assert scenario_state_values(cfg, 2) == [4.0, 4.0]


def test_scenario_state_values_rejects_bools():
    for states in ("true", "[true]", "[true, false]"):
        cfg = parse_config(
            f"[scenario]\nindices = [1, 2]\nstates = {states}\n")
        with pytest.raises(ConfigError) as exc:
            scenario_state_values(cfg, 2)
        assert exc.value.line == 3


def test_build_sim_defaults_and_seed():
    cfg = parse_config(FULL)
    sim = build_sim(cfg)
    assert sim.dt == 0.001 and sim.trials == 8
    assert sim.samples_per_trial == 20 and sim.seed == 7
    assert sim.sample_interval is None
    assert build_sim(cfg, seed_override=99).seed == 99
    empty = build_sim(parse_config("[graph]\ntype = path\nn = 3\n"))
    assert empty.dt == 1e-3 and empty.trials == 64 and empty.seed == 0


def test_resolve_seed_precedence():
    cfg = parse_config(FULL)
    assert resolve_seed(cfg) == 7
    assert resolve_seed(cfg, seed_override=3) == 3
    assert resolve_seed(parse_config("[graph]\ntype = path\nn = 3\n")) == 0
    # seeds must fit numpy's SeedSequence: 0 <= seed < 2**64
    top = parse_config(f"[sim]\nseed = {2 ** 64 - 1}\n")
    assert resolve_seed(top) == 2 ** 64 - 1
    assert resolve_seed(cfg, seed_override=2 ** 64 - 1) == 2 ** 64 - 1
    for bad in (-1, 2 ** 64):
        with pytest.raises(ConfigError) as exc:
            resolve_seed(parse_config(f"[graph]\nn = 3\n[sim]\nseed = {bad}\n"))
        assert exc.value.line == 4
        with pytest.raises(ConfigError):
            resolve_seed(cfg, seed_override=bad)
        with pytest.raises(ConfigError):
            build_sim(cfg, seed_override=bad)


def test_build_experiment():
    # only the keys the file sets, by sweep_sparsity_rows' rules; the
    # keys left out take its defaults
    assert build_experiment(parse_config(FULL)) == {"enum_cap": 20}
    assert build_experiment(parse_config("[graph]\ntype = path\nn = 3\n")) \
        == {}
    with pytest.raises(ConfigError) as exc:
        build_experiment(parse_config("[experiment]\n\nsample_count = 0\n"))
    assert exc.value.line == 3 and "sample_count=0 must be >= 1" in str(
        exc.value)
