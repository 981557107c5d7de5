import importlib
import inspect
import re
from pathlib import Path

import cascade_risk
from cascade_risk.config import (_KEYS, build_gap, build_graph, build_noise,
                                 build_query, build_scenario, build_sim,
                                 parse_config)

README = Path(__file__).resolve().parent.parent / "README.md"


def test_all_lists_each_public_name_once():
    names = cascade_risk.__all__
    assert len(names) == len(set(names))
    public = {name for name, value in vars(cascade_risk).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(names) == public


def test_readme_names_exist():
    # each bullet of "What's inside" names its modules before " - " and
    # then functions and classes, each of which one of them must define
    readme = README.read_text()
    section = readme.split("## What's inside", 1)[1].split("\n## ", 1)[0]
    checked = 0
    for bullet in re.split(r"^- ", section, flags=re.M)[1:]:
        head, _, body = bullet.partition(" - ")
        modules = [importlib.import_module(f"cascade_risk.{name}")
                   for name in re.findall(r"`(\w+)`", head)]
        assert modules, bullet
        for name in re.findall(r"`([A-Za-z_]\w*)`", body):
            assert any(hasattr(module, name) for module in modules), name
            checked += 1
    assert checked >= 15


def test_readme_config_example_loads():
    # the README's ini block is a working config: every build_* reads it
    block = README.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(block, "README.md")
    assert build_graph(cfg).n == 10
    assert build_gap(cfg) == 3.0
    noise = build_noise(cfg)
    assert (noise.g, noise.tau, noise.beta) == (0.1, 0.03, 2.0)
    assert build_query(cfg) == (0.1, 2.0)
    scenario = build_scenario(cfg)
    assert scenario.indices == (4, 5) and scenario.states == (0.0, 0.0)
    sim = build_sim(cfg)
    assert (sim.dt, sim.trials, sim.seed) == (0.001, 64, 0)


def test_readme_lists_every_config_key():
    # one "- `[section]`: `key`, ..." line per section, in the order
    # config._KEYS holds them
    lines = re.finditer(r"^- `\[(\w+)\]`: (.*)$", README.read_text(),
                        flags=re.M)
    listed = {m[1]: tuple(re.findall(r"`(\w+)`", m[2])) for m in lines}
    assert listed == _KEYS
