import importlib
import inspect
import re
from pathlib import Path

import cascade_risk


def test_all_lists_each_public_name_once():
    names = cascade_risk.__all__
    assert len(names) == len(set(names))
    public = {name for name, value in vars(cascade_risk).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(names) == public


def test_readme_names_exist():
    # each bullet of "What's inside" names its modules before " - " and
    # then functions and classes, each of which one of them must define
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
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
