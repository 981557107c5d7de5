"""Run configuration: sectioned key-value text with JSON-style values.

Format, one `key = value` per line under `[section]` headers:

    [graph]
    type = complete
    n = 50

    [scenario]
    indices = [23, 24, 25, 26, 27]
    states = 0

Values are parsed as JSON where possible (numbers, arrays), otherwise
kept as bare strings. Full-line comments start with `#`; inline
comments are not supported. Errors carry the offending line number.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

from .covariance import NoiseParams, PlatoonParams
from .errors import ConfigError
from .graph import (WeightedGraph, build_complete, build_custom, build_path,
                    build_pcycle)
from .risk import FailureScenario
from .simulate import SimConfig

_SECTIONS = ("graph", "platoon", "noise", "query", "scenario", "sim",
             "experiment")
_HEADER_RE = re.compile(r"^\[([a-z_]+)\]$")
_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*$")


@dataclass
class RawConfig:
    """Parsed sections: section -> key -> (value, line number)."""

    sections: dict = field(default_factory=dict)
    path: str = "<config>"

    def has(self, section: str, key: str) -> bool:
        return key in self.sections.get(section, {})

    def get(self, section: str, key: str, default=None):
        entry = self.sections.get(section, {}).get(key)
        return default if entry is None else entry[0]

    def line_of(self, section: str, key: str):
        entry = self.sections.get(section, {}).get(key)
        return None if entry is None else entry[1]

    def require(self, section: str, key: str):
        if section not in self.sections:
            raise self.error(f"missing [{section}] section (need key {key!r})")
        if key not in self.sections[section]:
            raise self.error(f"missing key {key!r} in [{section}]")
        return self.sections[section][key][0]

    def error(self, message: str, section: str | None = None,
              key: str | None = None) -> ConfigError:
        """ConfigError naming this file and, for a key, the line of its
        value."""
        line = None if key is None else self.line_of(section, key)
        return ConfigError(message, line, self.path)


def parse_config(text: str, path: str = "<config>") -> RawConfig:
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        header = _HEADER_RE.match(line)
        if header:
            name = header.group(1)
            if name not in _SECTIONS:
                raise ConfigError(
                    f"unknown section [{name}]; expected one of "
                    f"{', '.join(_SECTIONS)}", lineno, path)
            current = sections.setdefault(name, {})
            continue
        if current is None:
            raise ConfigError("key outside any [section]", lineno, path)
        if "=" not in line:
            raise ConfigError(f"expected `key = value`, got {line!r}",
                              lineno, path)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"invalid key name {key!r}", lineno, path)
        if key in current:
            raise ConfigError(f"duplicate key {key!r}", lineno, path)
        if not value:
            raise ConfigError(f"empty value for key {key!r}", lineno, path)
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value  # bare string, e.g. graph type names
        current[key] = (parsed, lineno)
    return RawConfig(sections, path)


def load_config(path: str) -> RawConfig:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(
            f"not UTF-8 text: byte 0x{data[exc.start]:02x} at offset "
            f"{exc.start}", line, path) from None
    return parse_config(text, path)


def _as_int(cfg: RawConfig, section: str, key: str, value, what=None):
    """value, which must be a JSON integer; `what` names it in the error
    (default: the key)."""
    what = what or f"key {key!r} in [{section}]"
    if isinstance(value, bool) or not isinstance(value, int):
        raise cfg.error(f"{what} must be an integer, got {value!r}",
                        section, key)
    return value


def _as_number(cfg: RawConfig, section: str, key: str, value, what=None):
    """value as a float; it must be a finite JSON number. `what` as in
    _as_int."""
    what = what or f"key {key!r} in [{section}]"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise cfg.error(f"{what} must be a number, got {value!r}",
                        section, key)
    if not math.isfinite(value):
        raise cfg.error(f"{what} must be finite", section, key)
    return float(value)


def build_graph(cfg: RawConfig) -> WeightedGraph:
    kind = cfg.require("graph", "type")
    n = _as_int(cfg, "graph", "n", cfg.require("graph", "n"))
    if kind == "complete":
        return build_complete(n)
    if kind == "path":
        return build_path(n)
    if kind == "pcycle":
        p = _as_int(cfg, "graph", "p", cfg.require("graph", "p"))
        return build_pcycle(n, p)
    if kind == "custom":
        edges = cfg.require("graph", "edges")
        if not isinstance(edges, list):
            raise cfg.error("key 'edges' must be a JSON array of "
                            "[i, j] or [i, j, weight] triples",
                            "graph", "edges")
        by_pair = {}
        for e in edges:
            if not isinstance(e, list) or len(e) not in (2, 3):
                raise cfg.error(f"bad edge entry {e!r}", "graph", "edges")
            i, j = (_as_int(cfg, "graph", "edges", v,
                            f"endpoint of edge {e!r}") for v in e[:2])
            w = 1.0 if len(e) == 2 else _as_number(
                cfg, "graph", "edges", e[2], f"weight of edge {e!r}")
            pair = (min(i, j), max(i, j))
            if pair in by_pair:
                raise cfg.error(f"edge {e!r} repeats the edge {pair}",
                                "graph", "edges")
            by_pair[pair] = (i, j, w)
        return build_custom(n, by_pair.values())
    raise cfg.error(f"unknown graph type {kind!r}; expected complete, "
                    f"path, pcycle, or custom", "graph", "type")


def build_platoon(cfg: RawConfig) -> PlatoonParams:
    n = _as_int(cfg, "graph", "n", cfg.require("graph", "n"))
    d = _as_number(cfg, "platoon", "d", cfg.require("platoon", "d"))
    return PlatoonParams(n, d)


def build_noise(cfg: RawConfig) -> NoiseParams:
    return NoiseParams(
        g=_as_number(cfg, "noise", "g", cfg.require("noise", "g")),
        tau=_as_number(cfg, "noise", "tau", cfg.require("noise", "tau")),
        beta=_as_number(cfg, "noise", "beta", cfg.require("noise", "beta")))


def build_query(cfg: RawConfig) -> tuple:
    eps = _as_number(cfg, "query", "epsilon", cfg.require("query", "epsilon"))
    c = _as_number(cfg, "query", "c", cfg.require("query", "c"))
    return eps, c


def build_scenario(cfg: RawConfig) -> FailureScenario:
    """Scenario from [scenario]; missing section means no failures.
    A scalar `states` value is broadcast to every failed pair."""
    if "scenario" not in cfg.sections or not cfg.has("scenario", "indices"):
        return FailureScenario((), ())
    indices = cfg.get("scenario", "indices")
    if isinstance(indices, int):
        indices = [indices]
    if not isinstance(indices, list) or \
            not all(isinstance(i, int) and not isinstance(i, bool)
                    for i in indices):
        raise cfg.error("key 'indices' must be an integer or an array "
                        "of integers", "scenario", "indices")
    states = cfg.get("scenario", "states")
    if states is None:
        raise cfg.error("scenario with indices needs a 'states' value",
                        "scenario", "indices")
    states = scenario_state_values(cfg, len(indices))
    return FailureScenario(tuple(indices), tuple(states))


def scenario_state_values(cfg: RawConfig, m: int | None) -> list:
    """States broadcast to m entries, each a finite number; a scalar or
    a one-entry array repeats, a longer array must match. m None is for
    the sweeps, which place their own failures: one value, returned in a
    list of one."""
    states = cfg.require("scenario", "states")
    if not isinstance(states, list):
        states = [states]
    values = [_as_number(cfg, "scenario", "states", s) for s in states]
    if len(values) == 1:
        return values * (m or 1)
    if m is None:
        raise cfg.error(f"'states' has {len(values)} entries but the sweep "
                        f"subcommands take one state value for every "
                        f"failure", "scenario", "states")
    if len(values) != m:
        raise cfg.error(f"'states' has {len(values)} entries but the "
                        f"scenario has {m} failed pairs",
                        "scenario", "states")
    return values


def build_sim(cfg: RawConfig, seed_override=None) -> SimConfig:
    sec = cfg.sections.get("sim", {})
    kwargs = {}
    if "dt" in sec:
        kwargs["dt"] = _as_number(cfg, "sim", "dt", sec["dt"][0])
    if "burn_in" in sec:
        kwargs["burn_in"] = _as_number(cfg, "sim", "burn_in", sec["burn_in"][0])
    if "sample_interval" in sec:
        kwargs["sample_interval"] = _as_number(
            cfg, "sim", "sample_interval", sec["sample_interval"][0])
    if "samples_per_trial" in sec:
        kwargs["samples_per_trial"] = _as_int(
            cfg, "sim", "samples_per_trial", sec["samples_per_trial"][0])
    if "trials" in sec:
        kwargs["trials"] = _as_int(cfg, "sim", "trials", sec["trials"][0])
    kwargs["seed"] = resolve_seed(cfg, seed_override)
    return SimConfig(**kwargs)


def resolve_seed(cfg: RawConfig, seed_override=None) -> int:
    """Seed for seeded runs: --seed flag wins, then [sim] seed, then 0.
    It must lie in 0 <= seed < 2**64, the range of numpy's SeedSequence."""
    if seed_override is not None:
        seed = int(seed_override)
        if not 0 <= seed < 2 ** 64:
            raise ConfigError(f"seed {seed} must be in 0 .. 2**64 - 1")
    elif cfg.has("sim", "seed"):
        seed = _as_int(cfg, "sim", "seed", cfg.get("sim", "seed"))
        if not 0 <= seed < 2 ** 64:
            raise cfg.error(f"seed {seed} must be in 0 .. 2**64 - 1",
                            "sim", "seed")
    else:
        return 0
    return seed


def experiment_option(cfg: RawConfig, key: str, default: int) -> int:
    if not cfg.has("experiment", key):
        return default
    value = _as_int(cfg, "experiment", key, cfg.get("experiment", key))
    if value < 1:
        raise cfg.error(f"key {key!r} in [experiment] must be >= 1",
                        "experiment", key)
    return value
