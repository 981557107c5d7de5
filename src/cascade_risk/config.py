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
comments are not supported. Each section takes the keys of `_KEYS`
and no other. Errors carry the offending line number.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .covariance import _NOISE_RULES, NoiseParams
from .errors import (ConfigError, InvalidParameterError, InvalidQueryError,
                     InvalidSizeError)
from .experiments import _SWEEP_RULES
from .graph import (WeightedGraph, _real, _seed, build_complete,
                    build_custom, build_path, build_pcycle)
from .risk import FailureScenario, _epsilon, _offset
from .simulate import _SIM_RULES, SimConfig

# section -> the keys it takes; any other section or key is refused
_KEYS = {
    "graph": ("type", "n", "p", "edges"),
    "platoon": ("d",),
    "noise": tuple(_NOISE_RULES),
    "query": ("epsilon", "c"),
    "scenario": ("indices", "states"),
    "sim": tuple(_SIM_RULES),
    "experiment": tuple(_SWEEP_RULES),
}
_HEADER_RE = re.compile(r"^\[([a-z_]+)\]$")


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
            if name not in _KEYS:
                raise ConfigError(
                    f"unknown section [{name}]; expected one of "
                    f"{', '.join(_KEYS)}", lineno, path)
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
        if key not in _KEYS[name]:
            raise ConfigError(
                f"unknown key {key!r} in [{name}]; expected one of "
                f"{', '.join(_KEYS[name])}", lineno, path)
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
    # a byte-order mark, as some Windows editors write, is not text
    return parse_config(text.removeprefix("\ufeff"), path)


def _on_line(cfg: RawConfig, section: str, key: str, rule, value):
    """rule(value), the library's check of the key's value, with a
    refusal put on the key's line."""
    try:
        return rule(value)
    except (InvalidParameterError, InvalidQueryError) as exc:
        raise cfg.error(str(exc), section, key) from None


def build_graph(cfg: RawConfig) -> WeightedGraph:
    """The [graph] section's graph, n, p and the edges as they stand in
    the file. A refusal of the vehicle count names the `n` line, any
    other refusal of the builder the `p` or `edges` line."""
    kind = cfg.require("graph", "type")
    n = cfg.require("graph", "n")
    try:
        if kind == "complete":
            return build_complete(n)
        if kind == "path":
            return build_path(n)
        if kind == "pcycle":
            return build_pcycle(n, cfg.require("graph", "p"))
        if kind == "custom":
            return build_custom(n, _edge_list(cfg))
    except InvalidSizeError as exc:
        raise cfg.error(str(exc), "graph", "n") from None
    except InvalidParameterError as exc:
        key = "p" if kind == "pcycle" else "edges"
        raise cfg.error(str(exc), "graph", key) from None
    raise cfg.error(f"unknown graph type {kind!r}; expected complete, "
                    f"path, pcycle, or custom", "graph", "type")


def _edge_list(cfg: RawConfig) -> list:
    """[graph] edges as [i, j, weight] entries, an omitted weight padded
    to 1.0; build_custom checks the endpoints and weights."""
    edges = cfg.require("graph", "edges")
    if not isinstance(edges, list):
        raise cfg.error("key 'edges' must be a JSON array of "
                        "[i, j] or [i, j, weight] triples",
                        "graph", "edges")
    for e in edges:
        if not isinstance(e, list) or len(e) not in (2, 3):
            raise cfg.error(f"bad edge entry {e!r}", "graph", "edges")
    return [e if len(e) == 3 else [*e, 1.0] for e in edges]


def build_gap(cfg: RawConfig) -> float:
    """The target gap d of [platoon], checked as the risk routines check
    it; a refusal names the `d` line."""
    return _on_line(cfg, "platoon", "d",
                    lambda d: _real(d, "target gap d", positive=True),
                    cfg.require("platoon", "d"))


def build_noise(cfg: RawConfig) -> NoiseParams:
    """[noise] by NoiseParams' rules; a refusal names the refused key's
    line."""
    return NoiseParams(**{
        key: _on_line(cfg, "noise", key, rule, cfg.require("noise", key))
        for key, rule in _NOISE_RULES.items()})


def build_query(cfg: RawConfig) -> tuple:
    """epsilon and c of [query] by the risk routines' rules; a refusal
    names the refused key's line."""
    return (_on_line(cfg, "query", "epsilon", _epsilon,
                     cfg.require("query", "epsilon")),
            _on_line(cfg, "query", "c", _offset, cfg.require("query", "c")))


def build_scenario(cfg: RawConfig) -> FailureScenario:
    """Scenario from [scenario]; missing section means no failures.
    A scalar `indices` or `states` value stands for an array of one, and
    a scalar `states` value is broadcast to every failed pair. A refusal
    of the indices by FailureScenario names the `indices` line."""
    if not cfg.has("scenario", "indices"):
        return FailureScenario((), ())
    indices = cfg.get("scenario", "indices")
    if not isinstance(indices, list):
        indices = [indices]
    if cfg.get("scenario", "states") is None:
        raise cfg.error("scenario with indices needs a 'states' value",
                        "scenario", "indices")
    states = scenario_state_values(cfg, len(indices))
    return _on_line(cfg, "scenario", "indices",
                    lambda i: FailureScenario(i, states), indices)


def scenario_state_values(cfg: RawConfig, m: int | None) -> list:
    """States broadcast to m entries, each a finite number; a scalar or
    a one-entry array repeats, a longer array must match. m None is for
    the sweeps, which place their own failures: one value, returned in a
    list of one."""
    states = cfg.require("scenario", "states")
    if not isinstance(states, list):
        states = [states]
    values = _on_line(
        cfg, "scenario", "states",
        lambda v: [_real(s, "key 'states' in [scenario]") for s in v], states)
    if len(values) == 1:
        return values * (1 if m is None else m)
    if m is None:
        raise cfg.error(f"'states' has {len(values)} entries but the sweep "
                        f"subcommands take one state value for every "
                        f"failure", "scenario", "states")
    if len(values) != m:
        raise cfg.error(f"'states' has {len(values)} entries but the "
                        f"scenario has {m} failed pairs",
                        "scenario", "states")
    return values


def _present(cfg: RawConfig, section: str, rules: dict) -> dict:
    """The keys of `rules` that the section sets, each value checked by
    its rule; a refusal names the refused key's line."""
    return {key: _on_line(cfg, section, key, rule, cfg.get(section, key))
            for key, rule in rules.items() if cfg.has(section, key)}


def build_sim(cfg: RawConfig, seed_override=None) -> SimConfig:
    """[sim] by SimConfig's rules; a refusal names the refused key's
    line. Keys left out take SimConfig's defaults."""
    # the seed is resolve_seed's: a --seed flag wins over the file's
    kwargs = _present(cfg, "sim", {key: rule for key, rule in
                                   _SIM_RULES.items() if key != "seed"})
    kwargs["seed"] = resolve_seed(cfg, seed_override)
    return SimConfig(**kwargs)


def resolve_seed(cfg: RawConfig, seed_override=None) -> int:
    """Seed for seeded runs: --seed flag wins, then [sim] seed, then 0.
    It must lie in 0 <= seed < 2**64, the range of numpy's SeedSequence."""
    if seed_override is not None:
        return _seed(seed_override, ConfigError)
    if cfg.has("sim", "seed"):
        return _on_line(cfg, "sim", "seed", _seed, cfg.get("sim", "seed"))
    return 0


def build_experiment(cfg: RawConfig) -> dict:
    """The [experiment] keys the file sets, as sweep_sparsity_rows
    keywords checked by its rules; a refusal names the refused key's
    line. Keys left out take sweep_sparsity_rows' defaults."""
    return _present(cfg, "experiment", _SWEEP_RULES)
