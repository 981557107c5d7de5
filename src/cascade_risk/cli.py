"""Command-line front end.

Every subcommand reads a sectioned config file, runs one analysis, and
emits a versioned CSV to stdout or --out. Exit codes: 0 success, 1
usage, validation or configuration error, 2 numerical failure (margin
below the near-boundary limit, ill-conditioned scenario, diverging
simulation).
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .closed_form import complete_profile
from .config import (RawConfig, build_gap, build_graph, build_noise,
                     build_query, build_scenario, build_sim,
                     experiment_option, load_config, resolve_seed,
                     scenario_state_values)
from .covariance import (complete_graph_sigma_c, steady_state_covariance)
from .errors import CascadeRiskError, InvalidQueryError, NumericalError
from .experiments import (add_edge_rows, covariance_rows, profile_rows,
                          simulate_rows, stability_rows, sweep_scale_rows,
                          sweep_sparsity_rows)
from .graph import laplacian, spectrum
from .risk import FailureScenario, risk_profile
from .simulate import run
from .stability import check_platoon

# schema -> (header, row template). The template joins one printf spec
# per column, so a row renders with one `%`; a None cell (an empty risk)
# renders as an empty field.
_SCHEMAS = {
    "stability": (("k", "lambda", "s1", "s2", "bound", "margin"),
                  "%d,%.17g,%.17g,%.17g,%.17g,%.17g"),
    "covariance": (("i", "j", "sigma_ij"), "%d,%d,%.17g"),
    "risk_profile": (("j", "risk", "branch", "mu_tilde", "sigma_tilde",
                      "is_failed", "naive_risk"),
                     "%d,%.17g,%s,%.17g,%.17g,%d,%.17g"),
    "simulate": (("i", "j", "analytic_sigma", "empirical_sigma", "se",
                  "z_score"),
                 "%d,%d,%.17g,%.17g,%.17g,%.17g"),
    "sweep_scale": (("m", "j", "risk"), "%d,%d,%.17g"),
    "sweep_sparsity": (("s", "avg_risk", "inf_fraction", "n_patterns",
                        "exact"),
                       "%d,%.17g,%.17g,%d,%d"),
    "add_edge": (("target", "risk", "stable"), "%d,%.17g,%d"),
}


def render_csv(schema: str, rows, trailers=()) -> str:
    """Versioned CSV text: schema line, header, the body, then
    `# trailer` lines. `rows` is either an iterable of row tuples, read
    once and rendered one line each, or a body already rendered as text
    of newline-terminated lines (`covariance_rows`)."""
    header, template = _SCHEMAS[schema]
    if not isinstance(rows, str):
        lines = []
        for row in rows:
            try:
                lines.append(template % row)
            except TypeError:
                if None not in row:
                    raise
                lines.append(",".join(
                    "" if cell is None else spec % cell
                    for spec, cell in zip(template.split(","), row,
                                          strict=True)))
        lines.append("")  # ends the last row with a newline
        rows = "\n".join(lines)
    return (f"# schema={schema}/v1\n" + ",".join(header) + "\n" + rows
            + "".join(f"# {trailer}\n" for trailer in trailers))


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _spectrum_of(cfg: RawConfig):
    graph = build_graph(cfg)
    return graph, spectrum(laplacian(graph))


def cmd_stability(cfg: RawConfig, args) -> str:
    _, spec = _spectrum_of(cfg)
    noise = build_noise(cfg)
    rows, trailers = stability_rows(check_platoon(spec, noise.tau, noise.beta))
    return render_csv("stability", rows, trailers)


def cmd_covariance(cfg: RawConfig, args) -> str:
    _, spec = _spectrum_of(cfg)
    sigma = steady_state_covariance(spec, build_noise(cfg))
    return render_csv("covariance", covariance_rows(sigma))


def _is_complete(graph) -> bool:
    """True for the unit-weight clique: every link present, weight 1."""
    return np.array_equal(graph.weights, 1.0 - np.eye(graph.n))


def cmd_risk_profile(cfg: RawConfig, args) -> str:
    graph = build_graph(cfg)
    noise = build_noise(cfg)
    d = build_gap(cfg)
    epsilon, c = build_query(cfg)
    scenario = build_scenario(cfg)
    if args.method == "closed-form":
        if not _is_complete(graph):
            raise InvalidQueryError(
                "--method closed-form applies only to the complete graph; "
                "use --method generic for this topology")
        sigma_c = complete_graph_sigma_c(graph.n, noise)

        def profile(s):
            return complete_profile(graph.n, s, sigma_c, d, c, epsilon)
    else:
        sigma = steady_state_covariance(spectrum(laplacian(graph)), noise)

        def profile(s):
            return risk_profile(sigma, s, d, c, epsilon)
    rows = profile_rows(profile(scenario), profile(FailureScenario((), ())))
    return render_csv("risk_profile", rows)


def cmd_simulate(cfg: RawConfig, args) -> str:
    graph, spec = _spectrum_of(cfg)
    noise = build_noise(cfg)
    d = build_gap(cfg)
    analytic = steady_state_covariance(spec, noise)
    empirical = run(graph, d, noise, build_sim(cfg, args.seed))
    rows, trailers = simulate_rows(analytic, empirical)
    return render_csv("simulate", rows, trailers)


def cmd_sweep_scale(cfg: RawConfig, args) -> str:
    _, spec = _spectrum_of(cfg)
    noise = build_noise(cfg)
    d = build_gap(cfg)
    epsilon, c = build_query(cfg)
    state = scenario_state_values(cfg, None)[0]
    sigma = steady_state_covariance(spec, noise)
    rows = sweep_scale_rows(sigma, d, c, epsilon, args.max_m, state)
    return render_csv("sweep_scale", rows)


def cmd_sweep_sparsity(cfg: RawConfig, args) -> str:
    _, spec = _spectrum_of(cfg)
    noise = build_noise(cfg)
    d = build_gap(cfg)
    epsilon, c = build_query(cfg)
    state = scenario_state_values(cfg, None)[0]
    sigma = steady_state_covariance(spec, noise)
    rows = sweep_sparsity_rows(
        sigma, d, c, epsilon, args.m, state,
        seed=resolve_seed(cfg, args.seed),
        enum_cap=experiment_option(cfg, "enum_cap", 100_000),
        sample_count=experiment_option(cfg, "sample_count", 10_000))
    return render_csv("sweep_sparsity", rows)


def cmd_add_edge(cfg: RawConfig, args) -> str:
    graph = build_graph(cfg)
    noise = build_noise(cfg)
    d = build_gap(cfg)
    epsilon, c = build_query(cfg)
    scenario = build_scenario(cfg)
    rows = add_edge_rows(graph, d, noise, epsilon, c, scenario, args.pair)
    return render_csv("add_edge", rows)


_COMMANDS = {
    "stability": cmd_stability,
    "covariance": cmd_covariance,
    "risk-profile": cmd_risk_profile,
    "simulate": cmd_simulate,
    "sweep-scale": cmd_sweep_scale,
    "sweep-sparsity": cmd_sweep_sparsity,
    "add-edge": cmd_add_edge,
}


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1, since 2 is reserved
    for numerical failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cascade-risk",
        description="Cascading-collision risk analysis for noisy, "
                    "time-delayed vehicle platoons.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("--config", required=True,
                       help="path to the run configuration file")
        p.add_argument("--out", default=None,
                       help="output CSV path (default: stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the seed from [sim]")

    common(sub.add_parser("stability",
                          help="per-mode stability report"))
    common(sub.add_parser("covariance",
                          help="steady-state distance covariance"))
    p = sub.add_parser("risk-profile",
                       help="risk of every pair under the scenario")
    common(p)
    p.add_argument("--method", choices=("generic", "closed-form"),
                   default="generic",
                   help="conditioning route (closed-form requires the "
                        "complete graph)")
    common(sub.add_parser("simulate",
                          help="Monte Carlo check of the analytic covariance"),
           seed=True)
    p = sub.add_parser("sweep-scale",
                       help="risk vs number of leading failures")
    common(p)
    p.add_argument("--max-m", type=int, required=True, dest="max_m",
                   help="largest failure count (failures occupy pairs 1..m)")
    p = sub.add_parser("sweep-sparsity",
                       help="average risk vs failure-pattern sparsity")
    common(p, seed=True)
    p.add_argument("--m", type=int, required=True,
                   help="number of failed pairs in every pattern")
    p = sub.add_parser("add-edge",
                       help="risk of one pair after linking it to each "
                            "candidate vehicle")
    common(p)
    p.add_argument("--pair", type=int, required=True,
                   help="queried pair index")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        text = _COMMANDS[args.command](cfg, args)
        _emit(text, args.out)
    except NumericalError as exc:
        print(f"cascade-risk: numerical error: {exc}", file=sys.stderr)
        return 2
    except CascadeRiskError as exc:
        print(f"cascade-risk: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cascade-risk: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
