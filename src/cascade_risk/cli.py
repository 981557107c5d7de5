"""Command-line front end.

Every subcommand reads a sectioned config file, runs one analysis, and
emits a versioned CSV to stdout or --out. The library hands numbers: a
stability report, risk profiles, covariances, and the experiments'
rows. This module alone shapes them into rows and trailers and writes
them as text. Exit codes: 0 success, 1 usage, validation or
configuration error, 2 numerical failure (margin below the
near-boundary limit, a scenario that cannot be conditioned, a risk that
overflows, a simulated chain with no stationary law or a non-finite
estimate).
"""
from __future__ import annotations

import argparse
import itertools
import os
import re
import sys
from collections.abc import Iterator

import numpy as np

from . import __version__
from .closed_form import complete_profile
from .config import (RawConfig, build_experiment, build_gap, build_graph,
                     build_noise, build_query, build_scenario, build_sim,
                     load_config, resolve_seed, scenario_state_values)
from .covariance import (complete_graph_sigma_c, steady_state_covariance)
from .errors import CascadeRiskError, InvalidQueryError, NumericalError
from .experiments import (add_edge_rows, sweep_scale_rows,
                          sweep_sparsity_rows)
from .graph import _eig, _spectrum, laplacian
from .risk import FailureScenario, risk_profile
from .simulate import _pool, _samples
from .stability import _report

# schema -> (header, row template). The template joins one printf spec
# per column, so a row renders with one `%`; a nan cell (a missing
# value) renders as an empty field.
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

# A nan field of a CSV line; the first field, a row index, never is.
# %.17g prints every nan, of either sign, as "nan"
_NAN_FIELD = re.compile(r",nan(?=[,\n])")


def render_csv(schema: str, rows, trailers=()) -> str:
    """Versioned CSV text: schema line, header, one line per row tuple
    of `rows` (an iterable, read once), then `# trailer` lines."""
    header, template = _SCHEMAS[schema]
    lines = [template % row for row in rows]
    lines.append("")  # ends the last row with a newline
    return (f"# schema={schema}/v1\n" + ",".join(header) + "\n"
            + _NAN_FIELD.sub(",", "\n".join(lines))
            + "".join(f"# {trailer}\n" for trailer in trailers))


def _array_csv(schema: str, values: np.ndarray, first: int) -> Iterator[str]:
    """The CSV of a 2-D array: the `render_csv` header, then the lines
    `i,j,value`, one text piece per array row, with i counted from
    `first` and j from 1; value is `%.17g` of that entry's own float, and
    nan an empty field. Only one row is rendered at a time, so the text
    is never held whole."""
    yield render_csv(schema, ())
    # "@" stands for the row label; the rest of the template is fixed
    template = "".join(f"@,{j},%.17g\n"
                       for j in range(1, values.shape[1] + 1))
    for i, row in enumerate(values, start=first):
        yield _NAN_FIELD.sub(
            ",", template.replace("@", str(i)) % tuple(row.tolist()))


def _emit(pieces, out: str | None) -> None:
    """Write the CSV text pieces in order, as they arrive; a str is one
    piece."""
    if isinstance(pieces, str):
        pieces = (pieces,)
    if out is None or out == "-":
        try:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader stopped early (`| head`): send what is left,
            # and the interpreter's last flush, to the null device
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)


def _spectrum_of(cfg: RawConfig):
    """The spectrum of the configured graph's Laplacian. The graph is
    freed once its Laplacian exists, so the eigendecomposition runs with
    one dense input alive; the Laplacian, built by the package from a
    checked graph, is not checked again."""
    return _spectrum(laplacian(build_graph(cfg)))


def cmd_stability(cfg: RawConfig, args) -> str:
    # the region test reads eigenvalues alone: no eigenvector is built
    eigenvalues = _eig(np.linalg.eigvalsh, laplacian(build_graph(cfg)))
    noise = build_noise(cfg)
    report = _report(eigenvalues[1:], noise.tau, noise.beta)
    # one row per oscillatory mode, k counted from 2; the bound is nan
    # where s1 already falls outside (0, pi/2)
    rows = zip(itertools.count(2), report.eigenvalues.tolist(),
               report.s1.tolist(), itertools.repeat(report.s2),
               report.bound.tolist(), report.margin.tolist())
    return render_csv("stability", rows,
                      [f"stable={1 if report.stable else 0}"])


def cmd_covariance(cfg: RawConfig, args) -> Iterator[str]:
    spec = _spectrum_of(cfg)
    sigma = steady_state_covariance(spec, build_noise(cfg))
    return _array_csv("covariance", sigma.values, 1)


def _is_complete(graph) -> bool:
    """True for the unit-weight clique: every link present, weight 1.
    Every graph's diagonal is zero, by WeightedGraph's check or by its
    builder, so counting the unit weights decides it."""
    return np.count_nonzero(graph.weights == 1.0) == graph.n * (graph.n - 1)


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
        # the graph is freed once its Laplacian exists, and the
        # Laplacian once its spectrum does: eigh and the covariance
        # product run beside only the arrays they read
        L = laplacian(graph)
        del graph
        spec = _spectrum(L)
        del L
        sigma = steady_state_covariance(spec, noise)

        def profile(s):
            return risk_profile(sigma, s, d, c, epsilon)
    # the no-failure column is the profile of the empty scenario, by
    # the same route
    found, baseline = profile(scenario), profile(FailureScenario((), ()))
    rows = zip(found.j.tolist(), found.risk.tolist(), found.branch.tolist(),
               found.mu_tilde.tolist(), found.sigma_tilde.tolist(),
               found.failed.tolist(), baseline.risk.tolist())
    return render_csv("risk_profile", rows)


def cmd_simulate(cfg: RawConfig, args) -> str:
    # one Laplacian and one spectrum serve the analytic covariance and
    # the stepper, and the covariance's stability gate serves both
    L = laplacian(build_graph(cfg))
    spec = _spectrum(L)
    noise = build_noise(cfg)
    d = build_gap(cfg)
    analytic = steady_state_covariance(spec, noise)
    empirical = _pool(_samples(L, spec, d, noise,
                               build_sim(cfg, args.seed)))
    # the upper triangle row by row; z is the difference over its
    # standard error, or where that is 0, 0 if the two agree, else inf
    i, j = np.triu_indices(analytic.dim)
    ana = analytic.values[i, j]
    emp = empirical.cov[i, j]
    err = empirical.standard_errors[i, j]
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(err > 0.0, (emp - ana) / err,
                     np.where(emp == ana, 0.0, np.inf))
    max_abs_z = float(np.abs(z).max(initial=0.0))
    rows = zip((i + 1).tolist(), (j + 1).tolist(), ana.tolist(),
               emp.tolist(), err.tolist(), z.tolist())
    return render_csv("simulate", rows, [f"max_abs_z={max_abs_z:.17g}"])


def cmd_sweep_scale(cfg: RawConfig, args) -> Iterator[str]:
    spec = _spectrum_of(cfg)
    noise = build_noise(cfg)
    d = build_gap(cfg)
    epsilon, c = build_query(cfg)
    state = scenario_state_values(cfg, None)[0]
    sigma = steady_state_covariance(spec, noise)
    value = sweep_scale_rows(sigma, d, c, epsilon, args.max_m, state)
    return _array_csv("sweep_scale", value, 0)


def cmd_sweep_sparsity(cfg: RawConfig, args) -> str:
    spec = _spectrum_of(cfg)
    noise = build_noise(cfg)
    d = build_gap(cfg)
    epsilon, c = build_query(cfg)
    state = scenario_state_values(cfg, None)[0]
    sigma = steady_state_covariance(spec, noise)
    rows = sweep_sparsity_rows(
        sigma, d, c, epsilon, args.m, state,
        seed=resolve_seed(cfg, args.seed), **build_experiment(cfg))
    return render_csv("sweep_sparsity", rows)


def cmd_add_edge(cfg: RawConfig, args) -> str:
    graph = build_graph(cfg)
    noise = build_noise(cfg)
    d = build_gap(cfg)
    epsilon, c = build_query(cfg)
    scenario = build_scenario(cfg)
    rows = add_edge_rows(graph, d, noise, epsilon, c, scenario, args.pair)
    return render_csv("add_edge", rows)


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

    def common(p, run, seed=False):
        p.set_defaults(run=run)
        p.add_argument("--config", required=True,
                       help="path to the run configuration file")
        p.add_argument("--out", default=None,
                       help="output CSV path (default: stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the seed from [sim]")

    common(sub.add_parser("stability",
                          help="per-mode stability report"), cmd_stability)
    common(sub.add_parser("covariance",
                          help="steady-state distance covariance"),
           cmd_covariance)
    p = sub.add_parser("risk-profile",
                       help="risk of every pair under the scenario")
    common(p, cmd_risk_profile)
    p.add_argument("--method", choices=("generic", "closed-form"),
                   default="generic",
                   help="conditioning route (closed-form requires the "
                        "complete graph)")
    common(sub.add_parser("simulate",
                          help="Monte Carlo check of the analytic covariance"),
           cmd_simulate, seed=True)
    p = sub.add_parser("sweep-scale",
                       help="risk vs number of leading failures")
    common(p, cmd_sweep_scale)
    p.add_argument("--max-m", type=int, required=True, dest="max_m",
                   help="largest failure count (failures occupy pairs 1..m)")
    p = sub.add_parser("sweep-sparsity",
                       help="average risk vs failure-pattern sparsity")
    common(p, cmd_sweep_sparsity, seed=True)
    p.add_argument("--m", type=int, required=True,
                   help="number of failed pairs in every pattern")
    p = sub.add_parser("add-edge",
                       help="risk of one pair after linking it to each "
                            "candidate vehicle")
    common(p, cmd_add_edge)
    p.add_argument("--pair", type=int, required=True,
                   help="queried pair index")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        _emit(args.run(cfg, args), args.out)
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
