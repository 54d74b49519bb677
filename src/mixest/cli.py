"""Command-line interface: solve, simulate, sweep-gamma, decoherence, selftest.

``solve`` and ``simulate --povm optimal`` take their measurement from
:func:`mixest.solve`; the CLI only loads and formats.

File formats
------------
Matrix JSON: ``{"dim": d, "re": [[...]], "im": [[...]]}`` (row-major).
Problem JSON: ``{"rho1": M, "rho2": M, "prior": P, "options": {...}}``;
no command reads ``options``.
Prior JSON: ``{"kind": "uniform"}``, ``{"kind": "trunc_reciprocal",
"t_bmax": x}`` or ``{"kind": "table", "lambda": [...], "density": [...]}``.
POVM JSON: ``{"effects": [M, ...]}``.

Exit codes: 0 on success, 2 on input errors (including files that cannot
be read or written, a negative seed for ``selftest``, a linear-algebra
routine that fails on the input, and a trial count too large to
allocate), 3 when no reduction yields a valid measurement.
stdout carries data only; diagnostics go to stderr.

``solve`` and ``decoherence`` print their record as one line of compact
JSON (``json.dumps`` without an indent, which runs CPython's C encoder);
pipe it through ``python3 -m json.tool`` to pretty-print it.  Both end
with ``q_star``, the Bayesian-SLD optimum of the problem, and ``gap``,
``q_star`` minus the score of the measurement printed; an unsolved
``solve`` record ends with ``q_star`` alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from .bayes import EstimationReport, Prior
from .errors import BadParameter, DimensionMismatch, EstimationError, ParseError, UnsolvedCase
from .highdim import solve
from .qubit import PlanarGeometry, optimal_alpha
from .simulate import (
    DecoherenceModel,
    SimulationSummary,
    _simulation_columns,
    run_simulation,
    solve_decay_estimation,
)
from .states import Povm, _trusted_states, validate_povm, validate_state, validate_states


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"dim": m.shape[0], "re": np.real(m).tolist(), "im": np.imag(m).tolist()}


def matrix_from_json(obj) -> np.ndarray:
    try:
        dim = obj["dim"]
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad matrix object: {exc}") from exc
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ParseError(f"matrix dim must be an integer, got {dim!r}")
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ParseError(f"matrix entries do not match dim={dim}")
    return re + 1j * im


def prior_from_json(obj) -> Prior:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError("prior JSON needs a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "uniform":
            return Prior.uniform()
        if kind == "trunc_reciprocal":
            return Prior.truncated_reciprocal(float(obj["t_bmax"]))
        if kind == "table":
            return Prior.from_table(obj["lambda"], obj["density"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad prior parameters: {exc}") from exc
    raise ParseError(f"unknown prior kind {kind!r}")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _prior_from_arg(arg: str | None) -> Prior | None:
    if arg is None:
        return None
    text = arg.strip()
    if text.startswith("{"):
        try:
            return prior_from_json(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ParseError(f"prior argument is not valid JSON: {exc}") from exc
    return prior_from_json(_load_json(arg))


def load_problem(path: str, prior_override: Prior | None = None):
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ParseError(f"{path} must hold a JSON object, not {type(obj).__name__}")
    try:
        rho1, rho2 = validate_states([matrix_from_json(obj["rho1"]), matrix_from_json(obj["rho2"])])
    except KeyError as exc:
        raise ParseError(f"problem file misses {exc}") from exc
    if rho1.dim != rho2.dim:
        raise DimensionMismatch(f"states have different dimensions {rho1.dim} vs {rho2.dim}")
    prior = prior_override or prior_from_json(obj.get("prior", {"kind": "uniform"}))
    options = obj.get("options", {})
    if not isinstance(options, dict):
        raise ParseError(f"problem 'options' must be a JSON object, not {type(options).__name__}")
    return rho1, rho2, prior, options


def load_povm(path: str) -> Povm:
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ParseError(f"{path} must hold a JSON object, not {type(obj).__name__}")
    if not isinstance(obj.get("effects"), list):
        raise ParseError("POVM file needs an 'effects' list")
    return validate_povm([matrix_from_json(e) for e in obj["effects"]])


def _report_json(kind: str, report: EstimationReport, extra: dict | None = None) -> dict:
    out = {
        "kind": kind,
        "positivity_ok": True,
        "degenerate": report.degenerate,
        "q_value": report.score.q_value,
        "mean_variance": report.score.mean_variance,
        "outcomes": [
            {
                "effect": matrix_to_json(e.matrix),
                "prob": o.prob,
                "estimate": o.estimate,
                "variance": o.variance,
                "never_occurs": o.never_occurs,
            }
            for e, o in zip(report.povm, report.score.per_outcome)
        ],
    }
    if report.alpha0 is not None:
        out["alpha0"] = report.alpha0
    if extra:
        out.update(extra)
    return out


def _summary_csv(summary: SimulationSummary) -> str:
    """Header and one row: the summary CSV of ``simulate`` and ``decoherence --out``."""
    return (
        "seed,n_trials,empirical_mse,analytic_mean_variance,std_error\n"
        f"{summary.seed},{summary.n_trials},{_fmt(summary.empirical_mse)},"
        f"{_fmt(summary.analytic_mean_variance)},{_fmt(summary.std_error)}\n"
    )


def _trials_csv(lam: np.ndarray, outcome: np.ndarray, estimates: np.ndarray, errors: np.ndarray) -> str:
    """The per-trial CSV of ``simulate --trials-out``, from the sampler's columns.

    Each outcome's index and estimate are formatted once and shared by
    every row with that outcome; the rest goes through one ``%`` pass,
    whose ``%.17g`` prints the same digits as :func:`_fmt`.
    """
    n = len(lam)
    by_outcome = [f"{m},{_fmt(x)}" for m, x in enumerate(estimates.tolist())]
    fields = [None] * (4 * n)
    fields[0::4] = range(n)
    fields[1::4] = lam.tolist()
    fields[2::4] = [by_outcome[m] for m in outcome.tolist()]
    fields[3::4] = errors.tolist()
    rows = ("%d,%.17g,%s,%.17g\n" * n) % tuple(fields)
    return "trial,true_lambda,outcome_index,estimate,squared_error\n" + rows


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_solve(args) -> int:
    rho1, rho2, prior, _ = load_problem(args.problem, _prior_from_arg(args.prior))
    outcome = solve(prior, rho1, rho2)
    if outcome.report is None:
        result = {
            "kind": outcome.kind.value,
            "positivity_ok": False,
            "certificate": outcome.certificate,
            "min_eigenvalue": outcome.min_eigenvalue,
            "candidate_effects": [matrix_to_json(m) for m in outcome.candidate_effects],
            "reduced_q": outcome.reduced_q,
            "q_star": outcome.q_star,
        }
    else:
        gap = outcome.q_star - outcome.report.score.q_value
        extra = {"certificate": outcome.certificate, "q_star": outcome.q_star, "gap": gap}
        result = _report_json(outcome.kind.value, outcome.report, extra)
    _write_text(args.out, json.dumps(result) + "\n")
    if outcome.report is None:
        raise UnsolvedCase(outcome.certificate)
    return 0


def cmd_simulate(args) -> int:
    rho1, rho2, prior, _ = load_problem(args.problem, _prior_from_arg(args.prior))
    if args.povm == "optimal":
        outcome = solve(prior, rho1, rho2)
        if outcome.report is None:
            raise UnsolvedCase(outcome.certificate)
        povm = outcome.report.povm
    else:
        povm = load_povm(args.povm)
    summary, columns = _simulation_columns(povm, prior, rho1, rho2, args.n_trials, args.seed)
    _write_text(args.out, _summary_csv(summary))
    if args.trials_out is not None:
        _write_text(args.trials_out, _trials_csv(*columns))
    if not summary.consistent:
        print(
            f"warning: empirical MSE {summary.empirical_mse:.6g} deviates from analytic "
            f"{summary.analytic_mean_variance:.6g} by more than four standard errors",
            file=sys.stderr,
        )
    return 0


def cmd_sweep_gamma(args) -> int:
    if not (0.0 <= args.rb < 1.0):
        raise BadParameter(f"rb must lie in [0, 1), got {args.rb}")
    if args.points < 2:
        raise BadParameter("need at least two sweep points")
    if not (0.0 < args.delta_r < math.inf):
        raise BadParameter(f"delta-r must be positive and finite, got {args.delta_r}")
    # q_max <= (1 + delta_r^2 / (1 - rb^2)) / 4; a float ** would raise on overflow
    if not math.isfinite(args.delta_r * args.delta_r / (1.0 - args.rb * args.rb)):
        raise BadParameter(f"delta-r {args.delta_r!r} is too large: q_max overflows")
    lines = ["gamma,alpha0,q_max"]
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    for k in range(1, args.points + 1):
        gamma = -math.pi + 2.0 * math.pi * k / args.points
        geom = PlanarGeometry(args.delta_r, args.rb, gamma, e1, e2, 0.25)
        sol = optimal_alpha(geom)
        lines.append(f"{_fmt(gamma)},{_fmt(sol.alpha)},{_fmt(sol.q_max)}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_decoherence(args) -> int:
    if args.rho0 is not None:
        rho0 = validate_state(matrix_from_json(_load_json(args.rho0)))
    else:
        rho0 = _trusted_states([np.diag([1.0, 0.0])])[0]
    model = DecoherenceModel(s=args.s, t=args.t, b_max=args.bmax, rho0=rho0)
    decay = solve_decay_estimation(model, uniform_prior=args.uniform_prior)
    summary = run_simulation(
        decay.report.povm, decay.prior, model.rho0, model.equilibrium, args.n_trials, args.seed
    )
    result = _report_json("decoherence", decay.report)
    result.update(
        {
            "prior_mean": decay.prior.mean,
            "prior_second_moment": decay.prior.second_moment,
            "t_bmax": model.t_bmax,
            "b_plugin_estimates": list(decay.b_estimates),
            "simulation": dataclasses.asdict(summary),
            "q_star": decay.q_star,
            "gap": decay.q_star - decay.report.score.q_value,
        }
    )
    _write_text(None, json.dumps(result) + "\n")
    if args.out is not None:
        _write_text(args.out, _summary_csv(summary))
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return run_selftest(seed=args.seed)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and shared: do not modify it.

    ``parse_args`` returns a fresh namespace on every call and the parser
    has no ``append`` actions or mutable defaults, so calls share no state.
    """
    parser = argparse.ArgumentParser(
        prog="mixest",
        description="Bayesian-optimal single-copy estimation of a mixing parameter",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute the optimal measurement for a problem file")
    p_solve.add_argument("--problem", required=True, help="problem JSON file")
    p_solve.add_argument("--prior", help="prior JSON string or file (overrides the problem file)")
    p_solve.add_argument("--out", help="write JSON here instead of stdout")
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", help="Monte Carlo check of a measurement")
    p_sim.add_argument("--problem", required=True)
    p_sim.add_argument("--prior")
    p_sim.add_argument("--povm", default="optimal", help="'optimal' or a POVM JSON file")
    p_sim.add_argument("--n-trials", type=int, default=100000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", help="summary CSV (default stdout)")
    p_sim.add_argument("--trials-out", help="optional per-trial CSV")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep-gamma", help="optimal angle across geometries")
    p_sweep.add_argument("--rb", type=float, required=True)
    p_sweep.add_argument("--points", type=int, default=361)
    p_sweep.add_argument("--delta-r", type=float, default=1.0 / 6.0, dest="delta_r")
    p_sweep.add_argument("--out")
    p_sweep.set_defaults(func=cmd_sweep_gamma)

    p_dec = sub.add_parser("decoherence", help="decay-rate estimation end to end")
    p_dec.add_argument("--s", type=float, required=True)
    p_dec.add_argument("--t", type=float, required=True)
    p_dec.add_argument("--bmax", type=float, required=True)
    p_dec.add_argument("--rho0", help="initial-state matrix JSON file (default excited state)")
    p_dec.add_argument("--uniform-prior", action="store_true")
    p_dec.add_argument("--n-trials", type=int, default=100000)
    p_dec.add_argument("--seed", type=int, default=0)
    p_dec.add_argument("--out", help="also write the summary CSV here")
    p_dec.set_defaults(func=cmd_decoherence)

    p_self = sub.add_parser("selftest", help="run the built-in property checks")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnsolvedCase as exc:
        print(f"unsolved case: {exc}", file=sys.stderr)
        return 3
    except (EstimationError, OSError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
