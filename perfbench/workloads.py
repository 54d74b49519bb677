"""The four workloads: inputs made from the seed, the timed call, the check.

Each workload is a closed loop with one caller.  Op ``i`` has a kind
``kinds[i % len(kinds)]``, so every kind keeps a fixed share of a run
that stops on a whole cycle.  ``make(i)`` builds the inputs of op ``i``
(untimed), ``call(op)`` is the timed call into mixest's public entry
points, and ``check(op, result)`` returns the failures found by the
oracles in :mod:`oracle` (untimed).  ``replay(op, result, tracer, sid)``
calls, on the same inputs, each public layer function the op goes
through, each in a child span of the op's span ``sid``.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import io
import json
import math
import os
import statistics

import numpy as np

import mixest
from mixest import cli
from mixest.qubit import PlanarGeometry
from mixest.randutil import random_povm

import oracle

TRUNC_T = (0.05, 5.0)  # t * B_max: a narrow and a wide truncated-reciprocal prior
TABLE_GRID = np.linspace(0.0, 1.0, 9)


def _unit(rng, n=3):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def _ball(rng, radius=1.0):
    return _unit(rng) * radius * rng.random() ** (1.0 / 3.0)


def _bloch_state(r):
    x, y, z = r
    return np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]], dtype=complex) / 2.0


def _ginibre_state(rng, dim, rank):
    x = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = x @ x.conj().T
    return _hermitian(m / np.trace(m).real)


def _isometry(rng, dim, cols):
    q, _ = np.linalg.qr(rng.normal(size=(dim, cols)) + 1j * rng.normal(size=(dim, cols)))
    return q


def _hermitian(m):
    return (m + m.conj().T) / 2.0


def _matrix_json(m):
    return {"dim": m.shape[0], "re": np.real(m).tolist(), "im": np.imag(m).tolist()}


def _matrix_from_json(obj):
    return np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)


class Priors:
    """Uniform, truncated reciprocal with small and large t*B_max, and tables."""

    KINDS = ("uniform", "trunc_reciprocal", "table")

    def __init__(self, rng, n_tables=8):
        self.tables = [rng.uniform(0.2, 2.0, len(TABLE_GRID)) for _ in range(n_tables)]
        self.uniform = (mixest.Prior.uniform(), {"kind": "uniform"})
        self.trunc = [(mixest.Prior.truncated_reciprocal(t), {"kind": "trunc_reciprocal", "t_bmax": t})
                      for t in TRUNC_T]
        self.table = [(mixest.Prior.from_table(TABLE_GRID, d),
                       {"kind": "table", "lambda": TABLE_GRID.tolist(), "density": d.tolist()})
                      for d in self.tables]

    def pick(self, kind, rng):
        """(Prior, prior JSON) of the given kind."""
        if kind == "uniform":
            return self.uniform
        pool = self.trunc if kind == "trunc_reciprocal" else self.table
        return pool[int(rng.integers(len(pool)))]


def _quiet_main(argv):
    """Run the CLI in-process; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _sim_failures(summary, prior, t1, t2, estimates, mean_variance, n, seed, records=None):
    """Check a simulation against all its trials re-derived from the stream."""
    out = []
    derived = oracle.trial_records(prior, t1, t2, estimates, seed, n)
    if summary.n_trials != n or summary.seed != seed & oracle.MASK64:
        out.append("summary n_trials or seed differs from the request")
    if records is not None:
        if len(records) != n:
            out.append(f"{len(records)} records for {n} trials")
        for i, (r, d) in enumerate(zip(records, derived)):
            if r.true_lambda != d[0] or r.outcome_index != d[1] or not _close(r.estimate, d[2]) \
                    or not _close(r.squared_error, d[3]):
                out.append(f"trial {i} differs from the documented stream")
                break
    mse, se = oracle.summary_of(derived)
    if not _close(summary.empirical_mse, mse) or not _close(summary.std_error, se):
        out.append("summary statistics differ from the re-derived trials")
    if not _close(summary.analytic_mean_variance, mean_variance):
        out.append("analytic mean variance differs from the independent score")
    margin = abs(mse - mean_variance) - 4.0 * se
    if abs(margin) > 1e-9 * max(se, 1e-300) and summary.consistent != (margin <= 0):
        out.append("consistent flag contradicts the four-standard-error rule")
    return out


@dataclasses.dataclass
class Op:
    index: int
    kind: str
    args: dict
    work: int = 1  # trials for simulations, 1 otherwise


class Workload:
    name = ""
    kinds: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng([seed % 2**64, self.salt])
        self.priors = Priors(self.rng)
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.counts = collections.Counter()  # exact counts the checks record

    def path(self, name):
        return os.path.join(self.workdir, name)

    def perturb(self, op, result):
        """A deliberately wrong copy of the result (benchmark self-test)."""
        raise NotImplementedError

    def details(self, kinds, latencies) -> dict:
        """Workload-specific figures from the kind index and latency of each op."""
        return {}


# --- qubit-solve ---------------------------------------------------------

QUBIT_FAMILIES = ("pure_mixed", "mixed_mixed", "near_pure", "close")


class QubitSolve(Workload):
    """``mixest.optimal_pvm`` on a stream of qubit problems."""

    name = "qubit-solve"
    salt = 1
    kinds = tuple(f"{f}/{p}" for p in Priors.KINDS for f in QUBIT_FAMILIES)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)

    def make(self, i):
        kind = self.kinds[i % len(self.kinds)]
        family, prior_kind = kind.split("/")
        rng = self.rng
        if family == "pure_mixed":
            r1, r2 = _unit(rng), _ball(rng)
        elif family == "mixed_mixed":
            r1, r2 = _ball(rng), _ball(rng)
        elif family == "near_pure":  # |r_b| close to 1, small |delta r|
            r1 = _unit(rng)
            axis = np.cross(r1, _unit(rng))
            axis /= np.linalg.norm(axis)
            ang = rng.uniform(0.02, 0.3)
            r2 = 0.999 * (r1 * math.cos(ang) + np.cross(axis, r1) * math.sin(ang))
        else:  # close: |delta r| down to small but non-degenerate values
            r1 = _ball(rng, 0.9)
            r2 = r1 + 10.0 ** rng.uniform(-4, -2) * _unit(rng)
        prior, _ = self.priors.pick(prior_kind, rng)
        m1, m2 = _bloch_state(r1), _bloch_state(r2)
        return Op(i, kind, {"prior": prior, "m1": m1, "m2": m2,
                            "rho1": mixest.validate_state(m1), "rho2": mixest.validate_state(m2)})

    def call(self, op):
        a = op.args
        return mixest.optimal_pvm(a["prior"], a["rho1"], a["rho2"])

    def check(self, op, report):
        a = op.args
        prior = a["prior"]
        effects = [e.matrix for e in report.povm]
        q_star = oracle.personick_q(prior, a["m1"], a["m2"])
        out = oracle.check_solution(prior, a["m1"], a["m2"], effects, report.score.q_value,
                                    report.score.mean_variance, q_star)
        _, est = oracle.score(prior, a["m1"], a["m2"], effects)
        if any(abs(x - y) > oracle.SOLVED_TOL for x, y in zip(est, report.estimates)):
            out.append("estimates differ from the posterior means")
        return out

    def perturb(self, op, report):
        score = dataclasses.replace(report.score, q_value=report.score.q_value + 1e-6)
        return dataclasses.replace(report, score=score)

    def replay(self, op, report, tr, sid):
        a = op.args
        prior, rho1, rho2 = a["prior"], a["rho1"], a["rho2"]
        with tr.span("states.validate_state", parent=sid, nested=True):
            mixest.validate_state(a["m1"])
        with tr.span("bayes.effective_states", parent=sid):
            rho_a, rho_b = mixest.effective_states(prior, rho1, rho2)
        with tr.span("qubit.planar_geometry", parent=sid):
            geom = mixest.planar_geometry(rho_a, rho_b, scale=prior.mean**2)
        with tr.span("qubit.optimal_alpha", parent=sid):
            mixest.optimal_alpha(geom)
        with tr.span("bayes.q_functional", parent=sid):
            mixest.q_functional(report.povm, prior, rho1, rho2)


# --- highdim-solve -------------------------------------------------------

HIGHDIM_FAMILIES = ("commuting", "pure_with_noise", "rank2_support", "generic")
EXPECTED_ROUTE = {"commuting": ("commuting",), "pure_with_noise": ("pure_with_noise",),
                  "rank2_support": ("two_dim_subspace",), "generic": ("embedded", "unreduced")}
SOLVER = {"commuting": "solve_commuting", "pure_with_noise": "solve_pure_plus_noise",
          "rank2_support": "solve_two_dim_support", "generic": "embed_and_check"}
DIMS = (3, 4, 5, 6)
ROUTES = ("commuting", "pure_with_noise", "two_dim_subspace", "embedded", "unreduced")


class HighdimSolve(Workload):
    """``mixest solve`` run in-process on problem files written at set-up."""

    name = "highdim-solve"
    salt = 2
    kinds = tuple(f"{f}/d{d}" for d in DIMS for f in HIGHDIM_FAMILIES)
    variants = 16

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.problems = []
        for v in range(self.variants):
            for j, kind in enumerate(self.kinds):
                self.problems.append(self._write(kind, Priors.KINDS[(v + j) % 3], len(self.problems)))
        self.q_star = {}
        self.out_path = self.path("solve-out.json")

    def _write(self, kind, prior_kind, n):
        family, d = kind.split("/")
        d = int(d[1:])
        rng = self.rng
        psi = None
        if family == "commuting":
            q = _isometry(rng, d, d)
            m1, m2 = (_hermitian(q @ np.diag(rng.dirichlet(np.ones(d))) @ q.conj().T) for _ in range(2))
        elif family == "pure_with_noise":
            psi = _isometry(rng, d, 1)[:, 0]
            m1, m2 = np.outer(psi, psi.conj()), np.eye(d, dtype=complex) / d
        elif family == "rank2_support":
            v = _isometry(rng, d, 2)
            m1, m2 = (_hermitian(v @ _ginibre_state(rng, 2, 2) @ v.conj().T) for _ in range(2))
        else:
            m1, m2 = _ginibre_state(rng, d, d), _ginibre_state(rng, d, d)
        prior, prior_json = self.priors.pick(prior_kind, rng)
        path = self.path(f"problem-{n:04d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"rho1": _matrix_json(m1), "rho2": _matrix_json(m2), "prior": prior_json}, fh)
        return {"path": path, "family": family, "dim": d, "m1": m1, "m2": m2, "psi": psi, "prior": prior}

    def make(self, i):
        n = len(self.kinds)
        p = self.problems[(i // n) % self.variants * n + i % n]
        return Op(i, self.kinds[i % n], p)

    def call(self, op):
        code, _ = _quiet_main(["solve", "--problem", op.args["path"], "--out", self.out_path])
        return code

    def read_output(self):
        with open(self.out_path, encoding="utf-8") as fh:
            return json.load(fh)

    def check(self, op, code):
        p = op.args
        out = self.read_output()
        route = out.get("kind")
        self.counts[f"route.{route}"] += 1
        fails = []
        if code not in (0, 3) or (code == 3) != (route == "unreduced"):
            fails.append(f"exit code {code} with route {route!r}")
        if route not in EXPECTED_ROUTE[p["family"]]:
            fails.append(f"{p['family']} problem took route {route!r}")
        if route == "unreduced":
            if out.get("positivity_ok") is not False:
                fails.append("unreduced outcome claims positivity")
            return fails
        key = p["path"]
        if key not in self.q_star:
            self.q_star[key] = oracle.personick_q(p["prior"], p["m1"], p["m2"])
        effects = [_matrix_from_json(o["effect"]) for o in out["outcomes"]]
        fails += oracle.check_solution(p["prior"], p["m1"], p["m2"], effects, out["q_value"],
                                       out["mean_variance"], self.q_star[key],
                                       solved=route != "embedded")
        return fails

    def perturb(self, op, code):
        out = self.read_output()
        out["q_value"] += 1e-6
        with open(self.out_path, "w", encoding="utf-8") as fh:
            json.dump(out, fh)
        return code

    def replay(self, op, code, tr, sid):
        p = op.args
        family, d = p["family"], p["dim"]
        with tr.span("cli.load_problem", parent=sid):
            rho1, rho2, prior, _ = cli.load_problem(p["path"])
        if family != "pure_with_noise":
            with tr.span("states.commutator_norm", parent=sid):
                mixest.states.commutator_norm(rho1, rho2)
        if family in ("rank2_support", "generic"):
            with tr.span("highdim.support_rank", parent=sid):
                mixest.support_rank(rho1, rho2)
        with tr.span(f"highdim.{SOLVER[family]}.d{d}", parent=sid):
            if family == "commuting":
                mixest.solve_commuting(prior, rho1, rho2)
            elif family == "pure_with_noise":
                mixest.solve_pure_plus_noise(prior, p["psi"], d)
            elif family == "rank2_support":
                mixest.solve_two_dim_support(prior, rho1, rho2)
            else:
                mixest.embed_and_check(prior, rho1, rho2)
        if family == "generic":
            with tr.span(f"highdim.aligned_basis.d{d}", parent=sid, nested=True):
                mixest.aligned_basis(rho1, rho2)

    def details(self, kinds, latencies):
        out = {f"route.{r}": self.counts[f"route.{r}"] for r in ROUTES}
        out["unsolved_frac"] = self.counts["route.unreduced"] / len(kinds)
        return out


# --- montecarlo ----------------------------------------------------------

# trials per call, chosen so that every kind of call costs about the same
SIM_TRIALS = {"uniform": 192, "trunc_reciprocal": 192, "table": 48}
DEMO_TRIALS = 28


class MonteCarlo(Workload):
    """``run_simulation`` (summary only) and ``entanglement_demo`` calls."""

    name = "montecarlo"
    salt = 3
    kinds = tuple(f"run_simulation/{p}/{m}" for p in Priors.KINDS for m in ("pvm2", "povm4")) \
        + ("entanglement_demo",)
    pairs = 32

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.states = []
        for _ in range(self.pairs):
            m1, m2 = _bloch_state(_unit(self.rng)), _bloch_state(_ball(self.rng))
            self.states.append((m1, m2, mixest.validate_state(m1), mixest.validate_state(m2)))
        self.povm4 = [random_povm(self.rng, 2, 4) for _ in range(self.pairs)]
        self.pvm2 = {}

    def make(self, i):
        kind = self.kinds[i % len(self.kinds)]
        rng = self.rng
        seed = int(rng.integers(0, 2**63)) * 2 + int(rng.integers(2))  # full 64-bit keys
        if kind == "entanglement_demo":
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            return Op(i, kind, {"psi": psi / np.linalg.norm(psi), "seed": seed}, DEMO_TRIALS)
        _, prior_kind, povm_kind = kind.split("/")
        prior, _ = self.priors.pick(prior_kind, rng)
        j = int(rng.integers(self.pairs))
        m1, m2, rho1, rho2 = self.states[j]
        if povm_kind == "povm4":
            povm = self.povm4[j]
        else:
            key = (j, id(prior))
            if key not in self.pvm2:
                self.pvm2[key] = mixest.optimal_pvm(prior, rho1, rho2).povm
            povm = self.pvm2[key]
        return Op(i, kind, {"prior": prior, "m1": m1, "m2": m2, "rho1": rho1, "rho2": rho2,
                            "povm": povm, "seed": seed}, SIM_TRIALS[prior_kind])

    def call(self, op):
        a = op.args
        if op.kind == "entanglement_demo":
            return mixest.entanglement_demo(a["psi"], None, DEMO_TRIALS, a["seed"])
        return mixest.run_simulation(a["povm"], a["prior"], a["rho1"], a["rho2"], op.work, a["seed"])

    def check(self, op, result):
        if op.kind == "entanglement_demo":
            return self._check_demo(op, result)
        a = op.args
        effects = [e.matrix for e in a["povm"]]
        q, est = oracle.score(a["prior"], a["m1"], a["m2"], effects)
        t1, t2 = oracle.outcome_traces(effects, a["m1"], a["m2"])
        self.counts["inconsistent_summaries"] += not result.consistent
        return _sim_failures(result, a["prior"], t1, t2, est, a["prior"].second_moment - q,
                             op.work, a["seed"])

    def _check_demo(self, op, demo):
        psi, seed = op.args["psi"], op.args["seed"]
        prior = mixest.Prior.uniform()
        m1, m2 = np.outer(psi, psi.conj()), np.eye(4, dtype=complex) / 4.0
        report = demo.outcome.report
        effects = [e.matrix for e in report.povm]
        fails = oracle.check_solution(prior, m1, m2, effects, report.score.q_value,
                                      report.score.mean_variance, oracle.personick_q(prior, m1, m2))
        _, est = oracle.score(prior, m1, m2, effects)
        t1, t2 = oracle.outcome_traces(effects, m1, m2)
        if len(demo.rows) != DEMO_TRIALS:
            fails.append(f"{len(demo.rows)} rows for {DEMO_TRIALS} trials")
        thr = oracle.ppt_threshold(psi)
        if thr is None or demo.threshold is None or abs(thr - demo.threshold) > 2e-9:
            fails.append(f"threshold {demo.threshold} vs closed form {thr}")
        witness = np.zeros((4, 4), dtype=complex)
        witness[0, 0] = witness[1, 2] = witness[2, 1] = witness[3, 3] = 1.0
        for i, (row, d) in enumerate(zip(demo.rows, oracle.trial_records(prior, t1, t2, est, seed, DEMO_TRIALS))):
            lam, _, e, _ = d
            if row.true_lambda != lam or not _close(row.estimate, e):
                fails.append(f"demo trial {i} differs from the documented stream")
                break
            for x, flag, w in ((lam, row.entangled_at_true, row.witness_at_true),
                               (e, row.entangled_at_estimate, row.witness_at_estimate)):
                state = x * m1 + (1.0 - x) * m2
                if thr is not None and abs(x - thr) > 1e-8 and flag != oracle.is_entangled(state):
                    fails.append(f"demo trial {i}: wrong separability verdict")
                if not _close(w, float(np.trace(witness @ state).real)):
                    fails.append(f"demo trial {i}: wrong witness value")
        return fails[:3]

    def perturb(self, op, result):
        return dataclasses.replace(result, empirical_mse=result.empirical_mse * (1 + 1e-9))

    def replay(self, op, result, tr, sid):
        a = op.args
        if op.kind == "entanglement_demo":
            with tr.span("simulate.ppt_threshold", parent=sid):
                mixest.ppt_threshold(a["psi"])
            return
        prior = a["prior"]
        us = [oracle.trial_uniforms(a["seed"], i)[0] for i in range(32)]
        with tr.span("bayes.q_functional.simulate", parent=sid):
            mixest.q_functional(a["povm"], prior, a["rho1"], a["rho2"])
        with tr.span(f"bayes.sample_from_uniform.{prior.kind}", parent=sid, nested=True, calls=len(us)):
            for u in us:
                prior.sample_from_uniform(u)

    def details(self, kinds, latencies):
        trials = [SIM_TRIALS[k.split("/")[1]] if k != "entanglement_demo" else 0 for k in self.kinds]
        sim = [(trials[k], t) for k, t in zip(kinds, latencies) if trials[k]]
        demo = [t for k, t in zip(kinds, latencies) if not trials[k]]
        return {
            "trials_per_s": sum(n for n, _ in sim) / sum(t for _, t in sim),
            "demo_trials_per_s": len(demo) * DEMO_TRIALS / sum(demo),
            "inconsistent_summaries": self.counts["inconsistent_summaries"],
        }


# --- cli-pipeline --------------------------------------------------------

# sizes chosen so that the three commands cost about the same
CLI_SIM_TRIALS = 200
CLI_DEC_TRIALS = 200
SWEEP_POINTS = 12  # even, so gamma = 0 and gamma = pi are on the grid
SWEEP_RB = (0.0, 0.3, 0.8, 0.95, 0.999)
CLI_CONFIGS = 16


class CliPipeline(Workload):
    """``mixest simulate --trials-out``, ``decoherence --out`` and ``sweep-gamma``."""

    name = "cli-pipeline"
    salt = 4
    kinds = ("simulate", "decoherence", "sweep_gamma")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        self.sim, self.dec, self.sweep = [], [], []
        for c in range(CLI_CONFIGS):
            m1, m2 = _bloch_state(_ball(rng)), _bloch_state(_ball(rng))
            prior, prior_json = self.priors.pick(Priors.KINDS[c % 3], rng)
            path = self.path(f"sim-problem-{c:02d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"rho1": _matrix_json(m1), "rho2": _matrix_json(m2), "prior": prior_json}, fh)
            self.sim.append({"path": path, "m1": m1, "m2": m2, "prior": prior,
                             "seed": int(rng.integers(0, 2**63))})
            self.dec.append({"s": float(rng.uniform(0.0, 0.45)), "t": float(rng.uniform(0.5, 2.0)),
                             "bmax": float(rng.uniform(0.2, 2.0)), "seed": int(rng.integers(0, 2**63))})
        for rb in SWEEP_RB:
            for dr in (1.0 / 6.0, 0.5):
                self.sweep.append({"rb": rb, "delta_r": dr})
        self.files = {k: self.path(f"{k}.csv") for k in ("summary", "trials", "decoherence", "sweep")}
        self.expected = {}

    def make(self, i):
        kind = self.kinds[i % 3]
        c = i // 3
        if kind == "simulate":
            cfg = self.sim[c % len(self.sim)]
            argv = ["simulate", "--problem", cfg["path"], "--n-trials", str(CLI_SIM_TRIALS),
                    "--seed", str(cfg["seed"]), "--out", self.files["summary"],
                    "--trials-out", self.files["trials"]]
            return Op(i, kind, {"cfg": cfg, "argv": argv}, CLI_SIM_TRIALS)
        if kind == "decoherence":
            cfg = self.dec[c % len(self.dec)]
            argv = ["decoherence", "--s", repr(cfg["s"]), "--t", repr(cfg["t"]), "--bmax", repr(cfg["bmax"]),
                    "--n-trials", str(CLI_DEC_TRIALS), "--seed", str(cfg["seed"]),
                    "--out", self.files["decoherence"]]
            return Op(i, kind, {"cfg": cfg, "argv": argv}, CLI_DEC_TRIALS)
        cfg = self.sweep[c % len(self.sweep)]
        argv = ["sweep-gamma", "--rb", repr(cfg["rb"]), "--points", str(SWEEP_POINTS),
                "--delta-r", repr(cfg["delta_r"]), "--out", self.files["sweep"]]
        return Op(i, kind, {"cfg": cfg, "argv": argv})

    def call(self, op):
        return _quiet_main(op.args["argv"])

    def _read(self, key):
        with open(self.files[key], encoding="utf-8") as fh:
            return fh.read()

    def check(self, op, result):
        code, stdout = result
        if code != 0:
            return [f"{op.kind} exited with {code}"]
        files = {"simulate": ("summary", "trials"), "decoherence": ("decoherence",),
                 "sweep_gamma": ("sweep",)}[op.kind]
        texts = [self._read(k) for k in files]
        self.counts[f"bytes.{op.kind}"] += len(stdout.encode()) + sum(len(t.encode()) for t in texts)
        key = (op.kind, id(op.args["cfg"]))
        if key not in self.expected:
            expect = {"simulate": self._expect_simulate, "decoherence": self._expect_decoherence,
                      "sweep_gamma": self._expect_sweep_gamma}[op.kind]
            self.expected[key] = expect(op.args["cfg"])
        expected, fails = self.expected[key]
        try:
            got = self._parse(op.kind, stdout, texts)
        except (ValueError, KeyError, IndexError) as exc:
            return fails + [f"{op.kind} output does not parse: {exc}"]
        if got != expected:
            fails = fails + [f"{op.kind} output differs from the library result"]
        return fails

    @staticmethod
    def _csv(text):
        lines = text.strip("\n").split("\n")
        return lines[0], [[float(x) for x in line.split(",")] for line in lines[1:]]

    def _parse(self, kind, stdout, texts):
        if kind == "simulate":
            return self._csv(texts[0]), self._csv(texts[1])
        if kind == "decoherence":
            obj = json.loads(stdout)
            return (obj["q_value"], obj["mean_variance"], obj["b_plugin_estimates"],
                    obj["simulation"], self._csv(texts[0]))
        return self._csv(texts[0])

    @staticmethod
    def _summary_csv(s):
        return ("seed,n_trials,empirical_mse,analytic_mean_variance,std_error",
                [[float(s.seed), float(s.n_trials), s.empirical_mse, s.analytic_mean_variance, s.std_error]])

    def _expect_simulate(self, cfg):
        prior, m1, m2 = cfg["prior"], cfg["m1"], cfg["m2"]
        rho1, rho2 = mixest.validate_state(m1), mixest.validate_state(m2)
        report = mixest.optimal_pvm(prior, rho1, rho2)
        summary, records = mixest.run_simulation(report.povm, prior, rho1, rho2, CLI_SIM_TRIALS,
                                                 cfg["seed"], return_records=True)
        effects = [e.matrix for e in report.povm]
        q_star = oracle.personick_q(prior, m1, m2)
        fails = oracle.check_solution(prior, m1, m2, effects, report.score.q_value,
                                      report.score.mean_variance, q_star)
        q, est = oracle.score(prior, m1, m2, effects)
        t1, t2 = oracle.outcome_traces(effects, m1, m2)
        fails += _sim_failures(summary, prior, t1, t2, est, prior.second_moment - q, CLI_SIM_TRIALS,
                               cfg["seed"], records)
        trials = ("trial,true_lambda,outcome_index,estimate,squared_error",
                  [[float(i), r.true_lambda, float(r.outcome_index), r.estimate, r.squared_error]
                   for i, r in enumerate(records)])
        return (self._summary_csv(summary), trials), fails

    def _expect_decoherence(self, cfg):
        rho0 = mixest.validate_state(np.diag([1.0, 0.0]).astype(complex))
        model = mixest.DecoherenceModel(s=cfg["s"], t=cfg["t"], b_max=cfg["bmax"], rho0=rho0)
        decay = mixest.solve_decay_estimation(model)
        summary = mixest.run_simulation(decay.report.povm, decay.prior, model.rho0, model.equilibrium,
                                        CLI_DEC_TRIALS, cfg["seed"])
        m1, m2 = model.rho0.matrix, model.equilibrium.matrix
        effects = [e.matrix for e in decay.report.povm]
        fails = oracle.check_solution(decay.prior, m1, m2, effects, decay.report.score.q_value,
                                      decay.report.score.mean_variance,
                                      oracle.personick_q(decay.prior, m1, m2))
        q, est = oracle.score(decay.prior, m1, m2, effects)
        t1, t2 = oracle.outcome_traces(effects, m1, m2)
        fails += _sim_failures(summary, decay.prior, t1, t2, est, decay.prior.second_moment - q,
                               CLI_DEC_TRIALS, cfg["seed"])
        sim = {"seed": summary.seed, "n_trials": summary.n_trials, "empirical_mse": summary.empirical_mse,
               "analytic_mean_variance": summary.analytic_mean_variance, "std_error": summary.std_error,
               "consistent": summary.consistent}
        return (decay.report.score.q_value, decay.report.score.mean_variance, list(decay.b_estimates),
                sim, self._summary_csv(summary)), fails

    def _expect_sweep_gamma(self, cfg):
        rows, fails = [], []
        for k in range(1, SWEEP_POINTS + 1):
            gamma = -math.pi + 2.0 * math.pi * k / SWEEP_POINTS
            geom = PlanarGeometry(cfg["delta_r"], cfg["rb"], gamma, np.array([1.0, 0.0]),
                                  np.array([0.0, 1.0]), 0.25)
            sol = mixest.optimal_alpha(geom)
            if abs(sol.q_max - oracle.sweep_q_max(cfg["delta_r"], cfg["rb"], gamma, 0.25)) > oracle.SOLVED_TOL:
                fails.append(f"sweep q_max at gamma={gamma!r} misses the closed form")
            rows.append([gamma, sol.alpha, sol.q_max])
        return ("gamma,alpha0,q_max", rows), fails[:3]

    def perturb(self, op, result):
        path = self.files["summary"]
        header, row = self._read("summary").strip("\n").split("\n")
        fields = row.split(",")
        fields[2] = repr(float(fields[2]) * (1 + 1e-9))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n" + ",".join(fields) + "\n")
        return result

    def replay(self, op, result, tr, sid):
        cfg = op.args["cfg"]
        if op.kind == "simulate":
            with tr.span("cli.simulate.load_problem", parent=sid):
                rho1, rho2, prior, _ = cli.load_problem(cfg["path"])
            with tr.span("cli.simulate.optimal_pvm", parent=sid):
                report = mixest.optimal_pvm(prior, rho1, rho2)
            with tr.span("simulate.run_simulation.records", parent=sid, trials=CLI_SIM_TRIALS):
                mixest.run_simulation(report.povm, prior, rho1, rho2, CLI_SIM_TRIALS, cfg["seed"],
                                      return_records=True)
        elif op.kind == "decoherence":
            rho0 = mixest.validate_state(np.diag([1.0, 0.0]).astype(complex))
            model = mixest.DecoherenceModel(s=cfg["s"], t=cfg["t"], b_max=cfg["bmax"], rho0=rho0)
            with tr.span("cli.decoherence.solve_decay_estimation", parent=sid):
                decay = mixest.solve_decay_estimation(model)
            with tr.span("cli.decoherence.run_simulation", parent=sid):
                mixest.run_simulation(decay.report.povm, decay.prior, model.rho0, model.equilibrium,
                                      CLI_DEC_TRIALS, cfg["seed"])
        else:
            geoms = [PlanarGeometry(cfg["delta_r"], cfg["rb"], -math.pi + 2.0 * math.pi * k / SWEEP_POINTS,
                                    np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.25)
                     for k in range(1, SWEEP_POINTS + 1)]
            with tr.span("cli.sweep_gamma.optimal_alpha", parent=sid):
                for g in geoms:
                    mixest.optimal_alpha(g)

    def details(self, kinds, latencies):
        out = {}
        for k, kind in enumerate(self.kinds):
            ts = [t for j, t in zip(kinds, latencies) if j == k]
            out[f"cli_{kind.split('_')[0]}_ms"] = statistics.median(ts) * 1e3
        return out


WORKLOADS = {w.name: w for w in (QubitSolve, HighdimSolve, MonteCarlo, CliPipeline)}
