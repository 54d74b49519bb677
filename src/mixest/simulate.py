"""Monte Carlo verification and the decoherence / entanglement scenarios.

Simulation is bit-reproducible: trial ``i`` draws from a counter-based
Philox substream at counter offset ``i * 2**128`` under the run's 64-bit
seed, so trials can be distributed across workers without changing any
draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .bayes import EstimationReport, Prior, prior_from_decoherence, q_functional
from .errors import BadParameter, DegenerateProblem, RateOutOfRange, WrongShape
from .highdim import ReductionOutcome, solve_pure_plus_noise
from .policy import DEFAULT_POLICY, NumericPolicy
from .qubit import optimal_pvm
from .states import DensityMatrix, as_povm, validate_state

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class DecoherenceModel:
    """Two-level decay toward a thermal state, in the rotating frame.

    ``s`` is the excited-state population of the equilibrium state; the
    Hamiltonian frequency ``omega`` is recorded but plays no role once the
    frame rotates with it.
    """

    s: float
    t: float
    b_max: float
    rho0: DensityMatrix
    omega: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.s <= 1.0):
            raise BadParameter(f"equilibrium population s must lie in [0, 1], got {self.s}")
        if not (math.isfinite(self.t) and math.isfinite(self.b_max)):
            raise BadParameter(f"time and maximal rate must be finite, got t={self.t}, b_max={self.b_max}")
        if self.t <= 0.0 or self.b_max <= 0.0:
            raise BadParameter("time and maximal rate must be positive")
        if self.rho0.dim != 2:
            raise WrongShape("decoherence model needs a qubit initial state")

    @property
    def equilibrium(self) -> DensityMatrix:
        return validate_state(np.diag([self.s, 1.0 - self.s]).astype(complex))

    @property
    def t_bmax(self) -> float:
        return self.t * self.b_max


@dataclass(frozen=True)
class TrialRecord:
    true_lambda: float
    outcome_index: int
    estimate: float
    squared_error: float


@dataclass(frozen=True)
class SimulationSummary:
    n_trials: int
    empirical_mse: float
    analytic_mean_variance: float
    std_error: float
    seed: int
    consistent: bool  # |empirical - analytic| <= 4 standard errors


def _trial_stream(seed: int, index: int) -> Generator:
    return Generator(Philox(key=seed & _MASK64, counter=[0, 0, index, 0]))


def run_simulation(
    povm,
    prior: Prior,
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    n_trials: int,
    seed: int,
    return_records: bool = False,
    policy: NumericPolicy = DEFAULT_POLICY,
):
    """Draw states and outcomes; compare empirical MSE to the analytic value.

    Per trial: draw ``lam`` from the prior, draw an outcome from
    ``tr[E_m rho_lam]``, record the Bayes estimate of that outcome and its
    squared error.  Returns a :class:`SimulationSummary`, plus the list of
    :class:`TrialRecord` when ``return_records`` is set.
    """
    if n_trials < 1:
        raise BadParameter("need at least one trial")
    povm = as_povm(povm, policy)
    score = q_functional(povm, prior, rho1, rho2, policy)
    estimates = [o.estimate for o in score.per_outcome]
    t1 = [float(np.trace(e.matrix @ rho1.matrix).real) for e in povm]
    t2 = [float(np.trace(e.matrix @ rho2.matrix).real) for e in povm]
    k = len(t1)
    seed = int(seed) & _MASK64

    errors = np.empty(n_trials)
    records: list[TrialRecord] = []
    for i in range(n_trials):
        u_lambda, u_outcome = _trial_stream(seed, i).random(2)
        lam = float(prior.sample_from_uniform(u_lambda))
        probs = [max(lam * t1[m] + (1.0 - lam) * t2[m], 0.0) for m in range(k)]
        target = u_outcome * sum(probs)
        acc = 0.0
        outcome = k - 1
        for m in range(k):
            acc += probs[m]
            if target < acc:
                outcome = m
                break
        est = estimates[outcome]
        err = (lam - est) ** 2
        errors[i] = err
        if return_records:
            records.append(TrialRecord(lam, outcome, est, err))

    mse = float(errors.mean())
    std_error = float(errors.std(ddof=1) / math.sqrt(n_trials)) if n_trials > 1 else float("inf")
    summary = SimulationSummary(
        n_trials=n_trials,
        empirical_mse=mse,
        analytic_mean_variance=score.mean_variance,
        std_error=std_error,
        seed=seed,
        consistent=abs(mse - score.mean_variance) <= 4.0 * std_error,
    )
    return (summary, records) if return_records else summary


def decoherence_state(model: DecoherenceModel, b: float, policy: NumericPolicy = DEFAULT_POLICY) -> DensityMatrix:
    """State after decaying at rate ``b`` for the model's time span."""
    if not (0.0 <= b <= model.b_max):
        raise RateOutOfRange(f"rate {b} outside [0, {model.b_max}]")
    lam = math.exp(-b * model.t)
    m = lam * model.rho0.matrix + (1.0 - lam) * model.equilibrium.matrix
    return validate_state(m, policy)


@dataclass(frozen=True)
class DecayEstimation:
    """Optimal measurement for the decay problem plus rate read-out.

    ``b_estimates`` maps the per-outcome Bayes estimates of the mixing
    parameter through ``B = -ln(lam) / t``; that plug-in transform is not
    itself a Bayes estimator of the rate.
    """

    model: DecoherenceModel
    prior: Prior
    report: EstimationReport
    b_estimates: tuple[float, ...]


def solve_decay_estimation(
    model: DecoherenceModel,
    uniform_prior: bool = False,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> DecayEstimation:
    """Optimal single-copy measurement of the decay rate.

    A uniformly distributed rate induces a reciprocal prior on the mixing
    parameter; the general-prior qubit solver does the rest.  Passing
    ``uniform_prior=True`` overrides the induced prior with the flat one.
    """
    eq = model.equilibrium
    if float(np.max(np.abs(model.rho0.matrix - eq.matrix))) <= policy.degenerate_tol:
        raise DegenerateProblem("initial state equals the equilibrium state; decay is invisible")
    prior = Prior.uniform() if uniform_prior else prior_from_decoherence(model.t_bmax)
    report = optimal_pvm(prior, model.rho0, eq, policy)
    lo = math.exp(-model.t_bmax)
    b_estimates = tuple(
        -math.log(min(max(g, lo), 1.0)) / model.t for g in report.estimates
    )
    return DecayEstimation(model=model, prior=prior, report=report, b_estimates=b_estimates)


# --- two-qubit entanglement demo -------------------------------------------

WITNESS = np.zeros((4, 4), dtype=complex)
WITNESS[0, 0] = 1.0  # |00><00|
WITNESS[1, 2] = 1.0  # |01><10|
WITNESS[2, 1] = 1.0  # |10><01|
WITNESS[3, 3] = 1.0  # |11><11|
WITNESS.setflags(write=False)


def partial_transpose(m: np.ndarray) -> np.ndarray:
    """Partial transpose over the second qubit of a two-qubit operator."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise WrongShape(f"expected a 4x4 two-qubit operator, got {m.shape}")
    blocks = m.reshape(2, 2, 2, 2)
    return blocks.transpose(0, 3, 2, 1).reshape(4, 4)


def min_ppt_eigenvalue(m: np.ndarray) -> float:
    pt = partial_transpose(m)
    return float(np.linalg.eigvalsh((pt + pt.conj().T) / 2).min())


def is_entangled(m: np.ndarray, tol: float = 1e-10) -> bool:
    """Partial-transpose test; exact for two qubits."""
    return min_ppt_eigenvalue(m) < -tol


def noisy_state(psi: np.ndarray, lam: float) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    psi = psi / np.linalg.norm(psi)
    return lam * np.outer(psi, psi.conj()) + (1.0 - lam) * np.eye(len(psi)) / len(psi)


def ppt_threshold(psi: np.ndarray, tol: float = 1e-9) -> float | None:
    """Smallest mixing weight at which the noisy state turns entangled.

    Bisection on the minimal partial-transpose eigenvalue; returns None if
    even the pure state passes the test (a product state).
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if len(psi) != 4:
        raise WrongShape("the entanglement demo works on two qubits")
    if min_ppt_eigenvalue(noisy_state(psi, 1.0)) >= -1e-12:
        return None
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if min_ppt_eigenvalue(noisy_state(psi, mid)) < 0.0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2.0


@dataclass(frozen=True)
class DemoRow:
    true_lambda: float
    estimate: float
    entangled_at_estimate: bool
    entangled_at_true: bool
    witness_at_estimate: float
    witness_at_true: float


@dataclass(frozen=True)
class EntanglementDemo:
    outcome: ReductionOutcome
    rows: tuple[DemoRow, ...]
    threshold: float | None


def entanglement_demo(
    psi: np.ndarray,
    prior: Prior | None = None,
    n_trials: int = 200,
    seed: int = 0,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> EntanglementDemo:
    """Estimate the noise weight of a two-qubit state, then test separability.

    Per trial the mixing parameter is estimated from a single simulated
    measurement and the partial-transpose verdict is evaluated both at the
    estimate and at the true value; the witness expectation is reported
    alongside for comparison.  One copy never decides entanglement
    unambiguously, so the rows carry no confidence statement.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if len(psi) != 4:
        raise WrongShape("the entanglement demo works on two qubits")
    psi = psi / np.linalg.norm(psi)
    prior = prior or Prior.uniform()
    outcome = solve_pure_plus_noise(prior, psi, 4, policy)
    report = outcome.report
    rho1 = validate_state(np.outer(psi, psi.conj()), policy)
    rho2 = validate_state(np.eye(4, dtype=complex) / 4.0, policy)

    estimates = report.estimates
    t1 = [float(np.trace(e.matrix @ rho1.matrix).real) for e in report.povm]
    t2 = [float(np.trace(e.matrix @ rho2.matrix).real) for e in report.povm]
    seed = int(seed) & _MASK64

    rows = []
    for i in range(n_trials):
        u_lambda, u_outcome = _trial_stream(seed, i).random(2)
        lam = float(prior.sample_from_uniform(u_lambda))
        probs = [max(lam * a + (1.0 - lam) * b, 0.0) for a, b in zip(t1, t2)]
        total = sum(probs)
        target = u_outcome * total
        acc = 0.0
        outcome_index = len(probs) - 1
        for m, p in enumerate(probs):
            acc += p
            if target < acc:
                outcome_index = m
                break
        est = estimates[outcome_index]
        state_est = noisy_state(psi, est)
        state_true = noisy_state(psi, lam)
        rows.append(
            DemoRow(
                true_lambda=lam,
                estimate=est,
                entangled_at_estimate=is_entangled(state_est),
                entangled_at_true=is_entangled(state_true),
                witness_at_estimate=float(np.trace(WITNESS @ state_est).real),
                witness_at_true=float(np.trace(WITNESS @ state_true).real),
            )
        )
    return EntanglementDemo(outcome=outcome, rows=tuple(rows), threshold=ppt_threshold(psi))
