"""Monte Carlo verification and the decoherence / entanglement scenarios.

Simulation is bit-reproducible.  Trial ``i`` of a run with ``seed`` reads
one block of Philox4x64-10 (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11) with key ``(seed mod 2**64, 0)`` and counter
``(1, 0, i, 0)``.  Its first two output words ``x`` become the doubles
``(x >> 11) * 2**-53``: the first draws ``lam`` from the prior by inverse
CDF, the second picks the outcome.  These are the two doubles numpy's
Philox bit generator yields for ``key=seed, counter=[0, 0, i, 0]`` (it
bumps the counter before its first block), but no generator is built:
the rounds run over a block of trial counters at once, 65,536 trials at
a time, so memory stays bounded and trials can be split across workers
without changing a single draw.  A block of at most ``_LANES_MAX``
counters runs on integer lanes, each Philox word of every trial in a
128-bit lane of one Python integer, so a round costs a dozen big-integer
operations whatever the block size; a larger block runs vectorised in
numpy.  Both kernels give the same words bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bayes import EstimationReport, Prior, _traces, q_functional, reject_degenerate_prior
from .errors import BadParameter, DegenerateProblem, WrongShape
from .highdim import _PURE_CERTIFICATE, ReductionKind, ReductionOutcome, solve
from .policy import DEFAULT_POLICY
from .states import DensityMatrix, Povm, _trusted_povm, _trusted_states, _unit_vector, as_povm

_MASK64 = (1 << 64) - 1
_CHUNK = 65536  # trials per vectorised block; bounds the sampler's memory
# Blocks up to this many trials run on integer lanes.  Per block the lanes
# cost about 9 us plus 0.5 us per trial and the numpy rounds about 130 us
# plus 0.2 us per trial (2-vCPU x86-64, Python 3.11), so the lanes win
# below 400-500 trials.
_LANES_MAX = 256

# Philox4x64-10 round multipliers and key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_M_COL = np.array(_PHILOX_M, dtype=np.uint64)[:, None]
_LANE_ONE = (1).to_bytes(16, "little")  # one 128-bit lane holding 1


@dataclass(frozen=True)
class DecoherenceModel:
    """Two-level decay toward a thermal state, in the rotating frame.

    ``s`` is the excited-state population of the equilibrium state.
    """

    s: float
    t: float
    b_max: float
    rho0: DensityMatrix

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
        return _trusted_states([np.diag([self.s, 1.0 - self.s])])[0]

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
    # field order: the key order of decoherence's "simulation" record, as in the CSV
    seed: int
    n_trials: int
    empirical_mse: float
    analytic_mean_variance: float
    std_error: float
    consistent: bool  # |empirical - analytic| <= 4 standard errors


def _philox_lanes(key: int, counters: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Output words 0 and 1 of Philox4x64-10 at ``(1, 0, i, 0)``, on integer lanes.

    Each state word of all ``n`` trials is one Python integer whose 128-bit
    lane ``j`` holds the word of trial ``j``, low 64 bits used.  A 64x64-bit
    product fills its lane exactly and never carries into the next one, so
    one multiply and one shift give every trial's high and low halves.
    Words 1 and 3 keep the whole products: the high halves above their low
    64 bits are xored into words 0 and 2, masked away there, and never read
    out.  The key lanes step by adding the increment to every lane; the
    carry out of a lane's low 64 bits stays in its lane and is masked away
    too.  Python's ``&`` binds tighter than ``^``, hence the parentheses.
    Packing and unpacking go through little-endian words, whatever the
    host's byte order.
    """
    n = len(counters)
    packed = np.zeros((n, 2), dtype="<u8")
    packed[:, 0] = counters
    ones = int.from_bytes(_LANE_ONE * n, "little")
    low = ones * _MASK64
    k0, k1 = key * ones, 0
    w0, w1 = _PHILOX_W[0] * ones, _PHILOX_W[1] * ones
    x0, x1, x2, x3 = ones, 0, int.from_bytes(packed.tobytes(), "little"), 0
    for _ in range(10):
        p0, p2 = x0 * _PHILOX_M[0], x2 * _PHILOX_M[1]
        x0, x1, x2, x3 = ((p2 >> 64) ^ x1 ^ k0) & low, p2, ((p0 >> 64) ^ x3 ^ k1) & low, p0
        k0 += w0
        k1 += w1
    words = np.frombuffer(x0.to_bytes(16 * n, "little") + x1.to_bytes(16 * n, "little"), dtype="<u8")[::2]
    return words[:n], words[n:]


def _philox_numpy(key: int, counters: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Output words 0 and 1 of Philox4x64-10 at ``(1, 0, i, 0)``, vectorised in numpy.

    The state is kept as two ``(2, n)`` arrays, the multiplied words 0 and
    2 and the passed-through words 1 and 3, and the 64x64 -> 128-bit
    products are assembled from 32-bit halves.
    """
    x = np.empty((2, len(counters)), dtype=np.uint64)
    x[0] = 1
    x[1] = counters
    y = np.zeros_like(x)
    keys = np.array(
        [[[(key + r * _PHILOX_W[0]) & _MASK64], [(r * _PHILOX_W[1]) & _MASK64]] for r in range(10)],
        dtype=np.uint64,
    )
    m_lo, m_hi = _PHILOX_M_COL & 0xFFFFFFFF, _PHILOX_M_COL >> 32
    for round_key in keys:
        x_lo, x_hi = x & 0xFFFFFFFF, x >> 32
        lo_lo, hi_lo = m_lo * x_lo, m_hi * x_lo
        cross = (lo_lo >> 32) + (hi_lo & 0xFFFFFFFF) + m_lo * x_hi
        hi = m_hi * x_hi + (hi_lo >> 32) + (cross >> 32)
        y, x = (_PHILOX_M_COL * x)[::-1], hi[::-1] ^ y ^ round_key
    return x[0], y[0]


def _philox_uniforms(key: int, counters: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two doubles of each trial counter ``i``: Philox4x64-10 at ``(1, 0, i, 0)``."""
    kernel = _philox_lanes if len(counters) <= _LANES_MAX else _philox_numpy
    return tuple((w >> 11) * 2.0**-53 for w in kernel(key, counters))


def _sample_trials(
    prior: Prior, povm: Povm, rho1: DensityMatrix, rho2: DensityMatrix, n_trials: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(lam, outcome)`` arrays of trials ``0..n_trials-1`` of the run ``seed``.

    Outcome ``m`` is the first whose cumulative probability, summed left to
    right over ``max(lam tr[E rho1] + (1 - lam) tr[E rho2], 0)``, exceeds
    the second double times the total; the last outcome otherwise.
    """
    if n_trials < 1:
        raise BadParameter(f"need at least one trial, got {n_trials}")
    t1, t2 = _traces(povm.matrices(), (rho1.matrix, rho2.matrix))
    key = int(seed) & _MASK64
    lam = np.empty(n_trials)
    outcome = np.empty(n_trials, dtype=np.intp)
    for start in range(0, n_trials, _CHUNK):
        block = slice(start, min(start + _CHUNK, n_trials))
        u_lam, u_outcome = _philox_uniforms(key, np.arange(block.start, block.stop, dtype=np.uint64))
        lam[block] = prior.sample_from_uniform(u_lam)
        lam_col = lam[block, None]
        acc = np.cumsum(np.maximum(lam_col * t1 + (1.0 - lam_col) * t2, 0.0), axis=1)
        hit = (u_outcome * acc[:, -1])[:, None] < acc
        outcome[block] = np.where(hit.any(axis=1), hit.argmax(axis=1), len(t1) - 1)
    return lam, outcome


def _simulation_columns(
    povm, prior: Prior, rho1: DensityMatrix, rho2: DensityMatrix, n_trials: int, seed: int
) -> tuple[SimulationSummary, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The summary and the per-trial columns ``(lam, outcome, estimates, errors)``.

    ``estimates`` holds one Bayes estimate per outcome, so trial ``i``
    estimated ``estimates[outcome[i]]``; the other columns hold one entry
    per trial.
    """
    povm = as_povm(povm)
    score = q_functional(povm, prior, rho1, rho2)
    lam, outcome = _sample_trials(prior, povm, rho1, rho2, n_trials, seed)
    estimates = np.array([o.estimate for o in score.per_outcome])
    errors = np.square(lam - estimates[outcome])
    mse = float(errors.mean())
    std_error = float(errors.std(ddof=1) / math.sqrt(n_trials)) if n_trials > 1 else float("inf")
    summary = SimulationSummary(
        n_trials=n_trials,
        empirical_mse=mse,
        analytic_mean_variance=score.mean_variance,
        std_error=std_error,
        seed=int(seed) & _MASK64,
        consistent=abs(mse - score.mean_variance) <= 4.0 * std_error,
    )
    return summary, (lam, outcome, estimates, errors)


def run_simulation(
    povm,
    prior: Prior,
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    n_trials: int,
    seed: int,
    return_records: bool = False,
):
    """Draw states and outcomes; compare empirical MSE to the analytic value.

    Per trial: draw ``lam`` from the prior, draw an outcome from
    ``tr[E_m rho_lam]``, record the Bayes estimate of that outcome and its
    squared error.  Returns a :class:`SimulationSummary`, plus the list of
    :class:`TrialRecord` when ``return_records`` is set.  The records and
    the CLI's ``simulate --trials-out`` CSV come from the same per-trial
    columns; the CLI writes them without building records.
    """
    summary, (lam, outcome, estimates, errors) = _simulation_columns(povm, prior, rho1, rho2, n_trials, seed)
    if not return_records:
        return summary
    columns = (lam, outcome, estimates[outcome], errors)
    return summary, list(map(TrialRecord, *(c.tolist() for c in columns)))


@dataclass(frozen=True)
class DecayEstimation:
    """Optimal measurement for the decay problem plus rate read-out.

    ``b_estimates`` maps the per-outcome Bayes estimates of the mixing
    parameter through ``B = -ln(lam) / t``; that plug-in transform is not
    itself a Bayes estimator of the rate.  ``q_star`` is the
    Bayesian-SLD optimum, which the qubit answer reaches.
    """

    prior: Prior
    report: EstimationReport
    b_estimates: tuple[float, ...]
    q_star: float


def solve_decay_estimation(model: DecoherenceModel, uniform_prior: bool = False) -> DecayEstimation:
    """Optimal single-copy measurement of the decay rate.

    A uniformly distributed rate induces a reciprocal prior on the mixing
    parameter; :func:`~mixest.highdim.solve` does the rest, with the
    closed-form qubit answer and its ``q_star``.  Passing
    ``uniform_prior=True`` overrides the induced prior with the flat one.
    """
    eq = model.equilibrium
    if float(np.max(np.abs(model.rho0.matrix - eq.matrix))) <= DEFAULT_POLICY.degenerate_tol:
        raise DegenerateProblem("initial state equals the equilibrium state; decay is invisible")
    prior = Prior.uniform() if uniform_prior else Prior.truncated_reciprocal(model.t_bmax)
    outcome = solve(prior, model.rho0, eq)
    report = outcome.report
    lo = math.exp(-model.t_bmax)
    b_estimates = tuple(
        -math.log(min(max(g, lo), 1.0)) / model.t for g in report.estimates
    )
    return DecayEstimation(prior=prior, report=report, b_estimates=b_estimates, q_star=outcome.q_star)


# --- two-qubit entanglement demo -------------------------------------------

WITNESS = np.zeros((4, 4), dtype=complex)
WITNESS[0, 0] = 1.0  # |00><00|
WITNESS[1, 2] = 1.0  # |01><10|
WITNESS[2, 1] = 1.0  # |10><01|
WITNESS[3, 3] = 1.0  # |11><11|
WITNESS.setflags(write=False)
_PPT_TOL = 1e-10  # a partial-transpose eigenvalue below -_PPT_TOL means entangled


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


def is_entangled(m: np.ndarray) -> bool:
    """Partial-transpose test; exact for two qubits."""
    return min_ppt_eigenvalue(m) < -_PPT_TOL


def noisy_state(psi: np.ndarray, lam: float) -> np.ndarray:
    psi = _unit_vector(psi)
    return lam * np.outer(psi, psi.conj()) + (1.0 - lam) * np.eye(len(psi)) / len(psi)


def _schmidt_root(psi: np.ndarray) -> float:
    """``sqrt(p1 p2)`` from the Schmidt weights of a unit two-qubit vector.

    The Schmidt coefficients are the singular values of the 2x2 amplitude
    matrix, so their product is the modulus of its determinant.
    """
    return float(abs(psi[0] * psi[3] - psi[1] * psi[2]))


def ppt_threshold(psi: np.ndarray) -> float | None:
    """Smallest mixing weight at which the noisy state turns entangled.

    The partial transpose of ``lam |psi><psi| + (1 - lam) I/4`` has smallest
    eigenvalue ``(1 - lam)/4 - lam s`` with ``s = sqrt(p1 p2)`` from the
    Schmidt weights of ``psi``, so the threshold is ``1 / (1 + 4 s)``.
    Returns None for a product state (``s < 1e-12``).
    """
    s = _schmidt_root(_unit_vector(psi, 4))
    return None if s < 1e-12 else 1.0 / (1.0 + 4.0 * s)


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
) -> EntanglementDemo:
    """Estimate the noise weight of a two-qubit state, then test separability.

    The measurement is the paper's subspace test ``{P, I - P}``, ``P`` the
    projector on ``psi``: the optimum for a pure state against white noise
    under any prior.  It is built here directly, which is cheaper than the
    Bayesian-SLD route of :func:`~mixest.highdim.solve_pure_plus_noise`;
    the outcome carries no ``q_star``.  Per trial the mixing parameter is
    estimated from a single simulated measurement and the
    partial-transpose verdict is evaluated both at the estimate and at the
    true value; the witness expectation is reported alongside for
    comparison.  One copy never decides entanglement unambiguously, so the
    rows carry no confidence statement.
    """
    psi = _unit_vector(psi, 4)
    prior = prior or Prior.uniform()
    reject_degenerate_prior(prior)
    rho1, rho2 = _trusted_states([np.outer(psi, psi.conj()), np.eye(4, dtype=complex) / 4.0])
    povm = _trusted_povm([rho1.matrix, np.eye(4, dtype=complex) - rho1.matrix])
    report = EstimationReport(povm=povm, score=q_functional(povm, prior, rho1, rho2))
    outcome = ReductionOutcome(ReductionKind.PURE_WITH_NOISE, _PURE_CERTIFICATE, report)
    lam, index = _sample_trials(prior, povm, rho1, rho2, n_trials, seed)
    est = np.array(report.estimates)[index]

    # closed forms at weight x: the smallest partial-transpose eigenvalue
    # (1 - x)/4 - x s, and the witness x <psi|W|psi> + (1 - x)/2 (tr W = 2)
    s = _schmidt_root(psi)
    w_pure = float(np.vdot(psi, WITNESS @ psi).real)

    def entangled(x):
        return ((1.0 - x) / 4.0 - x * s < -_PPT_TOL).tolist()

    def witness(x):
        return (x * w_pure + (1.0 - x) / 2.0).tolist()

    columns = (lam.tolist(), est.tolist(), entangled(est), entangled(lam), witness(est), witness(lam))
    rows = tuple(map(DemoRow, *columns))
    return EntanglementDemo(outcome=outcome, rows=rows, threshold=ppt_threshold(psi))
