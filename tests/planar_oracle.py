"""The paper's planar reduction of qubit POVMs, kept as a test reference.

The paper proves its qubit result in two steps: project any POVM onto the
plane spanned by the effective-state Bloch vectors, which leaves its score
unchanged, then split every non-pure projected effect into pure effects,
which never lowers it.  The library gets the optimum in closed form
(:func:`mixest.qubit.optimal_alpha`) and does not need this argument, so
it lives here, where the tests use it as an independent route to the same
numbers.  It also keeps the planar score in its angle form
(:func:`planar_q`), the uniform-prior score written symmetrically in the
two states (:func:`q_permutation_form`) and the pinching of a POVM onto a
basis (:func:`pinch_to_basis`), which leaves the score of commuting states
unchanged.  The common eigenbasis of two commuting states
(:func:`common_eigenbasis`) and the Bayesian SLD bound (:func:`sld_q`) are
the references for the library's SLD eigenspace solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mixest.bayes import UNIFORM, Prior, _traces, effective_states
from mixest.errors import DimensionMismatch, EstimationError, InvalidPovm, NotCommuting, WrongDimension
from mixest.policy import DEFAULT_POLICY
from mixest.qubit import PlanarGeometry, planar_geometry
from mixest.states import (
    DensityMatrix,
    Effect,
    Povm,
    _pauli_coords,
    as_povm,
    bloch_compose,
    commutator_norm,
    validate_povm,
)

# off-diagonal entries allowed after the joint diagonalisation
DIAG_TOL = 1e-8


class AlreadyPure(EstimationError):
    """:func:`split_effect` got an effect of rank below two."""


class NonUniformPrior(EstimationError):
    """:func:`q_permutation_form` got a prior other than the uniform one."""


def effect_bloch(effect: Effect) -> tuple[float, np.ndarray]:
    """Return (p, r) with ``effect = p (I + r . sigma)``; r is zero for p = 0."""
    if effect.dim != 2:
        raise WrongDimension(f"expected a qubit effect, got dim {effect.dim}")
    p = float(np.trace(effect.matrix).real) / 2.0
    if p < 1e-300:
        return 0.0, np.zeros(3)
    r = np.array(_pauli_coords(effect.matrix)) / (2.0 * p)
    return p, r


@dataclass(frozen=True)
class PlanarPovm:
    """Pure planar effects as (weight, angle) pairs.

    Weights refer to the form ``E = p (I + r . sigma)`` with unit ``r``, so
    completeness reads ``sum p = 1`` and ``sum p (cos a, sin a) = 0``.
    Extremal planar measurements need at most three outcomes; reductions of
    arbitrary POVMs may carry more.
    """

    outcomes: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.outcomes:
            raise InvalidPovm("planar POVM needs at least one outcome")
        w = np.array([o[0] for o in self.outcomes])
        a = np.array([o[1] for o in self.outcomes])
        if np.any(w <= 0):
            raise InvalidPovm("planar weights must be positive")
        sum_dev = abs(float(w.sum()) - 1.0)
        cen = np.array([float(w @ np.cos(a)), float(w @ np.sin(a))])
        cen_dev = float(np.linalg.norm(cen))
        if sum_dev > 1e-9 or cen_dev > 1e-9:
            raise InvalidPovm(
                f"planar completeness violated: sum deviation {sum_dev:.3e}, centroid {cen_dev:.3e}"
            )

    @property
    def weights(self) -> np.ndarray:
        return np.array([o[0] for o in self.outcomes])

    @property
    def angles(self) -> np.ndarray:
        return np.array([o[1] for o in self.outcomes])


@dataclass(frozen=True)
class PlanarReduction:
    """Result of projecting a POVM onto the effective-state plane.

    ``projected`` keeps the in-plane effects before purification as
    (weight, 2-vector) pairs; its score equals the input score exactly.
    ``planar`` is the pure-effect split of the projection, whose score can
    only be larger.
    """

    planar: PlanarPovm
    geometry: PlanarGeometry
    projected: tuple[tuple[float, np.ndarray], ...]


def planar_q(weights, angles, geom: PlanarGeometry):
    """Score of planar POVMs given as weight and angle arrays.

    Outcomes run along the last axis, so one call scores a single
    :class:`PlanarPovm` (``planar.weights, planar.angles``), a batch, or a
    grid of two-outcome PVMs ``{(1/2, a), (1/2, a + pi)}``.  An outcome
    whose probability per unit weight under rho_b, ``1 + r_b cos(a + gamma)``,
    is at most ``DEFAULT_POLICY.zero_prob`` never occurs and contributes zero.
    """
    angles = np.asarray(angles, dtype=float)
    proj = geom.delta_r * np.cos(angles)
    den = 1.0 + geom.r_b_norm * np.cos(angles + geom.gamma)
    occurs = den > DEFAULT_POLICY.zero_prob
    terms = np.where(occurs, weights * proj**2 / np.where(occurs, den, 1.0), 0.0)
    return geom.scale * (1.0 + terms.sum(axis=-1))


def planar_to_povm(planar: PlanarPovm, geom: PlanarGeometry) -> Povm:
    """Rebuild full qubit effects from planar weights and angles."""
    if len(geom.e_delta) != 3:
        raise WrongDimension("reconstruction needs a three-dimensional Bloch frame")
    effects = [bloch_compose(geom.direction(a), p) for p, a in planar.outcomes]
    return Povm(tuple(effects))


def projected_to_povm(projected: tuple[tuple[float, np.ndarray], ...], geom: PlanarGeometry) -> Povm:
    """Rebuild (possibly non-pure) in-plane effects from a projection."""
    if len(geom.e_delta) != 3:
        raise WrongDimension("reconstruction needs a three-dimensional Bloch frame")
    effects = [bloch_compose(q[0] * geom.e_delta + q[1] * geom.e_perp, p) for p, q in projected]
    return Povm(tuple(effects))


def reduce_to_plane(povm, rho_a: DensityMatrix, rho_b: DensityMatrix) -> PlanarReduction:
    """Project a qubit POVM onto the plane of the effective states.

    Projection drops the out-of-plane Bloch components, which the score
    never sees, so the projected measurement scores exactly like the
    input.  Non-pure projections are then split spectrally into pairs of
    pure effects at weights ``p (1 +/- |q|) / 2`` along the projected axis
    (a degenerate projection splits along the difference axis); splitting
    never lowers the score.
    """
    povm = as_povm(povm)
    if povm.dim != 2:
        raise WrongDimension("plane reduction is defined for qubit POVMs")
    geom = planar_geometry(rho_a, rho_b)
    projected: list[tuple[float, np.ndarray]] = []
    outcomes: list[tuple[float, float]] = []
    for e in povm:
        p, r = effect_bloch(e)
        if p < 1e-14:
            continue
        q2 = np.array([r @ geom.e_delta, r @ geom.e_perp])
        projected.append((p, q2))
        qn = float(np.linalg.norm(q2))
        if qn >= 1.0 - 1e-12:
            outcomes.append((p, math.atan2(q2[1], q2[0])))
            continue
        theta = math.atan2(q2[1], q2[0]) if qn > 1e-14 else 0.0
        w_plus = p * (1.0 + qn) / 2.0
        w_minus = p * (1.0 - qn) / 2.0
        if w_plus > 1e-15:
            outcomes.append((w_plus, theta))
        if w_minus > 1e-15:
            outcomes.append((w_minus, theta + math.pi))
    return PlanarReduction(PlanarPovm(tuple(outcomes)), geom, tuple(projected))


def split_effect(effect: Effect) -> tuple[Effect, Effect]:
    """Spectral split of a rank-two qubit effect into two pure parts.

    Replacing an effect by its split never decreases the measurement
    score.  A degenerate effect (proportional to the identity) is split
    along the z axis by convention.
    """
    if effect.dim != 2:
        raise WrongDimension("effect splitting is defined for qubits")
    p, r = effect_bloch(effect)
    rn = float(np.linalg.norm(r))
    if p < 1e-14 or p * (1.0 - rn) <= DEFAULT_POLICY.psd_tol:
        raise AlreadyPure("effect has rank below two; nothing to split")
    axis = r / rn if rn > 1e-14 else np.array([0.0, 0.0, 1.0])
    first = bloch_compose(axis, p * (1.0 + rn) / 2.0)
    second = bloch_compose(-axis, p * (1.0 - rn) / 2.0)
    return first, second


def q_permutation_form(povm, prior: Prior, rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Uniform-prior score written symmetrically in the two states.

    Expanding the score around the midpoint mixture gives

        (1 + sum_m tr[E_m (rho1 - rho2)]^2 / (18 tr[E_m (rho1 + rho2)])) / 4,

    manifestly invariant under swapping rho1 and rho2 and equal to
    :func:`mixest.bayes.q_functional` for the uniform prior.
    """
    if prior.kind != UNIFORM:
        raise NonUniformPrior("the permutation-symmetric form is defined for the uniform prior")
    povm = as_povm(povm)
    tot, diff = _traces(povm.matrices(), (rho1.matrix + rho2.matrix, rho1.matrix - rho2.matrix)).tolist()
    acc = 0.0
    for den, num in zip(tot, diff):
        if den < 2.0 * DEFAULT_POLICY.zero_prob:
            continue
        acc += num * num / (18.0 * den)
    return 0.25 * (1.0 + acc)


def pinch_to_basis(povm: Povm, basis: np.ndarray) -> Povm:
    """Replace every effect by its diagonal part in the given basis."""
    effects = []
    for e in povm:
        diag = np.real(np.diag(basis.conj().T @ e.matrix @ basis))
        effects.append(basis @ np.diag(diag.astype(complex)) @ basis.conj().T)
    return validate_povm(effects)


def sld_q(prior, rho1, rho2):
    """Bayesian SLD bound q* (Personick 1971): no POVM scores above it.

    Solves rho_b L + L rho_b = 2 mean rho_a on the support of rho_b, in the
    eigenbasis of rho_b, and returns tr(mean rho_a L).
    """
    rho_a, rho_b = effective_states(prior, rho1, rho2)
    e, v = np.linalg.eigh(rho_b.matrix)
    c = prior.mean * (v.conj().T @ rho_a.matrix @ v)
    den = e[:, None] + e[None, :]
    support = den > 1e-12
    sld = np.where(support, 2.0 * c / np.where(support, den, 1.0), 0.0)
    return float(np.trace(c @ sld).real)


def _phase_fix(vectors: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Make the first significant component of each column real positive."""
    out = np.array(vectors, dtype=complex)
    for k in range(out.shape[1]):
        col = out[:, k]
        idx = np.argmax(np.abs(col) > tol)
        pivot = col[idx]
        if abs(pivot) > tol:
            out[:, k] = col * (pivot.conjugate() / abs(pivot))
    return out


def common_eigenbasis(rho1: DensityMatrix, rho2: DensityMatrix) -> np.ndarray:
    """Orthonormal basis (columns) diagonalizing two commuting states.

    Degenerate eigenspaces of ``rho1`` are resolved by diagonalizing
    ``rho2`` inside them.  Raises :class:`NotCommuting` (carrying the
    commutator norm) when the states do not commute within tolerance.
    """
    if rho1.dim != rho2.dim:
        raise DimensionMismatch(f"dims {rho1.dim} vs {rho2.dim}")
    cnorm = commutator_norm(rho1, rho2)
    if cnorm >= DEFAULT_POLICY.commute_tol:
        raise NotCommuting(cnorm)

    evals, vecs = np.linalg.eigh(rho1.matrix)
    # resolve clusters of equal rho1 eigenvalues using rho2
    cluster_tol = 10 * DIAG_TOL
    start = 0
    while start < len(evals):
        stop = start + 1
        while stop < len(evals) and evals[stop] - evals[stop - 1] < cluster_tol:
            stop += 1
        if stop - start > 1:
            block = vecs[:, start:stop]
            sub = block.conj().T @ rho2.matrix @ block
            _, w = np.linalg.eigh((sub + sub.conj().T) / 2)
            vecs[:, start:stop] = block @ w
        start = stop
    vecs = _phase_fix(vecs)

    for rho in (rho1, rho2):
        diag = vecs.conj().T @ rho.matrix @ vecs
        off = float(np.max(np.abs(diag - np.diag(np.diag(diag)))))
        if off > DIAG_TOL:
            raise NotCommuting(cnorm)
    return vecs
