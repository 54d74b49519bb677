"""Solver entry point for problems in any dimension d >= 2.

:func:`solve` builds the Bayesian SLD ``L`` of the problem once
(:func:`~mixest.bayes._sld`) and reports its optimum ``q_star`` on every
route.  It tries the routes in this order and returns the first that
applies:

* qubits -> the closed-form optimal PVM of :func:`optimal_pvm`,
* a pure state mixed with white noise, then commuting states, then
  states supported on one two-dimensional subspace -> the projectors
  onto the eigenspaces of ``L``, the exact optimum in any dimension;
  each route checks its own condition first, and they differ only in
  ``kind`` and ``certificate``,
* otherwise, embed the two states in a two-generator coordinate plane,
  solve the planar problem there, and rebuild a candidate two-outcome
  measurement.  The rebuilt effects need not be positive in dimension
  three or higher; when positivity fails the outcome is marked
  "unreduced" and no optimality claim is made.

Every solved route scores its measurement with the score of
:func:`q_functional`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bayes import (
    EstimationReport,
    Prior,
    _score,
    _sld,
    _sld_povm,
    _weighted_states,
    q_functional,
    reject_degenerate_prior,
)
from .errors import (
    BasisAlignmentFailed,
    DegenerateProblem,
    DimensionMismatch,
    NotCommuting,
    SupportTooLarge,
    WrongDimension,
)
from .policy import DEFAULT_POLICY
from .qubit import optimal_alpha, optimal_pvm, planar_geometry_from_coords
from .states import DensityMatrix, _trusted_povm, _trusted_states, _unit_vector, commutator_norm


class ReductionKind(str, Enum):
    QUBIT = "qubit"
    COMMUTING = "commuting"
    TWO_DIM_SUBSPACE = "two_dim_subspace"
    PURE_WITH_NOISE = "pure_with_noise"
    EMBEDDED = "embedded"
    UNREDUCED = "unreduced"


@dataclass(frozen=True)
class ReductionOutcome:
    """Result of a route: the measurement, its score and how it was found.

    A solved route carries its ``report``.  An unreduced outcome has no
    report: it keeps the raw candidate effects (they failed positivity)
    and ``reduced_q``, the planar optimum they were built from.
    ``q_star`` is the Bayesian-SLD optimum of the problem: :func:`solve`
    sets it on every route, as do the routes that build ``L``; only
    :func:`embed_and_check` called on its own leaves it None.
    """

    kind: ReductionKind
    certificate: str
    report: EstimationReport | None = None
    reduced_q: float | None = None
    candidate_effects: tuple[np.ndarray, ...] | None = None
    min_eigenvalue: float | None = None
    q_star: float | None = None


_TWO_DIM_CERTIFICATE = "eigenspaces of the Bayesian SLD on the joint two-dimensional support"
_PURE_CERTIFICATE = "subspace test on the pure state against white noise"


def solve(
    prior: Prior,
    rho1: DensityMatrix,
    rho2: DensityMatrix,
) -> ReductionOutcome:
    """The Bayes-optimal measurement for ``lam rho1 + (1 - lam) rho2``.

    Picks the first route that applies, in the order of the module
    docstring.  A pure state against white noise is tested before the
    commuting route, which would also apply (white noise commutes with
    everything).  Each guard is measured once: the commutator norm and
    support rank that pick a route are not measured again, as they are
    by :func:`solve_commuting` and :func:`solve_two_dim_support` called on
    their own.
    """
    if rho1.dim != rho2.dim:
        raise DimensionMismatch(f"states have different dimensions {rho1.dim} vs {rho2.dim}")
    d = rho1.dim
    if d < 2:
        raise WrongDimension(f"states are {d}x{d} matrices; the problem needs dimension >= 2")
    if d == 2:
        outcome = ReductionOutcome(
            ReductionKind.QUBIT, "closed-form optimal angle of the qubit problem", optimal_pvm(prior, rho1, rho2)
        )
    else:
        # the routes below skip their public functions' checks
        reject_degenerate_prior(prior)
        if _pure_state_against_noise(rho1, rho2):
            return _sld_outcome(ReductionKind.PURE_WITH_NOISE, _PURE_CERTIFICATE, prior, rho1, rho2)
        cnorm = commutator_norm(rho1, rho2)
        if cnorm < DEFAULT_POLICY.commute_tol:
            return _sld_outcome(ReductionKind.COMMUTING, _commuting_certificate(cnorm), prior, rho1, rho2)
        if support_rank(rho1, rho2) <= 2:
            return _sld_outcome(ReductionKind.TWO_DIM_SUBSPACE, _TWO_DIM_CERTIFICATE, prior, rho1, rho2)
        outcome = embed_and_check(prior, rho1, rho2)
    # the qubit closed form and the embedding do not build L
    return dataclasses.replace(outcome, q_star=_sld(prior, _weighted_states(prior, rho1, rho2))[0])


def _pure_state_against_noise(rho1: DensityMatrix, rho2: DensityMatrix) -> bool:
    """Whether rho2 is white noise and rho1 is pure."""
    d = rho1.dim
    if np.max(np.abs(rho2.matrix - np.eye(d) / d)) > 1e-10:
        return False
    return bool(np.linalg.eigvalsh(rho1.matrix)[-1] >= 1.0 - 1e-10)


def _sld_outcome(
    kind: ReductionKind, certificate: str, prior: Prior, rho1: DensityMatrix, rho2: DensityMatrix
) -> ReductionOutcome:
    """The route's answer: the eigenspaces of the Bayesian SLD, scored, with ``q_star``."""
    states = _weighted_states(prior, rho1, rho2)
    sld = _sld(prior, states)
    povm = _sld_povm(sld)
    degenerate = float(np.max(np.abs(rho1.matrix - rho2.matrix))) <= DEFAULT_POLICY.degenerate_tol
    report = EstimationReport(povm=povm, score=_score(povm.matrices(), prior, states), degenerate=degenerate)
    return ReductionOutcome(kind, certificate, report, q_star=sld[0])


def _commuting_certificate(cnorm: float) -> str:
    return f"common eigenbasis of commuting states (commutator norm {cnorm:.2e})"


def _check_problem(prior: Prior, rho1: DensityMatrix, rho2: DensityMatrix) -> None:
    if rho1.dim != rho2.dim:
        raise DimensionMismatch(f"dims {rho1.dim} vs {rho2.dim}")
    reject_degenerate_prior(prior)


def solve_commuting(prior: Prior, rho1: DensityMatrix, rho2: DensityMatrix) -> ReductionOutcome:
    """Optimal measurement for commuting states, or :class:`NotCommuting`.

    The eigenspaces of the Bayesian SLD are spanned by common eigenvectors
    of the two states, one projector per distinct estimate.
    """
    _check_problem(prior, rho1, rho2)
    cnorm = commutator_norm(rho1, rho2)
    if cnorm >= DEFAULT_POLICY.commute_tol:
        raise NotCommuting(cnorm)
    return _sld_outcome(ReductionKind.COMMUTING, _commuting_certificate(cnorm), prior, rho1, rho2)


def support_rank(rho1: DensityMatrix, rho2: DensityMatrix) -> int:
    """Rank of the joint support of the two states."""
    evals = np.linalg.eigvalsh((rho1.matrix + rho2.matrix) / 2.0)
    return int(np.sum(evals > DEFAULT_POLICY.support_tol))


def solve_two_dim_support(prior: Prior, rho1: DensityMatrix, rho2: DensityMatrix) -> ReductionOutcome:
    """Optimal measurement for states sharing a two-dimensional support.

    The eigenspaces of the Bayesian SLD give at most two projectors
    inside the support and, in dimension three or more, its complement as
    a zero-probability outcome.  A larger support raises
    :class:`SupportTooLarge`.
    """
    _check_problem(prior, rho1, rho2)
    rank = support_rank(rho1, rho2)
    if rank > 2:
        raise SupportTooLarge(rank, float(np.linalg.eigvalsh((rho1.matrix + rho2.matrix) / 2.0)[-3]))
    return _sld_outcome(ReductionKind.TWO_DIM_SUBSPACE, _TWO_DIM_CERTIFICATE, prior, rho1, rho2)


def solve_pure_plus_noise(prior: Prior, psi: np.ndarray, dim: int | None = None) -> ReductionOutcome:
    """Optimal measurement for a pure state mixed with white noise.

    Returns the answer :func:`solve` gives for ``(|psi><psi|, I/d)`` in
    dimension three or more: the eigenspaces of the Bayesian SLD, which
    form the subspace test ``{I - P, P}`` with ``P`` the projector on the
    pure state, in ascending-estimate order, scored and with ``q_star``,
    for any prior.  A qubit vector gets the same eigenspaces.
    """
    psi = _unit_vector(psi, dim)
    d = len(psi)
    reject_degenerate_prior(prior)
    rho1, rho2 = _trusted_states([np.outer(psi, psi.conj()), np.eye(d, dtype=complex) / d])
    return _sld_outcome(ReductionKind.PURE_WITH_NOISE, _PURE_CERTIFICATE, prior, rho1, rho2)


def aligned_basis(rho1: DensityMatrix, rho2: DensityMatrix) -> tuple[np.ndarray, ...]:
    """The d^2 - 1 orthonormal traceless generators, first two spanning the states' plane.

    The first two generators are the plane of :func:`_aligned_plane`; the
    remaining ones are Gell-Mann completions.  :func:`embed_and_check`
    needs only the plane and does not build this basis.
    """
    d = rho1.dim
    return tuple(_gell_mann_completion(list(_aligned_plane(rho1, rho2)), d * d - 1))


def _aligned_plane(rho1: DensityMatrix, rho2: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal generators (G_1, G_2) of the plane holding both states.

    G_1 points along rho1 - rho2; G_2 completes the plane by Gram-Schmidt
    on rho1 - I/d.  When rho1 - I/d is collinear with G_1 (one state is
    white noise), G_2 comes from the Gell-Mann completion instead.
    """
    d = rho1.dim
    if rho2.dim != d:
        raise DimensionMismatch(f"dims {d} vs {rho2.dim}")
    diff = rho1.matrix - rho2.matrix
    dn = _hs_norm(diff)
    if dn <= DEFAULT_POLICY.degenerate_tol:
        raise DegenerateProblem("rho1 = rho2: no alignment direction")
    g1 = diff / dn

    a1 = rho1.matrix - np.eye(d) / d
    resid = a1 - _hs_inner(g1, a1) * g1
    rn = _hs_norm(resid)
    if rn > 1e-9:
        return g1, resid / rn
    return tuple(_gell_mann_completion([g1], 2))


def _gell_mann(d: int):
    """Generalized Gell-Mann generators, ordered symmetric / antisymmetric / diagonal.

    Normalized so that tr(G_i G_j) = delta_ij; for d = 2 this is the Pauli
    triple divided by sqrt(2).
    """
    pairs = [(j, k) for k in range(1, d) for j in range(k)]
    for upper, lower in ((1.0, 1.0), (-1.0j, 1.0j)):
        for j, k in pairs:
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = upper
            m[k, j] = lower
            yield m / np.sqrt(2.0)
    for level in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(level), np.arange(level)] = 1.0
        m[level, level] = -float(level)
        yield m / np.sqrt(level * (level + 1))


def _gell_mann_completion(generators: list, count: int) -> list:
    """Extend orthonormal generators to ``count`` by Gram-Schmidt on the Gell-Mann family."""
    d = generators[0].shape[0]
    for cand in _gell_mann(d):
        if len(generators) == count:
            break
        for g in generators:
            cand = cand - _hs_inner(g, cand) * g
        cn = _hs_norm(cand)
        if cn > 1e-6:
            generators.append(cand / cn)
    assert len(generators) == count
    return generators


def _hs_inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.trace(a.conj().T @ b).real)


def _hs_norm(a: np.ndarray) -> float:
    return math.sqrt(max(_hs_inner(a, a), 0.0))


def embed_and_check(
    prior: Prior,
    rho1: DensityMatrix,
    rho2: DensityMatrix,
) -> ReductionOutcome:
    """Two-generator embedding with a positivity check on the rebuilt effects.

    The two states are written over (G_0, G_1, G_2); the planar solver
    finds the optimal direction; the candidate effect is the trace-one
    reconstruction along that direction, completed by its complement.
    Both signs of the direction are tried.  If neither candidate pair is
    positive the problem stays unreduced and no optimality is claimed.  A
    feasible pair is built unchecked; its first effect is made exactly
    Hermitian before the complement is taken, so that the printed pair
    passes ``validate_povm`` when ``simulate --povm FILE`` reads it back.

    Only the plane (G_1, G_2) of :func:`_aligned_plane` enters; the full
    :func:`aligned_basis` is never built.  If a state is not rebuilt from
    its plane coordinates to 1e-8, :class:`BasisAlignmentFailed` is raised.
    """
    _check_problem(prior, rho1, rho2)
    d = rho1.dim
    if float(np.max(np.abs(rho1.matrix - rho2.matrix))) <= DEFAULT_POLICY.degenerate_tol:
        raise DegenerateProblem("rho1 = rho2")
    g1, g2 = _aligned_plane(rho1, rho2)

    # expressibility over (G_0, G_1, G_2)
    scale = d / math.sqrt(d * d - d)
    coords = []
    for rho in (rho1, rho2):
        x = _hs_inner(g1, rho.matrix) * scale
        y = _hs_inner(g2, rho.matrix) * scale
        recon = (np.eye(d) + math.sqrt(d * d - d) * (x * g1 + y * g2)) / d
        resid = float(np.max(np.abs(rho.matrix - recon)))
        if resid > 1e-8:
            raise BasisAlignmentFailed(resid)
        coords.append(np.array([x, y]))
    r1, r2 = coords

    w = prior.second_moment / prior.mean
    r_a = w * r1 + (1.0 - w) * r2
    r_b = prior.mean * r1 + (1.0 - prior.mean) * r2
    geom = planar_geometry_from_coords(r_a, r_b, scale=prior.mean**2)
    sol = optimal_alpha(geom)
    u = geom.direction(sol.alpha)

    candidates = []
    for v in (u, -u):
        first = (np.eye(d) + math.sqrt(d * d - d) * (v[0] * g1 + v[1] * g2)) / d
        first = (first + first.conj().T) / 2
        second = np.eye(d) - first
        min_eig = min(float(np.linalg.eigvalsh(first)[0]), float(np.linalg.eigvalsh(second)[0]))
        candidates.append((first, second, min_eig))

    feasible = [c for c in candidates if c[2] >= -DEFAULT_POLICY.psd_tol]
    if not feasible:
        first, second, min_eig = candidates[0]
        return ReductionOutcome(
            kind=ReductionKind.UNREDUCED,
            certificate=(
                "embedded candidate effects are not positive "
                f"(min eigenvalue {min_eig:.3e}); no optimality claim"
            ),
            reduced_q=sol.q_max,
            candidate_effects=(first, second),
            min_eigenvalue=min_eig,
        )

    best = None
    for first, second, min_eig in feasible:
        povm = _trusted_povm([first, second])
        score = q_functional(povm, prior, rho1, rho2)
        if best is None or score.q_value > best[1].q_value:
            best = (povm, score, min_eig)
    povm, score, min_eig = best
    report = EstimationReport(povm=povm, score=score, alpha0=sol.alpha)
    return ReductionOutcome(
        kind=ReductionKind.EMBEDDED,
        certificate="two-generator embedding; rebuilt effects are positive",
        report=report,
        min_eigenvalue=min_eig,
    )
