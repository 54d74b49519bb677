"""Solver entry point for problems in any dimension d >= 2.

Every solver here returns a finished answer: it builds the Bayesian SLD
``L`` of the problem once (:func:`~mixest.bayes._sld`) and sets its
optimum ``q_star`` itself, so :func:`solve` only picks a route.  It tries
the routes in this order and returns the first that applies:

* qubits -> the closed-form optimal PVM of :func:`optimal_pvm`,
* a pure state mixed with white noise, then commuting states, then
  states supported on one two-dimensional subspace -> the projectors
  onto the eigenspaces of ``L``, the exact optimum in any dimension;
  each route checks its own condition first, and they differ only in
  ``kind`` and ``certificate``,
* otherwise, embed the two states in a two-generator coordinate plane,
  solve the planar problem there, and rebuild a candidate two-outcome
  measurement.  In dimension three or higher the rebuilt effects are
  positive only when they form the subspace test ``{P, I - P}`` of a
  pure state in the states' plane; otherwise the outcome is marked
  "unreduced" and no optimality claim is made.

Every solved route scores its measurement with
:func:`~mixest.bayes._score` on the stack of
:func:`~mixest.bayes._weighted_states`, the score of
:func:`~mixest.bayes.q_functional`.  Every public function here first
runs the one problem check, :func:`~mixest.bayes._check_problem`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bayes import (
    EstimationReport,
    Prior,
    _check_problem,
    _check_states,
    _score,
    _sld,
    _sld_povm,
    _weighted_states,
    reject_degenerate_prior,
)
from .errors import NotCommuting, SupportTooLarge
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
    ``q_star`` is the Bayesian-SLD optimum of the problem, set by every
    solver on every outcome, solved or not; it is None only where no
    solver ran (:func:`~mixest.simulate.entanglement_demo`).
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
    _check_problem(prior, rho1, rho2)
    if rho1.dim == 2:
        return ReductionOutcome(
            ReductionKind.QUBIT, "closed-form optimal angle of the qubit problem", optimal_pvm(prior, rho1, rho2),
            q_star=_sld(prior, _weighted_states(prior, rho1, rho2))[0],
        )
    if _pure_state_against_noise(rho1, rho2):
        return _sld_outcome(ReductionKind.PURE_WITH_NOISE, _PURE_CERTIFICATE, prior, rho1, rho2)
    cnorm = commutator_norm(rho1, rho2)
    if cnorm < DEFAULT_POLICY.commute_tol:
        return _sld_outcome(ReductionKind.COMMUTING, _commuting_certificate(cnorm), prior, rho1, rho2)
    if support_rank(rho1, rho2) <= 2:
        return _sld_outcome(ReductionKind.TWO_DIM_SUBSPACE, _TWO_DIM_CERTIFICATE, prior, rho1, rho2)
    return embed_and_check(prior, rho1, rho2)


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
    report = EstimationReport(povm=povm, score=_score(povm.matrices(), prior, states))
    return ReductionOutcome(kind, certificate, report, q_star=sld[0])


def _commuting_certificate(cnorm: float) -> str:
    return f"common eigenbasis of commuting states (commutator norm {cnorm:.2e})"


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
    _check_states(rho1, rho2)
    d = rho1.dim
    return tuple(_gell_mann_completion(list(_aligned_plane(rho1, rho2)), d * d - 1))


def _aligned_plane(rho1: DensityMatrix, rho2: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal generators (G_1, G_2) of the plane holding both states.

    G_1 points along rho1 - rho2, nonzero by the callers' state check; G_2
    completes the plane by Gram-Schmidt on rho1 - I/d, in two passes
    against G_1, so that G_2 stays orthogonal to G_1 to rounding even when
    the part of rho1 - I/d off G_1 is tiny (a state 1e-8 off white noise).
    Both states then lie in span{I, G_1, G_2} by construction.  When
    rho1 - I/d is collinear with G_1 (one state is white noise), G_2 comes
    from the Gell-Mann completion instead.
    """
    d = rho1.dim
    diff = rho1.matrix - rho2.matrix
    g1 = diff / _hs_norm(diff)

    a1 = rho1.matrix - np.eye(d) / d
    resid = a1 - _hs_inner(g1, a1) * g1
    resid = resid - _hs_inner(g1, resid) * g1
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
    return float(np.vdot(a, b).real)


def _hs_norm(a: np.ndarray) -> float:
    return math.sqrt(max(_hs_inner(a, a), 0.0))


def embed_and_check(
    prior: Prior,
    rho1: DensityMatrix,
    rho2: DensityMatrix,
) -> ReductionOutcome:
    """Two-generator embedding: the subspace test of a pure state in the states' plane, or nothing.

    Both states, and so the mixtures of :func:`~mixest.bayes._weighted_states`,
    lie in span{I, G_1, G_2} of :func:`_aligned_plane`; the planar solver
    finds the optimal unit direction ``u`` from the plane coordinates of
    rho_a and rho_b.  The candidate pairs are ``{E, I - E}``, ``E = (I +- A)/d``
    with ``A = sqrt(d^2 - d) (u_1 G_1 + u_2 G_2)`` made exactly Hermitian,
    so that ``simulate --povm FILE`` accepts the printed pair.  One spectrum
    of ``A`` gives the smallest eigenvalue of all four effects.

    At most one sign gives a positive pair: a traceless ``A`` of norm
    ``sqrt(d^2 - d)`` has smallest eigenvalue at most -1 (the d numbers
    ``a_i - a_min`` are non-negative and sum to ``-d a_min``), with equality
    only for ``A = dP - I``, ``P`` a rank-one projector.  So a positive ``E``
    is ``P``, and the other sign has eigenvalue ``(2 - d)/d`` on ``P``; at
    d = 2 both signs give the same two projectors.  The embedding answers
    only with the subspace test ``{P, I - P}`` of a pure state in the
    states' plane, scored on the same stack; otherwise the problem stays
    unreduced, with the ``+`` pair as candidates, and no optimality is claimed.
    Both outcomes carry ``q_star``, the SLD optimum of the same stack.
    """
    _check_problem(prior, rho1, rho2)
    d = rho1.dim
    g1, g2 = _aligned_plane(rho1, rho2)
    states = _weighted_states(prior, rho1, rho2)  # rho_a, rho_b, rho_c
    scale = d / math.sqrt(d * d - d)
    r_a, r_b = (scale * np.array([_hs_inner(g1, m), _hs_inner(g2, m)]) for m in states[:2])
    geom = planar_geometry_from_coords(r_a, r_b, scale=prior.mean**2)
    sol = optimal_alpha(geom)
    u = geom.direction(sol.alpha)

    a = math.sqrt(d * d - d) * (u[0] * g1 + u[1] * g2)
    a = (a + a.conj().T) / 2
    lo, hi = np.linalg.eigvalsh(a)[[0, -1]].tolist()
    plus = min((1.0 + lo) / d, 1.0 - (1.0 + hi) / d)
    minus = min((1.0 - hi) / d, 1.0 - (1.0 - lo) / d)
    sign, min_eig = (-1.0, minus) if plus < -DEFAULT_POLICY.psd_tol <= minus else (1.0, plus)
    first = (np.eye(d) + sign * a) / d
    effects = (first, np.eye(d) - first)
    q_star = _sld(prior, states)[0]
    if min_eig < -DEFAULT_POLICY.psd_tol:
        return ReductionOutcome(
            kind=ReductionKind.UNREDUCED,
            certificate=(
                "embedded candidate effects are not positive "
                f"(min eigenvalue {min_eig:.3e}); no optimality claim"
            ),
            reduced_q=sol.q_max,
            candidate_effects=effects,
            min_eigenvalue=min_eig,
            q_star=q_star,
        )
    povm = _trusted_povm(effects)
    report = EstimationReport(povm=povm, score=_score(effects, prior, states), alpha0=sol.alpha)
    return ReductionOutcome(
        kind=ReductionKind.EMBEDDED,
        certificate="two-generator embedding; rebuilt effects are positive",
        report=report,
        min_eigenvalue=min_eig,
        q_star=q_star,
    )
