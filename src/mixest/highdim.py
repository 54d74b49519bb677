"""Reductions of higher-dimensional estimation problems.

Four routes, in the order the dispatcher tries them:

* commuting states -> projective measurement in the common eigenbasis,
* states supported on one two-dimensional subspace -> solve the induced
  qubit problem and lift the projectors back,
* a pure state mixed with white noise -> the two-outcome subspace test
  on the pure state,
* otherwise, embed the two states in a two-generator coordinate plane,
  solve the planar problem there, and rebuild a candidate two-outcome
  measurement.  The rebuilt effects need not be positive in dimension
  three or higher; when positivity fails the outcome is marked
  "unreduced" and no optimality claim is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bayes import (
    EstimationReport,
    Prior,
    q_functional,
    reject_degenerate_prior,
)
from .errors import (
    BasisAlignmentFailed,
    DegenerateProblem,
    DimensionMismatch,
    SupportTooLarge,
    WrongShape,
)
from .policy import DEFAULT_POLICY, NumericPolicy
from .qubit import optimal_alpha, optimal_pvm, planar_geometry_from_coords
from .states import (
    DensityMatrix,
    OperatorBasis,
    Povm,
    common_eigenbasis,
    commutator_norm,
    gell_mann_basis,
    make_operator_basis,
    validate_povm,
    validate_states,
)


class ReductionKind(str, Enum):
    COMMUTING = "commuting"
    TWO_DIM_SUBSPACE = "two_dim_subspace"
    PURE_WITH_NOISE = "pure_with_noise"
    EMBEDDED = "embedded"
    UNREDUCED = "unreduced"


@dataclass(frozen=True)
class ReductionOutcome:
    """Result of a reduction: the lifted measurement plus bookkeeping.

    ``reduced_q`` is the score computed inside the reduced representation;
    it must agree with the full-dimensional score of ``lifted_povm``.  For
    an unreduced outcome the candidate effects are kept raw (they failed
    positivity) and ``report`` is absent.
    """

    kind: ReductionKind
    certificate: str
    positivity_ok: bool
    reduced_q: float
    report: EstimationReport | None = None
    candidate_effects: tuple[np.ndarray, ...] | None = None
    min_eigenvalue: float | None = None
    degenerate: bool = False

    @property
    def lifted_povm(self) -> Povm | None:
        return self.report.povm if self.report is not None else None

    @property
    def score(self):
        return self.report.score if self.report is not None else None


def _check_problem(prior: Prior, rho1: DensityMatrix, rho2: DensityMatrix) -> None:
    if rho1.dim != rho2.dim:
        raise DimensionMismatch(f"dims {rho1.dim} vs {rho2.dim}")
    reject_degenerate_prior(prior)


def solve_commuting(
    prior: Prior,
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> ReductionOutcome:
    """Optimal measurement for commuting states: the common eigenbasis PVM.

    The rank-one PVM is the finest measurement commuting with both states;
    merging outcomes with equal eigenvalue pairs would not change the
    score, and refining cannot hurt it.  The score is computed from the
    eigenvalue lists and cross-checked against the lifted measurement.
    """
    _check_problem(prior, rho1, rho2)
    basis = common_eigenbasis(rho1, rho2, policy)  # raises NotCommuting
    d = rho1.dim
    t = np.real(np.diag(basis.conj().T @ rho1.matrix @ basis))
    s = np.real(np.diag(basis.conj().T @ rho2.matrix @ basis))

    w = prior.second_moment / prior.mean
    reduced_q = 0.0
    for ti, si in zip(t, s):
        tb = prior.mean * ti + (1.0 - prior.mean) * si
        if tb < policy.zero_prob:
            continue
        ta = w * ti + (1.0 - w) * si
        reduced_q += (prior.mean * ta) ** 2 / tb

    povm = validate_povm([np.outer(basis[:, i], basis[:, i].conj()) for i in range(d)], policy)
    score = q_functional(povm, prior, rho1, rho2, policy)
    degenerate = float(np.max(np.abs(rho1.matrix - rho2.matrix))) <= policy.degenerate_tol
    report = EstimationReport(povm=povm, score=score, prior=prior, degenerate=degenerate)
    return ReductionOutcome(
        kind=ReductionKind.COMMUTING,
        certificate=f"common eigenbasis of commuting states (commutator norm {commutator_norm(rho1, rho2):.2e})",
        positivity_ok=True,
        reduced_q=reduced_q,
        report=report,
        degenerate=degenerate,
    )


def support_rank(
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> int:
    """Rank of the joint support of the two states."""
    evals = np.linalg.eigvalsh((rho1.matrix + rho2.matrix) / 2.0)
    return int(np.sum(evals > policy.support_tol))


def joint_support(
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """Orthonormal columns spanning the joint support, or SupportTooLarge."""
    total = (rho1.matrix + rho2.matrix) / 2.0
    evals, vecs = np.linalg.eigh(total)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    vecs = vecs[:, order]
    rank = int(np.sum(evals > policy.support_tol))
    if rank > 2:
        raise SupportTooLarge(rank, float(evals[2]))
    return vecs[:, :2]


def solve_two_dim_support(
    prior: Prior,
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> ReductionOutcome:
    """Solve states sharing a two-dimensional support via the qubit case.

    The qubit projectors are lifted back with the isometry onto the
    support; the complement of the subspace is appended as a third,
    zero-information outcome.  Positivity is automatic.
    """
    _check_problem(prior, rho1, rho2)
    d = rho1.dim
    v = joint_support(rho1, rho2, policy)
    sub1, sub2 = validate_states(
        [v.conj().T @ rho1.matrix @ v, v.conj().T @ rho2.matrix @ v], _loosened(policy)
    )

    degenerate = False
    try:
        sub_report = optimal_pvm(prior, sub1, sub2, policy)
        sub_q = sub_report.score.q_value
        sub_effects = sub_report.povm.matrices()
        alpha0 = sub_report.alpha0
    except DegenerateProblem:
        degenerate = True
        sub_effects = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        sub_q = prior.mean**2
        alpha0 = None

    lifted = [v @ e @ v.conj().T for e in sub_effects]
    complement = np.eye(d, dtype=complex) - v @ v.conj().T
    if float(np.trace(complement).real) > policy.support_tol:
        lifted.append(complement)
    povm = validate_povm(lifted, policy)
    score = q_functional(povm, prior, rho1, rho2, policy)
    report = EstimationReport(povm=povm, score=score, prior=prior, alpha0=alpha0, degenerate=degenerate)
    return ReductionOutcome(
        kind=ReductionKind.TWO_DIM_SUBSPACE,
        certificate="qubit problem on the joint two-dimensional support, projectors lifted back",
        positivity_ok=True,
        reduced_q=sub_q,
        report=report,
        degenerate=degenerate,
    )


def _loosened(policy: NumericPolicy) -> NumericPolicy:
    """Subspace compression loses a few digits; relax validation slightly."""
    from dataclasses import replace

    return replace(policy, herm_tol=1e-9, trace_tol=1e-8, psd_tol=1e-9)


def solve_pure_plus_noise(
    prior: Prior,
    psi: np.ndarray,
    dim: int | None = None,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> ReductionOutcome:
    """Optimal measurement for a pure state mixed with white noise.

    The answer is the two-outcome subspace test {P, I - P} with P the
    projector on the pure state, for any prior.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if dim is not None and len(psi) != dim:
        raise WrongShape(f"state vector has length {len(psi)}, expected {dim}")
    d = len(psi)
    if d < 2:
        raise WrongShape("state vector must live in dimension >= 2")
    norm = np.linalg.norm(psi)
    if norm <= 0:
        raise WrongShape("state vector must be nonzero")
    psi = psi / norm
    reject_degenerate_prior(prior, policy)

    projector = np.outer(psi, psi.conj())
    rho1, rho2 = validate_states([projector, np.eye(d, dtype=complex) / d], policy)
    povm = validate_povm([projector, np.eye(d, dtype=complex) - projector], policy)
    score = q_functional(povm, prior, rho1, rho2, policy)
    reduced_q = _two_outcome_planar_q(prior, d)
    report = EstimationReport(povm=povm, score=score, prior=prior, alpha0=0.0)
    return ReductionOutcome(
        kind=ReductionKind.PURE_WITH_NOISE,
        certificate="subspace test on the pure state against white noise",
        positivity_ok=True,
        reduced_q=reduced_q,
        report=report,
    )


def _two_outcome_planar_q(prior: Prior, d: int) -> float:
    """Planar-coordinate score of {P, I - P} for pure-plus-noise inputs.

    In the aligned coordinates the pure state sits at 1 and the noise at
    the origin; the projector carries weight 1/d at radius d - 1, the
    complement weight (d-1)/d at radius -1.
    """
    m1 = prior.mean
    w = prior.second_moment / prior.mean
    x_a, x_b = w, m1
    dr = x_a - x_b
    term1 = (1.0 / d) * ((d - 1) * dr) ** 2 / (1.0 + (d - 1) * x_b)
    term2 = ((d - 1) / d) * dr**2 / (1.0 - x_b)
    return m1**2 * (1.0 + term1 + term2)


def aligned_basis(
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> OperatorBasis:
    """Operator basis whose first two generators span the states' traceless parts.

    The first two generators are the plane of :func:`_aligned_plane`; the
    remaining ones are Gell-Mann completions.  :func:`embed_and_check`
    needs only the plane and does not build this basis.
    """
    d = rho1.dim
    generators = _gell_mann_completion(list(_aligned_plane(rho1, rho2, policy)), d * d - 1, policy)
    return make_operator_basis(d, generators, policy)


def _aligned_plane(
    rho1: DensityMatrix, rho2: DensityMatrix, policy: NumericPolicy
) -> tuple[np.ndarray, np.ndarray]:
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
    if dn <= policy.degenerate_tol:
        raise DegenerateProblem("rho1 = rho2: no alignment direction")
    g1 = diff / dn

    a1 = rho1.matrix - np.eye(d) / d
    resid = a1 - _hs_inner(g1, a1) * g1
    rn = _hs_norm(resid)
    if rn > 1e-9:
        return g1, resid / rn
    return tuple(_gell_mann_completion([g1], 2, policy))


def _gell_mann_completion(generators: list, count: int, policy: NumericPolicy) -> list:
    """Extend orthonormal generators to ``count`` by Gram-Schmidt on the Gell-Mann family."""
    d = generators[0].shape[0]
    for gm in gell_mann_basis(d, policy).generators:
        if len(generators) == count:
            break
        cand = gm.astype(complex)
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
    basis: OperatorBasis | None = None,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> ReductionOutcome:
    """Two-generator embedding with a positivity check on the rebuilt effects.

    The two states are written over (G_0, G_1, G_2); the planar solver
    finds the optimal direction; the candidate effect is the trace-one
    reconstruction along that direction, completed by its complement.
    Both signs of the direction are tried.  If neither candidate pair is
    positive the problem stays unreduced and no optimality is claimed.

    Only the plane (G_1, G_2) enters, so without an explicit ``basis`` the
    full :func:`aligned_basis` is never built.  An explicit ``basis`` must
    have the states in the span of its first two generators, or
    :class:`BasisAlignmentFailed` is raised.
    """
    _check_problem(prior, rho1, rho2)
    d = rho1.dim
    if float(np.max(np.abs(rho1.matrix - rho2.matrix))) <= policy.degenerate_tol:
        raise DegenerateProblem("rho1 = rho2")
    if basis is None:
        g1, g2 = _aligned_plane(rho1, rho2, policy)
    else:
        g1, g2 = basis.generators[0], basis.generators[1]

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
    geom = planar_geometry_from_coords(r_a, r_b, scale=prior.mean**2, policy=policy)
    sol = optimal_alpha(geom, policy)
    u = geom.direction(sol.alpha)

    candidates = []
    for v in (u, -u):
        first = (np.eye(d) + math.sqrt(d * d - d) * (v[0] * g1 + v[1] * g2)) / d
        second = np.eye(d) - first
        min_eig = min(
            float(np.linalg.eigvalsh((first + first.conj().T) / 2).min()),
            float(np.linalg.eigvalsh((second + second.conj().T) / 2).min()),
        )
        candidates.append((v, first, second, min_eig))

    feasible = [c for c in candidates if c[3] >= -policy.psd_tol]
    if not feasible:
        v, first, second, min_eig = candidates[0]
        return ReductionOutcome(
            kind=ReductionKind.UNREDUCED,
            certificate=(
                "embedded candidate effects are not positive "
                f"(min eigenvalue {min_eig:.3e}); no optimality claim"
            ),
            positivity_ok=False,
            reduced_q=sol.q_max,
            candidate_effects=(first, second),
            min_eigenvalue=min_eig,
        )

    best = None
    for v, first, second, min_eig in feasible:
        povm = validate_povm([first, second], _loosened(policy))
        score = q_functional(povm, prior, rho1, rho2, policy)
        reduced_q = _embedded_planar_q(prior, d, v, r_a, r_b)
        if best is None or score.q_value > best[1].q_value:
            best = (povm, score, reduced_q, min_eig)
    povm, score, reduced_q, min_eig = best
    report = EstimationReport(povm=povm, score=score, prior=prior, alpha0=sol.alpha)
    return ReductionOutcome(
        kind=ReductionKind.EMBEDDED,
        certificate="two-generator embedding; rebuilt effects are positive",
        positivity_ok=True,
        reduced_q=reduced_q,
        report=report,
        min_eigenvalue=min_eig,
    )


def _embedded_planar_q(prior: Prior, d: int, v: np.ndarray, r_a: np.ndarray, r_b: np.ndarray) -> float:
    """Planar score of the candidate pair {O(v), I - O(v)} in coordinates."""
    m1 = prior.mean
    dr = r_a - r_b
    pairs = ((1.0 / d, (d - 1.0) * v), ((d - 1.0) / d, -v))
    total = 0.0
    for p, r in pairs:
        den = 1.0 + float(r @ r_b)
        if den < 1e-14:
            continue
        total += p * float(r @ dr) ** 2 / den
    return m1**2 * (1.0 + total)


def pinch_to_basis(povm: Povm, basis: np.ndarray, policy: NumericPolicy = DEFAULT_POLICY) -> Povm:
    """Replace every effect by its diagonal part in the given basis."""
    effects = []
    for e in povm:
        diag = np.real(np.diag(basis.conj().T @ e.matrix @ basis))
        effects.append(basis @ np.diag(diag.astype(complex)) @ basis.conj().T)
    return validate_povm(effects, policy)
