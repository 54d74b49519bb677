"""The optimal two-outcome measurement for qubit mixtures, in closed form.

The best qubit measurement is a two-outcome PVM along a direction in the
plane spanned by the effective-state Bloch vectors.  At angle ``alpha``
from the difference vector ``delta_r = r_a - r_b`` it scores

    Q(alpha) = scale * (1 + delta_r^2 cos^2(alpha) / (1 - r_b^2 cos^2(alpha + gamma))).

The score of a direction is a generalized Rayleigh quotient in the metric
``I - r_b r_b^T``, so a Cauchy-Schwarz step gives the maximizer and the
maximum in closed form, with no search and no branches (see
:func:`optimal_alpha`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bayes import EstimationReport, Prior, _score, _sld, _sld_povm, _weighted_states, reject_degenerate_prior
from .errors import DegenerateProblem, SingularDenominator, WrongDimension
from .policy import DEFAULT_POLICY
from .states import DensityMatrix, _compose_stack, _pauli_coords, _trusted_povm, bloch_decompose


@dataclass(frozen=True)
class PlanarGeometry:
    """The qubit problem reduced to three scalars plus a frame.

    ``gamma`` is the signed angle between the difference vector and
    ``r_b``, oriented so that ``r_b`` sits at frame angle ``-gamma`` in the
    (e_delta, e_perp) frame; with that convention the score of the
    direction at frame angle ``alpha`` is the planar formula with
    ``beta = alpha + gamma``.  ``scale`` is the squared prior mean, the
    prefactor of the planar score.  The frame vectors may be
    three-dimensional (Bloch space) or two-dimensional (an embedded
    coordinate plane).
    """

    delta_r: float
    r_b_norm: float
    gamma: float
    e_delta: np.ndarray
    e_perp: np.ndarray
    scale: float = 0.25

    def direction(self, alpha: float) -> np.ndarray:
        """Unit vector at angle alpha from the difference axis."""
        return math.cos(alpha) * self.e_delta + math.sin(alpha) * self.e_perp


@dataclass(frozen=True)
class AngleSolution:
    alpha: float
    q_max: float
    degenerate: bool = False


def planar_geometry_from_coords(r_a: np.ndarray, r_b: np.ndarray, scale: float = 0.25) -> PlanarGeometry:
    """Build the planar geometry from effective-state coordinate vectors.

    Works for Bloch 3-vectors and for two-dimensional embedded coordinates.
    In three dimensions the orthogonal frame vector is chosen so that gamma
    lands in [0, pi]; if ``r_b`` is (anti)parallel to the difference vector
    the plane is completed with the lowest-index coordinate axis.
    """
    r_a = np.asarray(r_a, dtype=float)
    r_b = np.asarray(r_b, dtype=float)
    diff = r_a - r_b
    delta = float(np.linalg.norm(diff))
    n = len(r_a)
    if delta <= DEFAULT_POLICY.degenerate_tol:
        e1 = np.zeros(n)
        e1[0] = 1.0
    else:
        e1 = diff / delta
    if n == 2:
        e2 = np.array([-e1[1], e1[0]])
    else:
        perp = r_b - (r_b @ e1) * e1
        pn = float(np.linalg.norm(perp))
        if pn > 1e-9:
            e2 = -perp / pn  # r_b at frame angle -gamma with gamma in [0, pi]
        else:
            for k in range(n):
                axis = np.zeros(n)
                axis[k] = 1.0
                cand = axis - (axis @ e1) * e1
                cn = float(np.linalg.norm(cand))
                if cn > 0.5:
                    e2 = cand / cn
                    break
    gamma = -math.atan2(float(r_b @ e2), float(r_b @ e1))
    if gamma <= -math.pi:
        gamma = math.pi
    e1.setflags(write=False)
    e2.setflags(write=False)
    return PlanarGeometry(delta, float(np.linalg.norm(r_b)), gamma, e1, e2, scale)


def planar_geometry(rho_a: DensityMatrix, rho_b: DensityMatrix, scale: float = 0.25) -> PlanarGeometry:
    """Planar geometry of a qubit problem from its effective states."""
    if rho_a.dim != 2 or rho_b.dim != 2:
        raise WrongDimension("planar geometry needs qubit states")
    return planar_geometry_from_coords(bloch_decompose(rho_a), bloch_decompose(rho_b), scale)


def optimal_alpha(geom: PlanarGeometry) -> AngleSolution:
    """Exact maximizer of the planar score, in (-pi/2, pi/2).

    For a unit direction ``u`` the score is the generalized Rayleigh
    quotient ``scale (1 + (u . delta)^2 / u^T B u)`` with metric
    ``B = I - r_b r_b^T``.  Cauchy-Schwarz in the B inner product gives
    ``(u . delta)^2 <= (u^T B u)(delta^T B^-1 delta)``, with equality for
    ``u ~ B^-1 delta``; so the optimum is that direction and
    ``q_max = scale (1 + delta_r^2 + (r_b . delta)^2 / (1 - r_b^2))``.
    In the planar frame ``B^-1 delta`` is proportional to
    ``(1 - r_b^2 sin^2 gamma, -r_b^2 sin gamma cos gamma)``; its first
    component is positive for ``r_b < 1``.  A problem with ``delta_r = 0``
    carries no information; the solution is flagged degenerate with
    alpha = 0.
    """
    if geom.delta_r <= DEFAULT_POLICY.degenerate_tol:
        return AngleSolution(0.0, geom.scale, degenerate=True)
    r_b2 = geom.r_b_norm**2
    if r_b2 >= 1.0:
        raise SingularDenominator(f"|r_b| = {geom.r_b_norm!r} is not below 1: the mean state is pure")
    sin_g = math.sin(geom.gamma)
    cos_g = math.cos(geom.gamma)
    alpha = math.atan2(-r_b2 * sin_g * cos_g, 1.0 - r_b2 * sin_g * sin_g) + 0.0  # no -0
    dot = geom.r_b_norm * geom.delta_r * cos_g
    q_max = geom.scale * (1.0 + geom.delta_r**2 + dot * dot / (1.0 - r_b2))
    return AngleSolution(alpha, q_max)


def optimal_pvm(prior: Prior, rho1: DensityMatrix, rho2: DensityMatrix) -> EstimationReport:
    """The Bayes-optimal qubit measurement: a two-outcome PVM.

    General POVMs cannot beat it; the optimal direction sits at the
    closed-form Rayleigh-quotient angle from the difference of the
    effective states.  One stack of the prior-weighted mixtures gives the
    geometry and the score, and both effects are built in one product;
    the result is bit for bit that of
    :func:`~mixest.bayes.effective_states`, :func:`planar_geometry`,
    :func:`optimal_alpha`, :func:`~mixest.states.bloch_compose` of
    ``+-direction`` at weight 1/2 and :func:`~mixest.bayes.q_functional`.
    """
    reject_degenerate_prior(prior)
    if rho1.dim != 2 or rho2.dim != 2:
        raise WrongDimension("optimal_pvm solves qubit problems; see the highdim module")
    if float(np.max(np.abs(rho1.matrix - rho2.matrix))) <= DEFAULT_POLICY.degenerate_tol:
        raise DegenerateProblem("rho1 = rho2: every measurement performs equally")
    states = _weighted_states(prior, rho1, rho2)  # rho_a, rho_b, rho_c
    geom = planar_geometry_from_coords(_pauli_coords(states[0]), _pauli_coords(states[1]), prior.mean**2)
    if geom.r_b_norm >= 1.0:  # the pole of optimal_alpha, within validate_state's psd_tol slack
        povm = _sld_povm(_sld(prior, states))
        return EstimationReport(povm=povm, score=_score(povm.matrices(), prior, states), geometry=geom)
    sol = optimal_alpha(geom)
    direction = geom.direction(sol.alpha)
    effects = _compose_stack(np.array([direction, -direction]), 0.5)
    povm = _trusted_povm(effects)
    score = _score(effects, prior, states)
    return EstimationReport(povm=povm, score=score, alpha0=sol.alpha, geometry=geom)
