"""Planar reduction and the optimal two-outcome measurement for qubit mixtures.

The optimization over all qubit POVMs collapses to a one-dimensional
problem: project everything onto the plane spanned by the effective-state
Bloch vectors, parametrize pure effects by an angle, and maximize

    Q(alpha) = scale * (1 + delta_r^2 cos^2(alpha) / (1 - r_b^2 cos^2(alpha + gamma)))

over the angle ``alpha`` between the measurement direction and the
difference vector ``delta_r = r_a - r_b``.  The score of a direction is a
generalized Rayleigh quotient in the metric ``I - r_b r_b^T``, so a
Cauchy-Schwarz step gives the maximizer and the maximum in closed form,
with no search and no branches (see :func:`optimal_alpha`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bayes import EstimationReport, Prior, effective_states, q_functional, reject_degenerate_prior
from .errors import (
    AlreadyPure,
    DegenerateProblem,
    InvalidPovm,
    SingularDenominator,
    WrongDimension,
)
from .policy import DEFAULT_POLICY, NumericPolicy
from .states import (
    DensityMatrix,
    Effect,
    Povm,
    as_povm,
    bloch_compose,
    bloch_decompose,
    effect_bloch,
)


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


@dataclass(frozen=True)
class AngleSolution:
    alpha: float
    q_max: float
    degenerate: bool = False


@dataclass(frozen=True)
class BruteForceResult:
    planar: PlanarPovm
    q_value: float


def _wrap_half_pi(alpha: float) -> float:
    """Representative of alpha modulo pi in (-pi/2, pi/2]."""
    a = math.fmod(alpha, math.pi)
    if a > math.pi / 2:
        a -= math.pi
    elif a <= -math.pi / 2:
        a += math.pi
    return a


def planar_geometry_from_coords(
    r_a: np.ndarray,
    r_b: np.ndarray,
    scale: float = 0.25,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> PlanarGeometry:
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
    if delta <= policy.degenerate_tol:
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


def planar_geometry(
    rho_a: DensityMatrix,
    rho_b: DensityMatrix,
    scale: float = 0.25,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> PlanarGeometry:
    """Planar geometry of a qubit problem from its effective states."""
    if rho_a.dim != 2 or rho_b.dim != 2:
        raise WrongDimension("planar geometry needs qubit states")
    return planar_geometry_from_coords(
        bloch_decompose(rho_a).as_array(), bloch_decompose(rho_b).as_array(), scale, policy
    )


def q_of_angle(alpha: float, geom: PlanarGeometry) -> float:
    """Planar score of the two-outcome measurement at angle alpha."""
    beta = alpha + geom.gamma
    den = 1.0 - (geom.r_b_norm * math.cos(beta)) ** 2
    if den <= 1e-15:
        raise SingularDenominator(
            f"r_b = {geom.r_b_norm} and cos(alpha + gamma) = {math.cos(beta):.3g}: "
            "one outcome never occurs"
        )
    return geom.scale * (1.0 + geom.delta_r**2 * math.cos(alpha) ** 2 / den)


def _q_grid(alphas: np.ndarray, geom: PlanarGeometry) -> np.ndarray:
    beta = alphas + geom.gamma
    den = 1.0 - (geom.r_b_norm * np.cos(beta)) ** 2
    vals = geom.scale * (1.0 + geom.delta_r**2 * np.cos(alphas) ** 2 / np.where(den <= 1e-15, np.inf, den))
    return vals


def optimal_alpha(geom: PlanarGeometry, policy: NumericPolicy = DEFAULT_POLICY) -> AngleSolution:
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
    if geom.delta_r <= policy.degenerate_tol:
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


def planar_q(planar: PlanarPovm, geom: PlanarGeometry, policy: NumericPolicy = DEFAULT_POLICY) -> float:
    """Score of a planar POVM; outcomes that never occur contribute zero."""
    w = planar.weights
    a = planar.angles
    proj = geom.delta_r * np.cos(a)
    den = 1.0 + geom.r_b_norm * np.cos(a + geom.gamma)
    mask = den > policy.zero_prob
    total = float(np.sum(w[mask] * proj[mask] ** 2 / den[mask]))
    return geom.scale * (1.0 + total)


def planar_to_povm(planar: PlanarPovm, geom: PlanarGeometry, policy: NumericPolicy = DEFAULT_POLICY) -> Povm:
    """Rebuild full qubit effects from planar weights and angles."""
    if len(geom.e_delta) != 3:
        raise WrongDimension("reconstruction needs a three-dimensional Bloch frame")
    effects = [bloch_compose(geom.direction(a), p, policy) for p, a in planar.outcomes]
    return Povm(tuple(effects))


def projected_to_povm(
    projected: tuple[tuple[float, np.ndarray], ...],
    geom: PlanarGeometry,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> Povm:
    """Rebuild (possibly non-pure) in-plane effects from a projection."""
    if len(geom.e_delta) != 3:
        raise WrongDimension("reconstruction needs a three-dimensional Bloch frame")
    effects = [
        bloch_compose(q[0] * geom.e_delta + q[1] * geom.e_perp, p, policy) for p, q in projected
    ]
    return Povm(tuple(effects))


def reduce_to_plane(
    povm,
    rho_a: DensityMatrix,
    rho_b: DensityMatrix,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> PlanarReduction:
    """Project a qubit POVM onto the plane of the effective states.

    Projection drops the out-of-plane Bloch components, which the score
    never sees, so the projected measurement scores exactly like the
    input.  Non-pure projections are then split spectrally into pairs of
    pure effects at weights ``p (1 +/- |q|) / 2`` along the projected axis
    (a degenerate projection splits along the difference axis); splitting
    never lowers the score.
    """
    povm = as_povm(povm, policy)
    if povm.dim != 2:
        raise WrongDimension("plane reduction is defined for qubit POVMs")
    geom = planar_geometry(rho_a, rho_b, policy=policy)
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


def split_effect(effect: Effect, policy: NumericPolicy = DEFAULT_POLICY) -> tuple[Effect, Effect]:
    """Spectral split of a rank-two qubit effect into two pure parts.

    Replacing an effect by its split never decreases the measurement
    score.  A degenerate effect (proportional to the identity) is split
    along the z axis by convention.
    """
    if effect.dim != 2:
        raise WrongDimension("effect splitting is defined for qubits")
    p, r = effect_bloch(effect)
    rn = float(np.linalg.norm(r))
    if p < 1e-14 or p * (1.0 - rn) <= policy.psd_tol:
        raise AlreadyPure("effect has rank below two; nothing to split")
    axis = r / rn if rn > 1e-14 else np.array([0.0, 0.0, 1.0])
    first = bloch_compose(axis, p * (1.0 + rn) / 2.0, policy)
    second = bloch_compose(-axis, p * (1.0 - rn) / 2.0, policy)
    return first, second


def optimal_pvm(
    prior: Prior,
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> EstimationReport:
    """The Bayes-optimal qubit measurement: a two-outcome PVM.

    General POVMs cannot beat it; the optimal direction sits at the
    closed-form Rayleigh-quotient angle from the difference of the
    effective states.
    """
    reject_degenerate_prior(prior, policy)
    if rho1.dim != 2 or rho2.dim != 2:
        raise WrongDimension("optimal_pvm solves qubit problems; see the highdim module")
    if float(np.max(np.abs(rho1.matrix - rho2.matrix))) <= policy.degenerate_tol:
        raise DegenerateProblem("rho1 = rho2: every measurement performs equally")
    rho_a, rho_b = effective_states(prior, rho1, rho2, policy)
    geom = planar_geometry(rho_a, rho_b, scale=prior.mean**2, policy=policy)
    sol = optimal_alpha(geom, policy)
    direction = geom.direction(sol.alpha)
    povm = Povm((bloch_compose(direction, 0.5, policy), bloch_compose(-direction, 0.5, policy)))
    score = q_functional(povm, prior, rho1, rho2, policy)
    return EstimationReport(povm=povm, score=score, prior=prior, alpha0=sol.alpha, geometry=geom)


def sample_planar_povm(rng: np.random.Generator, n_outcomes: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """One random planar POVM with pure effects: (weights, angles).

    Angles are uniform; weights solve the completeness constraints, so the
    draw is rejected until the solution is a proper probability vector.
    """
    if n_outcomes == 2:
        a = rng.uniform(-math.pi, math.pi)
        return np.array([0.5, 0.5]), np.array([a, a + math.pi])
    if n_outcomes != 3:
        raise ValueError("planar sampling supports 2 or 3 outcomes")
    while True:
        a = rng.uniform(-math.pi, math.pi, size=3)
        m = np.vstack([np.ones(3), np.cos(a), np.sin(a)])
        try:
            w = np.linalg.solve(m, np.array([1.0, 0.0, 0.0]))
        except np.linalg.LinAlgError:
            continue
        if np.all(w > 1e-9):
            return w, a


def sample_planar_povm_batch(
    rng: np.random.Generator, count: int, n_outcomes: int = 3
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked random planar POVMs: arrays (count, n_outcomes)."""
    if n_outcomes == 2:
        a0 = rng.uniform(-math.pi, math.pi, size=count)
        return np.full((count, 2), 0.5), np.stack([a0, a0 + math.pi], axis=1)
    weights = np.empty((count, 3))
    angles = np.empty((count, 3))
    filled = 0
    while filled < count:
        need = count - filled
        a = rng.uniform(-math.pi, math.pi, size=(4 * need, 3))
        m = np.stack([np.ones_like(a), np.cos(a), np.sin(a)], axis=1)
        rhs = np.zeros((4 * need, 3, 1))
        rhs[:, 0, 0] = 1.0
        try:
            w = np.linalg.solve(m, rhs)[:, :, 0]
        except np.linalg.LinAlgError:
            continue
        ok = np.all(w > 1e-9, axis=1)
        take = min(int(ok.sum()), need)
        weights[filled : filled + take] = w[ok][:take]
        angles[filled : filled + take] = a[ok][:take]
        filled += take
    return weights, angles


def _centroid_penalty(w: np.ndarray, a: np.ndarray) -> float:
    cx = float(w @ np.cos(a))
    cy = float(w @ np.sin(a))
    return (float(w.sum()) - 1.0) ** 2 + cx * cx + cy * cy


def _search_objective(w: np.ndarray, a: np.ndarray, geom: PlanarGeometry, mu: float) -> float:
    proj2 = (geom.delta_r * np.cos(a)) ** 2
    den = 1.0 + geom.r_b_norm * np.cos(a + geom.gamma)
    terms = np.where(den > 1e-9, np.abs(w) * proj2 / np.where(den <= 0, 1.0, den), 0.0)
    return float(terms.sum()) - mu * _centroid_penalty(np.abs(w), a)


def _ascend(w: np.ndarray, a: np.ndarray, geom: PlanarGeometry, mu: float,
            iterations: int = 200, step: float = 1e-2) -> tuple[np.ndarray, np.ndarray]:
    """Projected gradient ascent with finite differences and backtracking."""
    x = np.concatenate([a, w])
    k = len(a)

    def value(vec: np.ndarray) -> float:
        return _search_objective(vec[k:], vec[:k], geom, mu)

    h = 1e-6
    current = value(x)
    for _ in range(iterations):
        grad = np.empty_like(x)
        for i in range(len(x)):
            xp = x.copy()
            xp[i] += h
            xm = x.copy()
            xm[i] -= h
            grad[i] = (value(xp) - value(xm)) / (2 * h)
        gn = float(np.linalg.norm(grad))
        if gn < 1e-12:
            break
        trial_step = step
        improved = False
        while trial_step > 1e-6:
            cand = x + trial_step * grad / gn
            cand[k:] = np.clip(cand[k:], 1e-4, None)
            cand[k:] /= cand[k:].sum()
            cand_val = value(cand)
            if cand_val > current:
                x, current = cand, cand_val
                improved = True
                break
            trial_step /= 2.0
        if not improved:
            break
    return x[k:], x[:k]


def _repair_weights(angles: np.ndarray) -> np.ndarray | None:
    """Exact completeness weights for three planar directions, if feasible."""
    m = np.vstack([np.ones(3), np.cos(angles), np.sin(angles)])
    try:
        w = np.linalg.solve(m, np.array([1.0, 0.0, 0.0]))
    except np.linalg.LinAlgError:
        return None
    if np.all(w > 1e-9):
        return w
    return None


def brute_force_planar(
    prior: Prior,
    rho1: DensityMatrix,
    rho2: DensityMatrix,
    n_outcomes: int = 3,
    n_starts: int = 100,
    seed: int = 0,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> BruteForceResult:
    """Multi-start local search over planar POVMs with 2 or 3 outcomes.

    Search runs on a penalized objective; every candidate is repaired to
    exact completeness before scoring, so the returned score belongs to a
    valid measurement.  Restart seeds derive from the base seed by counter.
    """
    if n_outcomes not in (2, 3):
        raise ValueError("n_outcomes must be 2 or 3")
    reject_degenerate_prior(prior, policy)
    rho_a, rho_b = effective_states(prior, rho1, rho2, policy)
    geom = planar_geometry(rho_a, rho_b, scale=prior.mean**2, policy=policy)

    best_povm: PlanarPovm | None = None
    best_q = -math.inf
    for start in range(n_starts):
        rng = np.random.default_rng([seed, start])
        if n_outcomes == 2:
            alpha = float(rng.uniform(-math.pi / 2, math.pi / 2))
            alpha = _ascend_angle(alpha, geom)
            candidate = PlanarPovm(((0.5, alpha), (0.5, alpha + math.pi)))
        else:
            w0, a0 = sample_planar_povm(rng, 3)
            w, a = _ascend(w0, a0, geom, mu=max(1.0, 1e3 * geom.scale))
            w = _repair_weights(a)
            if w is None:
                alpha = _ascend_angle(float(a0[0]), geom)
                candidate = PlanarPovm(((0.5, alpha), (0.5, alpha + math.pi)))
            else:
                candidate = PlanarPovm(tuple((float(wi), float(ai)) for wi, ai in zip(w, a)))
        q = planar_q(candidate, geom, policy)
        if q > best_q:
            best_q, best_povm = q, candidate
    assert best_povm is not None
    return BruteForceResult(best_povm, best_q)


def _ascend_angle(alpha: float, geom: PlanarGeometry, iterations: int = 200, step: float = 1e-2) -> float:
    """One-dimensional gradient ascent on the planar PVM score."""
    h = 1e-7

    def val(a: float) -> float:
        return _q_grid(np.array([a]), geom)[0]

    current = val(alpha)
    for _ in range(iterations):
        grad = (val(alpha + h) - val(alpha - h)) / (2 * h)
        if abs(grad) < 1e-14:
            break
        trial = step
        improved = False
        while trial > 1e-7:
            cand = alpha + trial * math.copysign(1.0, grad)
            cand_val = val(cand)
            if cand_val > current:
                alpha, current = cand, cand_val
                improved = True
                break
            trial /= 2.0
        if not improved:
            break
    return _wrap_half_pi(alpha)
