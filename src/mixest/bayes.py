"""Priors over the mixing parameter, posterior moments and measurement scores.

The state under study is ``rho(lam) = lam rho1 + (1 - lam) rho2`` with an
unknown ``lam`` drawn from a prior on [0, 1].  Everything the estimator
needs from the prior is its first three moments plus a sampling rule, so
:class:`Prior` carries exactly that.

For a POVM outcome with effect E the posterior mean of ``lam`` (the Bayes
estimate) and the posterior variance follow from two effective states:

* ``rho_b = mean * rho1 + (1 - mean) * rho2`` fixes outcome probabilities,
* ``rho_a = w * rho1 + (1 - w) * rho2`` with ``w = second_moment / mean``
  fixes posterior means.

A measurement is scored by ``q_value = sum_m (mean * tr[E_m rho_a])^2 /
tr[E_m rho_b]``; the expected posterior variance ("mean variance") equals
``second_moment - q_value``, so maximizing the score minimizes the
expected squared estimation error.

All of these read the traces ``tr[E_m rho_k]`` of every effect against
every state from one stacked matrix product and one stacked trace, which
give the same bits as a ``np.trace(E @ rho)`` per pair.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    BadParameter,
    DegenerateProblem,
    DimensionMismatch,
    NonPositiveParameter,
)
from .policy import DEFAULT_POLICY
from .states import DensityMatrix, Povm, _trusted_states, as_povm, validate_povm

if TYPE_CHECKING:  # pragma: no cover
    from .qubit import PlanarGeometry

UNIFORM = "uniform"
POINT_MASS = "point_mass"
TRUNC_RECIPROCAL = "trunc_reciprocal"
TABLE = "table"


# Moments computed in floating point may overshoot their bounds by rounding.
_ROUNDING = 16 * sys.float_info.epsilon


def _moment_check(mean: float, second: float) -> None:
    """Refuse moments that no distribution on [0, 1] has, up to rounding.

    ``second <= mean`` keeps the weight ``second / mean`` of
    :func:`effective_states` in [0, 1], so the mixture stays convex.
    """
    if not (0.0 < mean <= 1.0 + _ROUNDING):
        raise BadParameter(f"prior mean must lie in (0, 1], got {mean}")
    if not (mean * mean * (1.0 - _ROUNDING) <= second <= mean * (1.0 + _ROUNDING)):
        raise BadParameter(
            f"prior moments violate mean^2 <= second_moment <= mean: mean={mean}, second={second}"
        )


@dataclass(frozen=True)
class Prior:
    """Distribution of the mixing parameter on [0, 1].

    Carries closed-form first three moments, the support interval and a
    named sampling rule.  Use the classmethod constructors.  Every
    construction, ``dataclasses.replace`` included, checks the moments,
    so the mean that the scores divide by is always positive.
    """

    kind: str
    mean: float
    second_moment: float
    third_moment: float
    support: tuple[float, float]
    params: tuple[float, ...] = ()
    table_lambda: np.ndarray | None = field(default=None, repr=False)
    table_density: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        _moment_check(self.mean, self.second_moment)
        lo, hi = self.support
        if not (-1e-12 <= lo <= hi <= 1.0 + 1e-12):
            raise BadParameter(f"support {self.support} not contained in [0, 1]")

    @property
    def variance(self) -> float:
        return self.second_moment - self.mean**2

    @classmethod
    def uniform(cls) -> "Prior":
        return cls(UNIFORM, 0.5, 1.0 / 3.0, 0.25, (0.0, 1.0))

    @classmethod
    def point_mass(cls, lam: float) -> "Prior":
        """Degenerate prior at a known value; for simulation ground truth only."""
        if not (0.0 < lam <= 1.0):
            raise BadParameter(f"point mass must lie in (0, 1], got {lam}")
        return cls(POINT_MASS, lam, lam**2, lam**3, (lam, lam), (lam,))

    @classmethod
    def truncated_reciprocal(cls, t_bmax: float) -> "Prior":
        """Density 1 / (lam * t_bmax) on [exp(-t_bmax), 1].

        This is the distribution of ``lam = exp(-B t)`` when the decay rate
        B is uniform on [0, B_max] and ``t_bmax = t * B_max``.
        """
        if t_bmax <= 0.0:
            raise NonPositiveParameter(f"t_bmax must be positive, got {t_bmax}")
        t = float(t_bmax)
        m1 = -math.expm1(-t) / t
        m2 = -math.expm1(-2 * t) / (2 * t)
        m3 = -math.expm1(-3 * t) / (3 * t)
        return cls(TRUNC_RECIPROCAL, m1, m2, m3, (math.exp(-t), 1.0), (t,))

    @classmethod
    def from_table(cls, lams, density) -> "Prior":
        """Piecewise-linear density on a grid; moments are integrated exactly."""
        x = np.asarray(lams, dtype=float)
        f = np.asarray(density, dtype=float)
        if x.ndim != 1 or x.shape != f.shape or len(x) < 2:
            raise BadParameter("table prior needs matching 1-d lambda and density arrays with >= 2 points")
        if np.any(np.diff(x) <= 0):
            raise BadParameter("table lambda grid must be strictly increasing")
        if x[0] < -1e-12 or x[-1] > 1.0 + 1e-12:
            raise BadParameter("table lambda grid must lie in [0, 1]")
        if np.any(f < 0):
            raise BadParameter("table density must be nonnegative")
        total, m1, m2, m3 = _table_moments(x, f)
        if total <= 0:
            raise BadParameter("table density integrates to zero")
        f = f / total
        m1, m2, m3 = m1 / total, m2 / total, m3 / total
        fx = np.array(x)
        fx.setflags(write=False)
        ff = np.array(f)
        ff.setflags(write=False)
        return cls(TABLE, m1, m2, m3, (float(x[0]), float(x[-1])),
                   table_lambda=fx, table_density=ff)

    def density(self, lam):
        """Probability density; undefined for a point mass."""
        lam = np.asarray(lam, dtype=float)
        if self.kind == UNIFORM:
            return np.where((lam >= 0) & (lam <= 1), 1.0, 0.0)
        if self.kind == TRUNC_RECIPROCAL:
            t = self.params[0]
            lo, hi = self.support
            with np.errstate(divide="ignore"):
                d = 1.0 / (lam * t)
            return np.where((lam >= lo) & (lam <= hi), d, 0.0)
        if self.kind == TABLE:
            return np.interp(lam, self.table_lambda, self.table_density, left=0.0, right=0.0)
        raise BadParameter(f"prior kind {self.kind!r} has no density")

    def sample_from_uniform(self, u):
        """Map uniform variates on [0, 1) to prior samples.

        For the truncated reciprocal this is ``lam = exp(-u * t_bmax)``, the
        image of a uniformly drawn decay rate.
        """
        u = np.asarray(u, dtype=float)
        flat = np.atleast_1d(u)
        if self.kind == UNIFORM:
            out = flat
        elif self.kind == POINT_MASS:
            out = np.full_like(flat, self.params[0])
        elif self.kind == TRUNC_RECIPROCAL:
            out = np.exp(-flat * self.params[0])
        elif self.kind == TABLE:
            out = _table_inverse_cdf(self.table_lambda, self.table_density, flat)
        else:  # pragma: no cover
            raise BadParameter(f"unknown prior kind {self.kind!r}")
        return float(out[0]) if u.ndim == 0 else out.reshape(u.shape)


# 3-point Gauss-Legendre rule on [-1, 1]: exact up to degree 5
_GL_NODES = np.array([-math.sqrt(0.6), 0.0, math.sqrt(0.6)])
_GL_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 9.0


def _table_moments(x: np.ndarray, f: np.ndarray) -> tuple[float, ...]:
    """Integrals of lam^n times a piecewise-linear density, for n = 0..3.

    A 3-point Gauss-Legendre rule per segment is exact for these
    integrands (degree at most 4), and unlike the antiderivative
    ``x1^(n+1) - x0^(n+1)`` it does not cancel on a short segment far
    from zero.
    """
    half = np.diff(x)[:, None] / 2.0
    lam = (x[:-1, None] + half) + half * _GL_NODES
    dens = f[:-1, None] + np.diff(f)[:, None] * (1.0 + _GL_NODES) / 2.0
    w = half * _GL_WEIGHTS * dens
    return tuple(np.sum(w[..., None] * lam[..., None] ** np.arange(4), axis=(0, 1)).tolist())


def _table_inverse_cdf(x: np.ndarray, f: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Invert the piecewise-quadratic CDF of a piecewise-linear density."""
    seg = np.diff(x) * (f[:-1] + f[1:]) / 2.0
    cdf = np.concatenate([[0.0], np.cumsum(seg)])
    cdf = cdf / cdf[-1]
    idx = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, len(x) - 2)
    x0 = x[idx]
    h = x[idx + 1] - x0
    f0 = f[idx]
    slope = (f[idx + 1] - f0) / h
    rem = (u - cdf[idx]) * seg.sum()
    # solve f0 * s + slope * s^2 / 2 = rem for s in [0, h] in the form
    # 2 rem / (f0 + sqrt(f0^2 + 2 slope rem)), which does not cancel and
    # covers slope = 0; den = 0 only where f0 = rem = 0, at s = 0
    den = f0 + np.sqrt(np.maximum(f0 * f0 + 2.0 * slope * rem, 0.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.where(den > 0, 2.0 * rem / den, 0.0)
    return x0 + np.clip(s, 0.0, h)


@dataclass(frozen=True)
class PosteriorMoments:
    """Posterior data for one outcome: probability, Bayes estimate, spread."""

    prob: float
    estimate: float
    second: float
    variance: float
    never_occurs: bool = False


@dataclass(frozen=True)
class MeasurementScore:
    """Score of a whole measurement: q_value high = mean variance low."""

    q_value: float
    mean_variance: float
    per_outcome: tuple[PosteriorMoments, ...]


@dataclass(frozen=True)
class EstimationReport:
    """A measurement together with its score and per-outcome estimates."""

    povm: Povm
    score: MeasurementScore
    alpha0: float | None = None
    geometry: "PlanarGeometry | None" = None
    degenerate: bool = False

    @property
    def estimates(self) -> tuple[float, ...]:
        return tuple(o.estimate for o in self.score.per_outcome)


def effective_states(
    prior: Prior, rho1: DensityMatrix, rho2: DensityMatrix
) -> tuple[DensityMatrix, DensityMatrix]:
    """The two mixtures (rho_a, rho_b) that summarize the prior.

    For the uniform prior the weights are (2/3, 1/3) and (1/2, 1/2).

    The mixtures are not validated again, because the check cannot fail.
    For a prior on [0, 1] the weights ``E[lam^2]/E[lam]`` and ``E[lam]``
    lie in [0, 1] (``lam^2 <= lam``), up to rounding.  A convex mixture is
    then no further off Hermitian or off unit trace than the worse of
    rho1 and rho2, and by Weyl's inequality its smallest eigenvalue is at
    least the smaller of theirs.  Rounding adds a few ulps, which matters
    only for inputs within ulps of a tolerance edge.
    """
    if rho1.dim != rho2.dim:
        raise DimensionMismatch(f"dims {rho1.dim} vs {rho2.dim}")
    return _trusted_states(_weighted_states(prior, rho1, rho2)[:2])


def _traces(effects, states) -> np.ndarray:
    """``out[k, m] = Re tr(E_m rho_k)`` for every effect and state.

    One stacked ``matmul`` and one stacked trace; each slice goes through
    the same BLAS product and diagonal sum as ``np.trace(E @ rho)``.
    """
    products = np.matmul(np.asarray(effects)[None], np.asarray(states)[:, None])
    return np.trace(products, axis1=2, axis2=3).real


def _moments_against(prior: Prior, ta: float, tb: float, tc: float) -> PosteriorMoments:
    """Posterior moments of an outcome from its traces against rho_a, rho_b, rho_c."""
    if tb < DEFAULT_POLICY.zero_prob:
        return PosteriorMoments(
            prob=max(tb, 0.0),
            estimate=prior.mean,
            second=prior.second_moment,
            variance=prior.variance,
            never_occurs=True,
        )
    estimate = prior.mean * ta / tb
    second = prior.second_moment * tc / tb
    variance = second - estimate * estimate
    if variance < -1e-12:
        raise BadParameter(f"posterior variance came out negative: {variance:.3e}")
    return PosteriorMoments(tb, estimate, second, max(variance, 0.0))


def _score(effects, prior: Prior, states: np.ndarray) -> MeasurementScore:
    """Score of the effects against the stack (rho_a, rho_b, rho_c) of :func:`_weighted_states`."""
    ta, tb, tc = _traces(effects, states).tolist()
    per = tuple(_moments_against(prior, a, b, c) for a, b, c in zip(ta, tb, tc))
    # (mean * tr[E rho_a])^2 / tr[E rho_b] == prob * estimate^2
    q = sum(o.prob * o.estimate**2 for o in per if not o.never_occurs)
    return MeasurementScore(q_value=q, mean_variance=prior.second_moment - q, per_outcome=per)


def _weighted_states(prior: Prior, rho1: DensityMatrix, rho2: DensityMatrix) -> np.ndarray:
    """Raw matrices of the three prior-weighted mixtures rho_a, rho_b, rho_c, in one broadcast."""
    m = prior.second_moment
    w = np.array([m / prior.mean, prior.mean, prior.third_moment / m])[:, None, None]
    return w * rho1.matrix + (1.0 - w) * rho2.matrix


def _sld(prior: Prior, states: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """The Bayesian SLD of the stack (rho_a, rho_b, rho_c) and the optimum it gives.

    ``L`` solves ``rho_b L + L rho_b = 2 mean rho_a`` (Personick, IEEE
    Trans. Inf. Theory 17, 240, 1971).  In the eigenbasis ``(e, V)`` of
    rho_b it reads ``L_ij = 2 C_ij / (e_i + e_j)`` with
    ``C = V^H (mean rho_a) V``, and 0 where ``e_i + e_j <= support_tol``.
    Returns ``(q_star, V, L)``, ``L`` in that basis: ``q_star = tr(C L)``
    is the score no measurement exceeds, and the PVM of
    :func:`_sld_povm` reaches it.
    """
    e, v = np.linalg.eigh(states[1])
    c = prior.mean * (v.conj().T @ states[0] @ v)
    den = e[:, None] + e[None, :]
    support = den > DEFAULT_POLICY.support_tol
    sld = np.where(support, 2.0 * c / np.where(support, den, 1.0), 0.0)
    return float(np.sum(c * sld.T).real), v, sld


def _sld_povm(sld: tuple[float, np.ndarray, np.ndarray]) -> Povm:
    """The projectors onto the eigenspaces of ``L``, from the result of :func:`_sld`.

    Each eigenvalue of ``L`` is the estimate of its outcome.  Eigenvalues
    that lie within ``support_tol`` of their neighbour share one
    projector, so the outcomes come in ascending-estimate order and merge
    only where estimates tie, which leaves the score unchanged.
    """
    _, v, l = sld
    estimates, w = np.linalg.eigh(l)
    groups = np.split(v @ w, np.flatnonzero(np.diff(estimates) > DEFAULT_POLICY.support_tol) + 1, axis=1)
    return validate_povm([u @ u.conj().T for u in groups])


def q_functional(povm, prior: Prior, rho1: DensityMatrix, rho2: DensityMatrix) -> MeasurementScore:
    """Score a POVM; the mean variance is the expected squared error.

    An outcome with probability below ``DEFAULT_POLICY.zero_prob`` is
    flagged ``never_occurs``, keeps the prior moments as its estimate and
    contributes zero to the score.  For the uniform prior
    ``q_value + mean_variance = 1/3`` holds identically.
    """
    povm = as_povm(povm)
    if not povm.dim == rho1.dim == rho2.dim:
        raise DimensionMismatch(f"POVM dim {povm.dim} vs state dims {rho1.dim} and {rho2.dim}")
    return _score(povm.matrices(), prior, _weighted_states(prior, rho1, rho2))


def reject_degenerate_prior(prior: Prior) -> None:
    """Optimizers refuse priors with (numerically) zero variance."""
    if prior.variance <= DEFAULT_POLICY.degenerate_tol:
        raise DegenerateProblem("prior has zero variance; nothing to estimate")
