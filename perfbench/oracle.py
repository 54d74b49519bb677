"""Reference answers that do not use mixest's solvers.

* ``personick_q`` is the Bayes-optimal score from the symmetric
  logarithmic derivative (Personick, IEEE Trans. Inf. Theory 17, 240,
  1971): solve ``rho_b L + L rho_b = 2 mean rho_a`` in the eigenbasis of
  ``rho_b`` on its support; the optimum is ``q* = tr(mean rho_a L)``.
  No measurement can score above it.
* ``score`` recomputes the score of given effects from the traces.
* ``trial_records`` re-derives Monte Carlo trials from the documented
  counter-based stream, so a sampler rewrite can be held to bit equality.
* ``sweep_q_max`` and ``ppt_threshold`` are closed forms for the
  gamma sweep and the entanglement threshold.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.random import Generator, Philox

MASK64 = (1 << 64) - 1
SOLVED_TOL = 1e-9     # solved routes must reach q* within this
IDENTITY_TOL = 1e-12  # q_value + mean_variance = second_moment
EFFECT_TOL = 1e-9     # positivity and completeness of returned effects


def weighted_states(prior, rho1: np.ndarray, rho2: np.ndarray):
    """The mixtures rho_a (weight second/mean) and rho_b (weight mean)."""
    w = prior.second_moment / prior.mean
    rho_a = w * rho1 + (1.0 - w) * rho2
    rho_b = prior.mean * rho1 + (1.0 - prior.mean) * rho2
    return rho_a, rho_b


def personick_q(prior, rho1: np.ndarray, rho2: np.ndarray, support_tol: float = 1e-12) -> float:
    """Largest achievable score over all POVMs (Bayesian SLD bound)."""
    rho_a, rho_b = weighted_states(prior, rho1, rho2)
    e, v = np.linalg.eigh((rho_b + rho_b.conj().T) / 2)
    c = v.conj().T @ (prior.mean * rho_a) @ v
    den = e[:, None] + e[None, :]
    mask = den > support_tol
    return float(np.sum(2.0 * np.abs(c[mask]) ** 2 / den[mask]))


def score(prior, rho1: np.ndarray, rho2: np.ndarray, effects, zero_prob: float = 1e-14):
    """(q_value, estimates) of a measurement, straight from the traces."""
    rho_a, rho_b = weighted_states(prior, rho1, rho2)
    q = 0.0
    estimates = []
    for e in effects:
        p = float(np.trace(e @ rho_b).real)
        if p < zero_prob:
            estimates.append(prior.mean)
            continue
        est = prior.mean * float(np.trace(e @ rho_a).real) / p
        estimates.append(est)
        q += p * est * est
    return q, estimates


def effects_problem(effects, dim: int) -> str | None:
    """Why the effects are not a POVM, or None."""
    total = np.zeros((dim, dim), dtype=complex)
    for e in effects:
        if np.max(np.abs(e - e.conj().T)) > EFFECT_TOL:
            return "effect not Hermitian"
        if np.linalg.eigvalsh((e + e.conj().T) / 2).min() < -EFFECT_TOL:
            return "effect not positive"
        total = total + e
    if np.max(np.abs(total - np.eye(dim))) > EFFECT_TOL:
        return "effects do not sum to the identity"
    return None


def check_solution(prior, rho1, rho2, effects, q_value, mean_variance, q_star, solved=True):
    """Failures of one reported optimum against the oracle (empty if fine)."""
    out = []
    bad = effects_problem(effects, rho1.shape[0])
    if bad:
        out.append(bad)
    q_indep, _ = score(prior, rho1, rho2, effects)
    if abs(q_indep - q_value) > SOLVED_TOL:
        out.append(f"reported q {q_value!r} but effects score {q_indep!r}")
    if q_value > q_star + SOLVED_TOL:
        out.append(f"q {q_value!r} exceeds the SLD bound {q_star!r}")
    if solved and abs(q_value - q_star) > SOLVED_TOL:
        out.append(f"q {q_value!r} misses the SLD optimum {q_star!r}")
    if abs(q_value + mean_variance - prior.second_moment) > IDENTITY_TOL:
        out.append("q_value + mean_variance != second_moment")
    return out


def trial_uniforms(seed: int, index: int) -> tuple[float, float]:
    """The two doubles trial ``index`` draws: Philox key seed, counter [0,0,i,0]."""
    u = Generator(Philox(key=seed & MASK64, counter=[0, 0, index, 0])).random(2)
    return float(u[0]), float(u[1])


def outcome_traces(effects, rho1: np.ndarray, rho2: np.ndarray):
    t1 = [float(np.trace(e @ rho1).real) for e in effects]
    t2 = [float(np.trace(e @ rho2).real) for e in effects]
    return t1, t2


def trial_records(prior, t1, t2, estimates, seed: int, n: int):
    """(lam, outcome, estimate, squared_error) of trials 0..n-1.

    Outcome m is the first whose cumulative probability
    ``sum_{k<=m} max(lam t1_k + (1 - lam) t2_k, 0)`` exceeds
    ``u1 * total``, accumulated left to right; the last outcome otherwise.
    """
    out = []
    k = len(t1)
    for i in range(n):
        u0, u1 = trial_uniforms(seed, i)
        lam = float(prior.sample_from_uniform(u0))
        probs = [max(lam * t1[m] + (1.0 - lam) * t2[m], 0.0) for m in range(k)]
        target = u1 * sum(probs)
        acc = 0.0
        outcome = k - 1
        for m in range(k):
            acc += probs[m]
            if target < acc:
                outcome = m
                break
        est = estimates[outcome]
        out.append((lam, outcome, est, (lam - est) ** 2))
    return out


def summary_of(records):
    """(empirical_mse, std_error) as the simulation defines them."""
    errors = np.array([r[3] for r in records])
    n = len(errors)
    mse = float(errors.mean())
    se = float(errors.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")
    return mse, se


def sweep_q_max(delta_r: float, r_b: float, gamma: float, scale: float) -> float:
    """Maximum of the planar score: a generalised Rayleigh quotient.

    With ``r_b . delta = r_b delta_r cos(gamma)`` the maximum over unit
    directions is ``scale (1 + delta_r^2 + (r_b . delta)^2 / (1 - r_b^2))``.
    """
    dot = r_b * delta_r * math.cos(gamma)
    return scale * (1.0 + delta_r**2 + dot * dot / (1.0 - r_b * r_b))


def ppt_threshold(psi: np.ndarray) -> float | None:
    """Noise weight above which ``lam |psi><psi| + (1 - lam) I/4`` is entangled.

    The partial transpose has smallest eigenvalue
    ``(1 - lam)/4 - lam sqrt(p1 p2)`` with Schmidt weights p1, p2.
    """
    p = np.linalg.svd(np.asarray(psi, dtype=complex).reshape(2, 2), compute_uv=False) ** 2
    s = math.sqrt(p[0] * p[1])
    return None if s < 1e-12 else 1.0 / (1.0 + 4.0 * s)


def is_entangled(m: np.ndarray, tol: float = 1e-10) -> bool:
    pt = m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    return float(np.linalg.eigvalsh((pt + pt.conj().T) / 2).min()) < -tol
