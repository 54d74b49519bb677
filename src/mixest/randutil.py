"""Random states and measurements for dominance checks and simulations."""

from __future__ import annotations

import numpy as np

from .policy import DEFAULT_POLICY
from .states import DensityMatrix, Povm, validate_povm, validate_state


def haar_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A Haar-random unit vector in C^dim."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> DensityMatrix:
    """Random mixed state of the given rank (full rank by default)."""
    rank = dim if rank is None else rank
    x = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = x @ x.conj().T
    return validate_state(m / np.trace(m).real)


def random_pure(rng: np.random.Generator, dim: int) -> DensityMatrix:
    v = haar_vector(rng, dim)
    return validate_state(np.outer(v, v.conj()))


def random_povm(rng: np.random.Generator, dim: int, n_effects: int = 4) -> Povm:
    """Random POVM: Dirichlet-weighted rank-one effects plus a completion.

    The rank-one part is a convex combination of projectors, so its
    largest eigenvalue stays at most one and the completing effect
    ``I - sum`` is positive; resample in the rare boundary case.
    """
    if n_effects < 2:
        raise ValueError("need at least two effects")
    while True:
        weights = rng.dirichlet(np.ones(n_effects - 1))
        effects = []
        total = np.zeros((dim, dim), dtype=complex)
        for w in weights:
            v = haar_vector(rng, dim)
            e = w * np.outer(v, v.conj())
            effects.append(e)
            total += e
        rest = np.eye(dim) - total
        if np.linalg.eigvalsh((rest + rest.conj().T) / 2).min() >= -DEFAULT_POLICY.psd_tol / 10:
            effects.append(rest)
            return validate_povm(effects)


def random_commuting_pair(
    rng: np.random.Generator, dim: int
) -> tuple[DensityMatrix, DensityMatrix]:
    """Two states diagonal in a common Haar-random basis."""
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(x)
    d1 = rng.dirichlet(np.ones(dim))
    d2 = rng.dirichlet(np.ones(dim))
    rho1 = q @ np.diag(d1).astype(complex) @ q.conj().T
    rho2 = q @ np.diag(d2).astype(complex) @ q.conj().T
    return validate_state(rho1), validate_state(rho2)
