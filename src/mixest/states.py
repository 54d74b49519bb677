"""Density matrices, measurement effects and qubit Bloch coordinates.

All types are immutable after construction (the wrapped arrays are made
read-only), so they are safe to share across threads.  Input is checked
once, where it enters: matrices by the ``validate_*`` constructors, state
vectors by :func:`_unit_vector`; what the library derives from it is
built unchecked, by :func:`_trusted_states` and :func:`_trusted_povm`.
A list of same-shape matrices is validated as one stack, with one
``eigvalsh`` call for all of them; the first offending matrix raises the
error it would raise on its own.  Qubit Bloch coordinates are read from
the matrix entries, which equals the Pauli traces exactly.  Two states
are compared here only by :func:`commutator_norm`; the measurements are
built in :mod:`mixest.bayes` and by the solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParameter,
    DimensionMismatch,
    EffectBoundExceeded,
    InvalidPovm,
    NotHermitian,
    NotPSD,
    NotUnitTrace,
    VectorTooLong,
    WrongDimension,
    WrongShape,
)
from .policy import DEFAULT_POLICY

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)

for _p in PAULIS:
    _p.setflags(write=False)


def _as_square_matrix(m) -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise WrongDimension(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise BadParameter("matrix has non-finite entries (nan or inf)")
    return arr


def _check_stack(stack: np.ndarray, effect: bool) -> None:
    """Raise the first failed check of the first offending matrix of a stack.

    ``stack`` has shape (n, d, d).  Each matrix runs the checks in this
    order: finite entries, Hermiticity, unit trace (states only), then the
    smallest and (effects only) the largest eigenvalue of ``m/2 + m^H/2``,
    taken in one ``eigvalsh`` over the matrices before the first non-finite
    one.  Halving before adding cannot overflow, and every bound is written
    so that NaN fails it.
    """
    finite = np.isfinite(stack).all(axis=(1, 2)).tolist()
    m = stack[: finite.index(False) if False in finite else len(stack)]
    dev = np.abs(m - m.conj().swapaxes(1, 2)).max(axis=(1, 2)).tolist()
    tr = np.trace(m, axis1=1, axis2=2).tolist()
    half = m / 2
    eigs = np.linalg.eigvalsh(half + half.conj().swapaxes(1, 2))
    lo, hi = eigs[:, 0].tolist(), eigs[:, -1].tolist()  # eigvalsh sorts ascending
    for dev_i, tr_i, lo_i, hi_i in zip(dev, tr, lo, hi):
        if not dev_i <= DEFAULT_POLICY.herm_tol:
            raise NotHermitian(dev_i)
        if not effect and not abs(tr_i - 1.0) <= DEFAULT_POLICY.trace_tol:
            raise NotUnitTrace(tr_i)
        if not lo_i >= -DEFAULT_POLICY.psd_tol:
            raise NotPSD(lo_i)
        if effect and not hi_i <= 1.0 + DEFAULT_POLICY.effect_bound_tol:
            raise EffectBoundExceeded(hi_i)
    if len(m) < len(stack):
        raise BadParameter("matrix has non-finite entries (nan or inf)")


def _checked(matrices, effect: bool):
    """Validate matrices in input order; return them as read-only copies.

    Square matrices of one shape are checked as one stack; any other list
    is checked one matrix at a time, so the first offending matrix raises
    the same error either way.
    """
    matrices = list(matrices)
    try:
        stack = np.array(matrices, dtype=complex)
    except (TypeError, ValueError):  # ragged or not numeric
        stack = None
    if stack is None or stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        return [_checked([_as_square_matrix(m)], effect)[0] for m in matrices]
    _check_stack(stack, effect)
    stack.setflags(write=False)
    return stack


@dataclass(frozen=True)
class DensityMatrix:
    """A validated d x d density matrix (Hermitian, PSD, unit trace).

    Build one with :func:`validate_state` or :func:`validate_states`.  The
    constructor itself checks nothing; the library builds the states it
    derives through :func:`_trusted_states`.
    """

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Effect:
    """A measurement effect: Hermitian, PSD, no eigenvalue above one."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Povm:
    """An ordered collection of effects summing to the identity."""

    effects: tuple[Effect, ...]

    @property
    def dim(self) -> int:
        return self.effects[0].dim

    def __len__(self) -> int:
        return len(self.effects)

    def __iter__(self):
        return iter(self.effects)

    def matrices(self) -> list[np.ndarray]:
        return [e.matrix for e in self.effects]


def validate_states(matrices) -> tuple[DensityMatrix, ...]:
    """Validate matrices as density matrices, all in one pass.

    Raises the error of the first offending matrix, as :func:`validate_state`
    would for it.
    """
    return tuple(map(DensityMatrix, _checked(matrices, effect=False)))


def _trusted_states(matrices) -> tuple[DensityMatrix, ...]:
    """Density matrices, unchecked, from a stack that is valid by construction.

    Only for the prior-weighted mixtures of two validated states
    (:func:`~mixest.bayes.effective_states`), the pair ``|psi><psi|``,
    ``I/d`` of a unit vector, the equilibrium ``diag(s, 1 - s)``, ``s`` in
    [0, 1], of :class:`~mixest.simulate.DecoherenceModel`, and the excited
    state ``diag(1, 0)`` of ``mixest decoherence``: a check could only
    reject one of them within rounding of a tolerance edge.
    """
    stack = np.array(matrices, dtype=complex)
    stack.setflags(write=False)
    return tuple(map(DensityMatrix, stack))


def _trusted_povm(matrices) -> Povm:
    """A POVM, unchecked, from a stack of effects that is valid by construction.

    For every measurement the library builds: the SLD eigenspaces of one
    ``eigh``, the test ``{P, I - P}`` of a unit vector, the qubit PVM and
    the embedded pair whose smallest eigenvalues ``embed_and_check`` measured.
    """
    stack = np.array(matrices, dtype=complex)
    stack.setflags(write=False)
    return Povm(tuple(map(Effect, stack)))


def _unit_vector(psi, length: int | None = None) -> np.ndarray:
    """``psi / |psi|`` as a flat complex vector: the one check of a state vector.

    Raises :class:`WrongShape` for a length below 2 or other than ``length``,
    and :class:`BadParameter` unless ``0 < |psi| < inf``, which a nan or
    infinite entry, or a norm that overflows, fails.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if len(psi) < 2 or (length is not None and len(psi) != length):
        raise WrongShape(f"state vector has length {len(psi)}, expected {length or 'at least 2'}")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(psi))
    if not 0.0 < norm < math.inf:
        raise BadParameter(f"state vector must be finite and nonzero, its norm is {norm}")
    return psi / norm


def validate_state(m) -> DensityMatrix:
    """Validate a matrix as a density matrix or raise a named violation.

    Raises
    ------
    WrongDimension
        The input is not a square matrix.
    BadParameter
        The matrix has a nan or infinite entry.
    NotHermitian, NotUnitTrace, NotPSD
        Each carries the offending magnitude.
    """
    return validate_states([m])[0]


def validate_povm(matrices) -> Povm:
    """Validate a list of matrices as a POVM.

    Every element must be a valid effect, all checked in one pass, and the
    sum must equal the identity entrywise within ``povm_sum_tol``.
    Effects of mixed dimensions are each validated before the mismatch is
    reported.
    """
    effects = tuple(map(Effect, _checked(matrices, effect=True)))
    if not effects:
        raise InvalidPovm("a POVM needs at least one effect")
    dim = effects[0].dim
    if any(e.dim != dim for e in effects):
        raise DimensionMismatch("POVM effects have mixed dimensions")
    total = sum(e.matrix for e in effects)
    dev = float(np.max(np.abs(total - np.eye(dim))))
    if dev > DEFAULT_POLICY.povm_sum_tol:
        raise InvalidPovm(f"effects do not sum to the identity: max deviation {dev:.3e}", dev)
    return Povm(effects)


def as_povm(povm) -> Povm:
    """Accept either a Povm or a list of matrices."""
    if isinstance(povm, Povm):
        return povm
    return validate_povm(povm)


def _pauli_coords(m: np.ndarray) -> tuple[float, float, float]:
    """``(tr(sigma_x m), tr(sigma_y m), tr(sigma_z m))`` read from the entries.

    The traces only multiply entries by 0 and +-1, so the sums below are
    the same numbers; ``+ 0.0`` turns a zero into +0.0, as the traces give.
    """
    m00, m01, m10, m11 = m.ravel().tolist()
    return (m10.real + m01.real + 0.0, m10.imag - m01.imag + 0.0, m00.real - m11.real + 0.0)


def bloch_decompose(rho: DensityMatrix) -> np.ndarray:
    """Bloch vector (tr(sigma_x rho), tr(sigma_y rho), tr(sigma_z rho)) of a qubit state."""
    if rho.dim != 2:
        raise WrongDimension(f"Bloch decomposition needs a qubit, got dim {rho.dim}")
    return np.array(_pauli_coords(rho.matrix))


def bloch_compose(r, weight: float) -> Effect:
    """Build the effect ``weight * (I + r . sigma)``.

    The result is rank one exactly when ``|r| = 1``; ``weight = 1/2`` with a
    unit vector gives the projector onto the +r eigenstate.

    Raises
    ------
    WrongDimension
        ``r`` is not a 3-vector.
    BadParameter
        ``r`` or ``weight`` has a nan or infinite entry, or ``weight < 0``.
    VectorTooLong
        ``|r|`` exceeds one by more than ``bloch_norm_tol``.
    EffectBoundExceeded
        The largest eigenvalue ``weight * (1 + |r|)`` exceeds one by more
        than ``effect_bound_tol``.
    """
    vec = np.asarray(r, dtype=float)
    if vec.shape != (3,):
        raise WrongDimension(f"expected a 3-vector, got shape {vec.shape}")
    weight = float(weight)
    if not (np.isfinite(vec).all() and math.isfinite(weight)):
        raise BadParameter(f"Bloch vector and weight must be finite, got {vec.tolist()} and {weight}")
    norm = float(np.linalg.norm(vec))
    if not norm <= 1.0 + DEFAULT_POLICY.bloch_norm_tol:
        raise VectorTooLong(norm)
    if not weight >= 0.0:
        raise BadParameter(f"weight must be nonnegative, got {weight}")
    top = weight * (1.0 + norm)
    if not top <= 1.0 + DEFAULT_POLICY.effect_bound_tol:
        raise EffectBoundExceeded(top)
    return Effect(_compose_stack(vec[None], weight)[0])


def _compose_stack(vecs: np.ndarray, weight: float) -> np.ndarray:
    """Read-only stack of ``weight * (I + x X + y Y + z Z)``, one per row of ``vecs``.

    One broadcast over the (n, 3) rows, unchecked.  Each matrix gets the
    same complex-times-real products, summed in the same order, as a
    single vector would, so the bits (signed zeros included) do not depend
    on the stack.
    """
    x, y, z = (vecs[:, k, None, None] for k in range(3))
    out = weight * (np.eye(2, dtype=complex) + x * PAULI_X + y * PAULI_Y + z * PAULI_Z)
    out.setflags(write=False)
    return out


def commutator_norm(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    c = rho1.matrix @ rho2.matrix - rho2.matrix @ rho1.matrix
    return float(np.max(np.abs(c)))
