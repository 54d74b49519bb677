import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixest.errors import (
    BadParameter,
    DimensionMismatch,
    EffectBoundExceeded,
    InvalidPovm,
    NotCommuting,
    NotHermitian,
    NotPSD,
    NotUnitTrace,
    VectorTooLong,
    WrongDimension,
)
from mixest.policy import DEFAULT_POLICY
from mixest.highdim import _gell_mann, aligned_basis
from mixest.randutil import random_density, random_povm, random_pure, random_commuting_pair
from mixest.states import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityMatrix,
    _checked,
    bloch_compose,
    bloch_decompose,
    validate_povm,
    validate_state,
    validate_states,
)
from planar_oracle import common_eigenbasis, effect_bloch

Z0 = np.array([[1, 0], [0, 0]], dtype=complex)
Z1 = np.array([[0, 0], [0, 1]], dtype=complex)


def check_effect(m):
    """Validate one matrix as a POVM effect, the check ``validate_povm`` runs on each of its effects."""
    return _checked([m], effect=True)[0]


class TestValidateState:
    def test_maximally_mixed(self):
        rho = validate_state(np.eye(2) / 2)
        assert rho.dim == 2

    def test_not_psd_carries_eigenvalue(self):
        # closed-form roots of x^2 - x - 0.01: smaller one is negative
        expected = (1.0 - math.sqrt(1.04)) / 2.0
        with pytest.raises(NotPSD) as exc:
            validate_state([[0.6, 0.5], [0.5, 0.4]])
        assert exc.value.min_eigenvalue == pytest.approx(expected, abs=1e-9)
        assert exc.value.min_eigenvalue == pytest.approx(-0.0099, abs=1e-4)

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            validate_state([[0.5, 0.1], [0.3, 0.5]])

    def test_not_unit_trace(self):
        with pytest.raises(NotUnitTrace) as exc:
            validate_state(np.eye(2))
        assert exc.value.trace == pytest.approx(2.0)

    def test_rejects_non_square(self):
        with pytest.raises(WrongDimension):
            validate_state(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(BadParameter):
            validate_state([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(BadParameter):
            check_effect([[bad, 0.0], [0.0, 0.0]])

    def test_matrix_is_read_only(self):
        rho = validate_state(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 9.0


class TestEffectsAndPovms:
    def test_effect_above_identity(self):
        with pytest.raises(EffectBoundExceeded):
            check_effect(1.5 * np.eye(2))

    def test_effect_negative(self):
        with pytest.raises(NotPSD):
            check_effect(-0.1 * np.eye(2))

    def test_povm_sum_deviation(self):
        with pytest.raises(InvalidPovm) as exc:
            validate_povm([0.5 * np.eye(2), 0.4 * np.eye(2)])
        assert exc.value.deviation == pytest.approx(0.1, abs=1e-12)

    def test_povm_total_probability(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            povm = random_povm(rng, dim, 4)
            rho = random_density(rng, dim)
            total = sum(float(np.trace(e.matrix @ rho.matrix).real) for e in povm)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            validate_povm([np.eye(2) / 2, np.eye(3) / 3])


class TestBloch:
    def test_decompose_examples(self):
        assert bloch_decompose(validate_state(Z0)) == pytest.approx([0, 0, 1])
        assert bloch_decompose(validate_state(np.eye(2) / 2)) == pytest.approx([0, 0, 0])
        rho = validate_state(0.5 * (np.eye(2) + 0.6 * PAULI_X + 0.8 * PAULI_Z))
        assert bloch_decompose(rho) == pytest.approx([0.6, 0.0, 0.8])

    def test_decompose_wrong_dimension(self):
        with pytest.raises(WrongDimension):
            bloch_decompose(validate_state(np.eye(3) / 3))

    def test_compose_examples(self):
        assert bloch_compose([0, 0, 1], 0.5).matrix == pytest.approx(Z0)
        assert bloch_compose([0, 0, 0], 1.0).matrix == pytest.approx(np.eye(2))
        plus = bloch_compose([1, 0, 0], 0.5).matrix
        assert plus == pytest.approx(np.array([[0.5, 0.5], [0.5, 0.5]]))

    def test_compose_rejects_long_vectors(self):
        with pytest.raises(VectorTooLong):
            bloch_compose([1.1, 0, 0], 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_compose_rejects_non_finite_vectors(self, bad):
        for k in range(3):
            vec = [0.0, 0.0, 0.0]
            vec[k] = bad
            with pytest.raises(BadParameter, match="finite"):
                bloch_compose(vec, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_compose_rejects_non_finite_weights(self, bad):
        with pytest.raises(BadParameter, match="finite"):
            bloch_compose([0.0, 0.0, 1.0], bad)

    def test_compose_rejects_negative_weight(self):
        with pytest.raises(BadParameter, match="nonnegative"):
            bloch_compose([0.0, 0.0, 1.0], -1e-300)
        zero = bloch_compose([0.0, 0.0, 1.0], -0.0).matrix
        assert zero.tobytes() == (-0.0 * (np.eye(2) + PAULI_Z)).tobytes()

    @pytest.mark.parametrize("vec, weight", [([1.0, 0.0, 0.0], 0.5 + 1e-9), ([0.0, 0.0, 0.0], 1.0 + 1e-9),
                                             ([0.0, 0.6, 0.0], 0.7)])
    def test_compose_rejects_effects_past_their_bound(self, vec, weight):
        with pytest.raises(EffectBoundExceeded) as err:
            bloch_compose(vec, weight)
        assert err.value.max_eigenvalue == pytest.approx(weight * (1.0 + np.linalg.norm(vec)))

    def test_compose_accepts_the_bound(self):
        for vec, weight in (([1.0, 0.0, 0.0], 0.5), ([0.0, 0.0, 0.0], 1.0), ([0.0, 0.6, 0.0], 0.625)):
            eigs = np.linalg.eigvalsh(bloch_compose(vec, weight).matrix)
            assert eigs[-1] == pytest.approx(1.0, abs=1e-15)

    def test_pure_iff_unit_norm(self, rng):
        for _ in range(20):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            pure = bloch_compose(v, 0.5)
            eigs = np.linalg.eigvalsh(pure.matrix)
            assert eigs[0] == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.tuples(
            st.floats(-1, 1, allow_nan=False),
            st.floats(-1, 1, allow_nan=False),
            st.floats(-1, 1, allow_nan=False),
        ).filter(lambda v: 1e-6 < np.linalg.norm(v) <= 1.0)
    )
    def test_round_trip(self, v):
        vec = np.asarray(v)
        rho = validate_state(bloch_compose(vec, 0.5).matrix)
        assert np.max(np.abs(bloch_decompose(rho) - vec)) < 1e-12


class TestOperatorBasis:
    """The Gell-Mann generators that ``aligned_basis`` and the plane fallback complete from.

    Coordinates use the embedding's scale, ``r_i = tr(G_i rho) d / sqrt(d^2 - d)``,
    so pure states have unit norm.
    """

    @staticmethod
    def decompose(rho, gens):
        d = rho.dim
        return np.array([np.trace(g @ rho.matrix).real for g in gens]) * d / math.sqrt(d * d - d)

    @staticmethod
    def compose(coords, gens):
        d = gens[0].shape[0]
        return (np.eye(d) + math.sqrt(d * d - d) * np.tensordot(coords, np.array(gens), 1)) / d

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_orthonormal_and_traceless(self, dim):
        gens = list(_gell_mann(dim))
        assert len(gens) == dim * dim - 1
        for i, gi in enumerate(gens):
            assert abs(np.trace(gi)) < 1e-10
            for j, gj in enumerate(gens):
                inner = np.trace(gi.conj().T @ gj)
                assert abs(inner - (1.0 if i == j else 0.0)) < 1e-10

    def test_qubit_basis_is_scaled_paulis(self):
        gens = list(_gell_mann(2))
        for g, pauli in zip(gens, (PAULI_X, PAULI_Y, PAULI_Z), strict=True):
            assert g == pytest.approx(pauli / math.sqrt(2))

    def test_decompose_maximally_mixed(self):
        for dim in (2, 3, 4):
            coords = self.decompose(validate_state(np.eye(dim) / dim), list(_gell_mann(dim)))
            assert np.max(np.abs(coords)) < 1e-12

    def test_decompose_matches_bloch_for_qubits(self, rng):
        gens = list(_gell_mann(2))
        assert self.decompose(validate_state(Z0), gens) == pytest.approx([0, 0, 1], abs=1e-12)
        for _ in range(10):
            rho = random_density(rng, 2)
            assert self.decompose(rho, gens) == pytest.approx(
                bloch_decompose(rho), abs=1e-12
            )

    def test_pure_qutrit_has_unit_coordinate_norm(self):
        coords = self.decompose(validate_state(np.diag([1.0, 0, 0])), list(_gell_mann(3)))
        assert np.sum(coords**2) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_round_trip_and_purity(self, dim, rng):
        for _ in range(15):
            rho = random_pure(rng, dim)
            mixed = random_density(rng, dim)
            # the Gell-Mann family and the completed aligned basis both span the states
            for gens in (list(_gell_mann(dim)), aligned_basis(rho, mixed)):
                coords = self.decompose(rho, gens)
                recon = self.compose(coords, gens)
                assert np.max(np.abs(recon - rho.matrix)) < 1e-10
                assert np.sum(coords**2) == pytest.approx(1.0, abs=1e-9)
                coords = self.decompose(mixed, gens)
                assert np.max(np.abs(self.compose(coords, gens) - mixed.matrix)) < 1e-10
                # tr(rho^2) = 1/d + (1 - 1/d) |r|^2 under this normalization
                expected = 1.0 / dim + (1.0 - 1.0 / dim) * float(np.sum(coords**2))
                purity = float(np.trace(mixed.matrix @ mixed.matrix).real)
                assert purity == pytest.approx(expected, abs=1e-9)


class TestCommonEigenbasis:
    def test_diagonal_pair(self):
        rho1 = validate_state(np.diag([0.7, 0.3]))
        rho2 = validate_state(np.diag([0.2, 0.8]))
        basis = common_eigenbasis(rho1, rho2)
        # standard basis up to column order
        assert sorted(np.argmax(np.abs(basis), axis=0)) == [0, 1]
        assert np.max(np.abs(np.abs(basis) - np.abs(basis).round())) < 1e-10

    def test_identical_states(self, rng):
        rho = random_density(rng, 3)
        basis = common_eigenbasis(rho, rho)
        for mat in (rho.matrix,):
            diag = basis.conj().T @ mat @ basis
            off = diag - np.diag(np.diag(diag))
            assert np.max(np.abs(off)) < 1e-8

    def test_x_basis_pair(self):
        rho1 = validate_state(0.5 * (np.eye(2) + 0.5 * PAULI_X))
        rho2 = validate_state(0.5 * (np.eye(2) - 0.2 * PAULI_X))
        basis = common_eigenbasis(rho1, rho2)
        plus = np.array([1, 1]) / math.sqrt(2)
        minus = np.array([1, -1]) / math.sqrt(2)
        for k in range(2):
            col = basis[:, k]
            overlap = max(abs(np.vdot(plus, col)), abs(np.vdot(minus, col)))
            assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_not_commuting_carries_norm(self):
        rho1 = validate_state(Z0)
        rho2 = validate_state(np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(NotCommuting) as exc:
            common_eigenbasis(rho1, rho2)
        assert exc.value.commutator_norm > 0.1

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_random_commuting_pairs_diagonalize(self, dim, rng):
        for _ in range(10):
            rho1, rho2 = random_commuting_pair(rng, dim)
            basis = common_eigenbasis(rho1, rho2)
            assert np.max(np.abs(basis.conj().T @ basis - np.eye(dim))) < 1e-10
            for rho in (rho1, rho2):
                diag = basis.conj().T @ rho.matrix @ basis
                off = diag - np.diag(np.diag(diag))
                assert np.max(np.abs(off)) < 1e-8


# --- stacked validation and Pauli coordinates against the per-matrix code ----


def _reference_square(m):
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise WrongDimension(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise BadParameter("matrix has non-finite entries (nan or inf)")
    return arr


def _reference_state(m):
    """The one-matrix validator that the stacked checks replaced."""
    arr = _reference_square(m)
    dev = float(np.max(np.abs(arr - arr.conj().T)))
    if dev > DEFAULT_POLICY.herm_tol:
        raise NotHermitian(dev)
    tr = complex(np.trace(arr))
    if abs(tr - 1.0) > DEFAULT_POLICY.trace_tol:
        raise NotUnitTrace(tr)
    lo = float(np.linalg.eigvalsh((arr + arr.conj().T) / 2).min())
    if lo < -DEFAULT_POLICY.psd_tol:
        raise NotPSD(lo)
    return arr


def _reference_effect(m):
    arr = _reference_square(m)
    dev = float(np.max(np.abs(arr - arr.conj().T)))
    if dev > DEFAULT_POLICY.herm_tol:
        raise NotHermitian(dev)
    eigs = np.linalg.eigvalsh((arr + arr.conj().T) / 2)
    if eigs[0] < -DEFAULT_POLICY.psd_tol:
        raise NotPSD(float(eigs[0]))
    if eigs[-1] > 1.0 + DEFAULT_POLICY.effect_bound_tol:
        raise EffectBoundExceeded(float(eigs[-1]))
    return arr


def _reference_povm(matrices):
    effects = [_reference_effect(m) for m in matrices]
    if not effects:
        raise InvalidPovm("a POVM needs at least one effect")
    if any(e.shape != effects[0].shape for e in effects):
        raise DimensionMismatch("POVM effects have mixed dimensions")
    dev = float(np.max(np.abs(sum(effects) - np.eye(len(effects[0])))))
    if dev > DEFAULT_POLICY.povm_sum_tol:
        raise InvalidPovm(f"effects do not sum to the identity: max deviation {dev:.3e}", dev)
    return effects


def _outcome(fn, arg):
    """What a validator does with ``arg``: the error it raises, or the bytes it keeps."""
    try:
        out = fn(arg)
    except Exception as exc:  # the type and message are what is compared
        return type(exc).__name__, str(exc)
    return "ok", [np.asarray(getattr(m, "matrix", m)).tobytes() for m in out]


def _faulty(rng, m, kind):
    """``m`` with one fault of the given kind; kind 0 leaves it valid."""
    m = np.array(m, dtype=complex)
    d = len(m)
    size = rng.choice([1e-3, 3e-10, 3e-11])  # either side of the 1e-10 tolerances
    if kind == 1:
        m[0, d - 1] += size  # not Hermitian
    elif kind == 2:
        m = m + size * np.eye(d) / d  # trace off; an effect does not care
    elif kind == 3:
        m = m - size * np.eye(d) + rng.choice([0.0, size]) * np.eye(d) / d  # negative eigenvalue
    elif kind == 4:
        m = m * (1.0 + rng.choice([0.5, 3e-10, 3e-11]))  # eigenvalue above one, or trace off
    elif kind == 5:
        m[d - 1, 0] = rng.choice([np.nan, np.inf, -np.inf])
    elif kind == 6:
        m = m[:, :-1]  # not square
    elif kind == 7:
        m = np.eye(d + 1, dtype=complex) / (d + 1)  # another dimension
    return m


def _faulty_list(rng, matrices):
    kinds = rng.choice(8, size=len(matrices), p=[0.65] + [0.05] * 7)
    return [_faulty(rng, m, k) for m, k in zip(matrices, kinds)]


class TestStackedValidationMatchesPerMatrixCode:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_states(self, dim, rng):
        for _ in range(300):
            mats = _faulty_list(rng, [random_density(rng, dim).matrix for _ in range(int(rng.integers(1, 5)))])
            assert _outcome(validate_states, mats) == _outcome(lambda ms: [_reference_state(m) for m in ms], mats)
            for m in mats:
                assert _outcome(lambda x: [validate_state(x)], m) == _outcome(lambda x: [_reference_state(x)], m)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_effects_and_povms(self, dim, rng):
        for _ in range(300):
            mats = _faulty_list(rng, random_povm(rng, dim, int(rng.integers(2, 5))).matrices())
            assert _outcome(validate_povm, mats) == _outcome(_reference_povm, mats)
            for m in mats:
                assert _outcome(lambda x: [check_effect(x)], m) == _outcome(lambda x: [_reference_effect(x)], m)

    def test_every_fault_kind_is_reached(self, rng):
        seen = set()
        for _ in range(300):
            mats = _faulty_list(rng, random_povm(rng, 2, 3).matrices())
            seen.add(_outcome(validate_povm, mats)[0])
        assert seen == {"ok", "NotHermitian", "NotPSD", "EffectBoundExceeded", "BadParameter",
                        "WrongDimension", "DimensionMismatch", "InvalidPovm"}

    def test_ragged_input_raises_the_earlier_offender_first(self):
        ragged = [[1.0, 0.0], [0.0]]
        with pytest.raises(NotPSD):
            validate_states([np.diag([1.5, -0.5]), ragged])
        with pytest.raises(ValueError):
            validate_states([np.eye(2) / 2, ragged])

    def test_accepted_matrices_are_read_only_copies(self):
        m = np.diag([0.25, 0.75]).astype(complex)
        rho1, rho2 = validate_states([m, m])
        assert rho1.matrix is not m and rho1.matrix.tobytes() == m.tobytes()
        assert not rho1.matrix.flags.writeable and not rho2.matrix.flags.writeable
        m[0, 0] = 0.5
        assert rho1.matrix[0, 0] == 0.25


class TestOverflowingEntries:
    """Finite entries near 1e308 overflow ``(m + m^H)/2``; the eigenvalue checks must still bite."""

    HUGE = np.array([[0.5, 1.5e308], [1.5e308, 0.5]])

    def test_state_rejected(self):
        with pytest.raises(NotPSD) as exc:
            validate_state(self.HUGE)
        assert exc.value.min_eigenvalue == pytest.approx(-1.5e308, rel=1e-12)

    def test_povm_rejected(self):
        e = np.array([[0.0, 1.5e308], [1.5e308, 0.0]])
        with pytest.raises(NotPSD):
            validate_povm([e, np.eye(2) - e])

    def test_effect_rejected(self):
        with pytest.raises(NotPSD):
            check_effect(np.array([[0.0, 1.7e308], [1.7e308, 0.0]]))

    def test_normal_range_eigenvalues_unchanged(self, rng):
        # m/2 + m^H/2 equals (m + m^H)/2 bit for bit when nothing overflows
        for dim in (2, 3, 5):
            for _ in range(50):
                m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                half = m / 2
                assert (half + half.conj().T).tobytes() == ((m + m.conj().T) / 2).tobytes()


def _reference_pauli(m):
    return [float(np.trace(p @ m).real) for p in (PAULI_X, PAULI_Y, PAULI_Z)]


def _bits(values):
    return [float(v).hex() for v in values]


class TestPauliCoordinatesMatchTraces:
    def test_random_states_and_effects(self, rng):
        for _ in range(300):
            rho = random_density(rng, 2)
            assert _bits(bloch_decompose(rho)) == _bits(_reference_pauli(rho.matrix))
            for e in random_povm(rng, 2, 3):
                p, r = effect_bloch(e)
                want = np.array(_reference_pauli(e.matrix)) / (2.0 * p)
                assert _bits(r) == _bits(want)

    def test_signed_zeros_and_axis_aligned_entries(self):
        # every real and imaginary part drawn from a set with both zeros
        parts = [0.0, -0.0, 0.5, -0.5, 0.25]
        rng = np.random.default_rng(7)
        for _ in range(3000):
            m = rng.choice(parts, size=(2, 2)) + 1j * rng.choice(parts, size=(2, 2))
            m[rng.random((2, 2)) < 0.3] = -0.0 + 0.0j
            rho = DensityMatrix(m)
            assert _bits(bloch_decompose(rho)) == _bits(_reference_pauli(m))

    def test_diagonal_and_real_states(self):
        for m in (np.diag([0.7, 0.3]), np.diag([1.0, 0.0]), np.eye(2) / 2,
                  np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([[0.5, -0.5j], [0.5j, 0.5]]),
                  np.array([[0.5, -0.25], [-0.25, 0.5]])):
            rho = validate_state(m)
            assert _bits(bloch_decompose(rho)) == _bits(_reference_pauli(rho.matrix))
