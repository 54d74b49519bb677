import math

import numpy as np
import pytest

from mixest import bayes, highdim, states
from mixest.bayes import Prior, _sld, _sld_povm, _weighted_states, q_functional
from mixest.errors import (
    DegenerateProblem,
    DimensionMismatch,
    NotCommuting,
    SupportTooLarge,
    WrongDimension,
)
from mixest.highdim import (
    ReductionKind,
    aligned_basis,
    embed_and_check,
    solve,
    solve_commuting,
    solve_pure_plus_noise,
    solve_two_dim_support,
    support_rank,
)
from mixest.policy import DEFAULT_POLICY
from mixest.qubit import optimal_alpha, optimal_pvm
from mixest.randutil import (
    haar_vector,
    random_commuting_pair,
    random_density,
    random_povm,
)
from mixest.simulate import entanglement_demo
from mixest.states import validate_povm, validate_state, validate_states
from planar_oracle import common_eigenbasis, pinch_to_basis, sld_q
from test_cli import tilted_noise_pair

UNIFORM = Prior.uniform()


def embed_states(psi):
    psi = np.asarray(psi, dtype=complex)
    return validate_state(np.outer(psi, psi.conj()))


def same_effect_sets(povm_a, povm_b, tol=1e-9):
    used = set()
    for e in povm_a:
        hit = None
        for j, f in enumerate(povm_b):
            if j in used:
                continue
            if np.max(np.abs(e.matrix - f.matrix)) < tol:
                hit = j
                break
        if hit is None:
            return False
        used.add(hit)
    return len(used) == len(povm_b.effects)


# Closed-form scores in reduced coordinates, independent of q_functional.


def commuting_q(prior, rho1, rho2):
    """Score of the common-eigenbasis PVM from the two eigenvalue lists."""
    basis = common_eigenbasis(rho1, rho2)
    t = np.real(np.diag(basis.conj().T @ rho1.matrix @ basis))
    s = np.real(np.diag(basis.conj().T @ rho2.matrix @ basis))
    w = prior.second_moment / prior.mean
    q = 0.0
    for ti, si in zip(t, s):
        tb = prior.mean * ti + (1.0 - prior.mean) * si
        if tb < 1e-14:
            continue
        ta = w * ti + (1.0 - w) * si
        q += (prior.mean * ta) ** 2 / tb
    return q


def two_outcome_planar_q(prior, d):
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


def embedded_planar_q(prior, rho1, rho2, first):
    """Planar score of {first, I - first} in the coordinates of the aligned plane.

    ``first = (I + sqrt(d^2 - d) (v_1 G_1 + v_2 G_2)) / d``; the effect
    carries weight 1/d at radius (d - 1) v, its complement (d - 1)/d at -v.
    """
    d = rho1.dim
    g1, g2 = aligned_basis(rho1, rho2)[:2]
    scale = d / math.sqrt(d * d - d)

    def coords(m):
        return scale * np.array([np.trace(g.conj().T @ m).real for g in (g1, g2)])

    r1, r2, v = coords(rho1.matrix), coords(rho2.matrix), coords(first)
    w = prior.second_moment / prior.mean
    r_a = w * r1 + (1.0 - w) * r2
    r_b = prior.mean * r1 + (1.0 - prior.mean) * r2
    dr = r_a - r_b
    total = 0.0
    for p, r in ((1.0 / d, (d - 1.0) * v), ((d - 1.0) / d, -v)):
        den = 1.0 + float(r @ r_b)
        if den < 1e-14:
            continue
        total += p * float(r @ dr) ** 2 / den
    return prior.mean**2 * (1.0 + total)


class TestSolveCommuting:
    def test_qubit_example(self):
        rho1 = validate_state(np.diag([1.0, 0.0]))
        rho2 = validate_state(np.diag([0.5, 0.5]))
        out = solve_commuting(UNIFORM, rho1, rho2)
        assert out.kind is ReductionKind.COMMUTING
        assert out.report.score.q_value == pytest.approx(7 / 27, abs=1e-12)
        assert out.report.score.mean_variance == pytest.approx(2 / 27, abs=1e-12)
        assert commuting_q(UNIFORM, rho1, rho2) == pytest.approx(out.report.score.q_value, abs=1e-10)

    def test_identical_states_rejected(self):
        rho = validate_state(np.diag([0.6, 0.4]))
        with pytest.raises(DegenerateProblem, match="rho1 = rho2"):
            solve_commuting(UNIFORM, rho, rho)

    def test_qutrit_dominance(self, rng):
        rho1 = validate_state(np.diag([0.5, 0.3, 0.2]))
        rho2 = validate_state(np.diag([0.2, 0.3, 0.5]))
        out = solve_commuting(UNIFORM, rho1, rho2)
        best = out.report.score.q_value
        for _ in range(300):
            povm = random_povm(rng, 3, 4)
            assert q_functional(povm, UNIFORM, rho1, rho2).q_value <= best + 1e-10

    def test_rejects_non_commuting(self, rng):
        rho1 = validate_state(np.diag([1.0, 0.0]))
        rho2 = validate_state(np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(NotCommuting) as exc:
            solve_commuting(UNIFORM, rho1, rho2)
        assert exc.value.commutator_norm > 0.1

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_pinching_preserves_score(self, dim, rng):
        for _ in range(20):
            rho1, rho2 = random_commuting_pair(rng, dim)
            basis = common_eigenbasis(rho1, rho2)
            povm = random_povm(rng, dim, 4)
            base = q_functional(povm, UNIFORM, rho1, rho2).q_value
            pinched = pinch_to_basis(povm, basis)
            assert q_functional(pinched, UNIFORM, rho1, rho2).q_value == pytest.approx(
                base, abs=1e-12
            )

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_random_commuting_dominance(self, dim, rng):
        rho1, rho2 = random_commuting_pair(rng, dim)
        out = solve_commuting(UNIFORM, rho1, rho2)
        best = out.report.score.q_value
        for _ in range(200):
            povm = random_povm(rng, dim, dim + 1)
            assert q_functional(povm, UNIFORM, rho1, rho2).q_value <= best + 1e-10

    def test_merging_equal_eigenvalue_outcomes_keeps_score(self):
        # two eigenbasis outcomes with identical eigenvalue pairs can be
        # merged without changing the score, so the finest measurement is
        # as good as any coarse-graining of it
        rho1 = validate_state(np.diag([0.4, 0.4, 0.2]))
        rho2 = validate_state(np.diag([0.3, 0.3, 0.4]))
        out = solve_commuting(UNIFORM, rho1, rho2)
        fine = out.report.score.q_value
        merged = [
            np.diag([1.0, 1.0, 0.0]).astype(complex),
            np.diag([0.0, 0.0, 1.0]).astype(complex),
        ]
        coarse = q_functional(merged, UNIFORM, rho1, rho2).q_value
        assert coarse == pytest.approx(fine, abs=1e-12)
        # the solver merges the tied outcomes itself
        assert len(out.report.povm) == 2


class TestTwoDimSupport:
    def test_embedded_orthogonal_pures(self):
        rho1 = embed_states([1, 0, 0])
        rho2 = embed_states([0, 1, 0])
        out = solve_two_dim_support(UNIFORM, rho1, rho2)
        assert out.kind is ReductionKind.TWO_DIM_SUBSPACE
        assert out.report.score.mean_variance == pytest.approx(1 / 18, abs=1e-10)
        assert len(out.report.povm) == 3
        qubit = optimal_pvm(UNIFORM, validate_state(np.diag([1.0, 0.0])), validate_state(np.diag([0.0, 1.0])))
        assert qubit.score.q_value == pytest.approx(out.report.score.q_value, abs=1e-10)
        probs = [o.prob for o in out.report.score.per_outcome]
        assert min(probs) == pytest.approx(0.0, abs=1e-12)

    def test_overlapping_pures_commute_with_difference(self, rng):
        for _ in range(5):
            theta = rng.uniform(0.3, 1.2)
            psi1 = np.array([1.0, 0.0, 0.0, 0.0])
            psi2 = np.array([math.cos(theta), math.sin(theta), 0.0, 0.0])
            rho1 = embed_states(psi1)
            rho2 = embed_states(psi2)
            out = solve_two_dim_support(UNIFORM, rho1, rho2)
            diff = rho1.matrix - rho2.matrix
            for effect in out.report.povm:
                comm = effect.matrix @ diff - diff @ effect.matrix
                assert np.max(np.abs(comm)) < 1e-8

    def test_rejects_large_support(self, rng):
        rho1 = random_density(rng, 3)
        rho2 = random_density(rng, 3)
        assert support_rank(rho1, rho2) == 3
        with pytest.raises(SupportTooLarge):
            solve_two_dim_support(UNIFORM, rho1, rho2)

    def test_identical_pure_states_rejected(self):
        rho = embed_states([0, 0, 1])
        with pytest.raises(DegenerateProblem, match="rho1 = rho2"):
            solve_two_dim_support(UNIFORM, rho, rho)

    def test_lifted_score_matches_qubit_solution(self, rng):
        # random pair supported on the first two axes of a 4-level system
        small1 = random_density(rng, 2)
        small2 = random_density(rng, 2)
        big1 = np.zeros((4, 4), dtype=complex)
        big2 = np.zeros((4, 4), dtype=complex)
        big1[:2, :2] = small1.matrix
        big2[:2, :2] = small2.matrix
        out = solve_two_dim_support(UNIFORM, validate_state(big1), validate_state(big2))
        direct = optimal_pvm(UNIFORM, small1, small2)
        assert out.report.score.q_value == pytest.approx(direct.score.q_value, abs=1e-10)


class TestPureWithNoise:
    def test_qubit_case_matches_direct_solver(self, rng):
        psi = haar_vector(rng, 2)
        out = solve_pure_plus_noise(UNIFORM, psi)
        rho1 = embed_states(psi)
        rho2 = validate_state(np.eye(2) / 2)
        direct = optimal_pvm(UNIFORM, rho1, rho2)
        assert out.report.score.q_value == pytest.approx(direct.score.q_value, abs=1e-12)
        assert same_effect_sets(out.report.povm, direct.povm, tol=1e-8)

    def test_four_level_estimates(self):
        psi = np.array([1.0, 0.0, 0.0, 0.0])
        out = solve_pure_plus_noise(UNIFORM, psi)
        # traces against the effective mixtures by hand:
        # P1: (3/4, 5/8) -> estimate 3/5; complement: (1/4, 3/8) -> 1/3
        assert sorted(out.report.estimates) == pytest.approx([1 / 3, 3 / 5], abs=1e-12)
        assert two_outcome_planar_q(UNIFORM, 4) == pytest.approx(out.report.score.q_value, abs=1e-10)

    def test_prior_collapse_limit(self):
        prior = Prior.truncated_reciprocal(1e-3)
        assert prior.mean == pytest.approx(1.0, abs=1e-3)
        out = solve_pure_plus_noise(prior, np.array([1.0, 0.0, 0.0, 0.0]))
        subspace_estimate = max(out.report.estimates)
        assert subspace_estimate == pytest.approx(prior.mean, abs=1e-4)

    def test_reciprocal_prior_consistency(self):
        prior = Prior.truncated_reciprocal(math.log(2))
        out = solve_pure_plus_noise(prior, np.array([0.0, 1.0, 0.0]))
        assert two_outcome_planar_q(prior, 3) == pytest.approx(out.report.score.q_value, abs=1e-10)


class TestEmbedding:
    def test_qubit_case_equals_direct_solver(self, rng):
        for _ in range(5):
            rho1 = random_density(rng, 2)
            rho2 = random_density(rng, 2)
            out = embed_and_check(UNIFORM, rho1, rho2)
            direct = optimal_pvm(UNIFORM, rho1, rho2)
            assert out.report is not None
            assert out.report.score.q_value == pytest.approx(direct.score.q_value, abs=1e-10)
            assert same_effect_sets(out.report.povm, direct.povm, tol=1e-7)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_pure_with_noise_reproduced(self, dim, rng):
        psi = haar_vector(rng, dim)
        rho1 = embed_states(psi)
        rho2 = validate_state(np.eye(dim) / dim)
        out = embed_and_check(UNIFORM, rho1, rho2)
        reference = solve_pure_plus_noise(UNIFORM, psi)
        assert out.kind is ReductionKind.EMBEDDED
        assert out.report is not None
        assert same_effect_sets(out.report.povm, reference.report.povm, tol=1e-8)
        first = out.report.povm.effects[0].matrix
        assert embedded_planar_q(UNIFORM, rho1, rho2, first) == pytest.approx(
            out.report.score.q_value, abs=1e-10
        )

    def test_mirrored_pure_with_noise(self, rng):
        # noise first, pure state second: the opposite-sign candidate wins
        psi = haar_vector(rng, 3)
        rho1 = validate_state(np.eye(3) / 3)
        rho2 = embed_states(psi)
        out = embed_and_check(UNIFORM, rho1, rho2)
        assert out.report is not None
        projector = np.outer(psi, psi.conj())
        assert any(
            np.max(np.abs(e.matrix - projector)) < 1e-8 for e in out.report.povm
        )

    def test_generic_full_rank_pair_unreduced(self, rng):
        found = 0
        for _ in range(10):
            rho1 = random_density(rng, 3)
            rho2 = random_density(rng, 3)
            out = embed_and_check(UNIFORM, rho1, rho2)
            if out.kind is ReductionKind.UNREDUCED:
                found += 1
                assert out.min_eigenvalue < -1e-10
                assert out.report is None
                assert len(out.candidate_effects) == 2
        assert found >= 8  # generic pairs overwhelmingly fail positivity

    def test_positive_embeds_dominate_random_povms(self, rng):
        psi = haar_vector(rng, 3)
        rho1 = embed_states(psi)
        rho2 = validate_state(np.eye(3) / 3)
        out = embed_and_check(UNIFORM, rho1, rho2)
        assert out.report is not None
        best = out.report.score.q_value
        for _ in range(300):
            povm = random_povm(rng, 3, 4)
            assert q_functional(povm, UNIFORM, rho1, rho2).q_value <= best + 1e-10

    def test_degenerate_states_rejected(self, rng):
        rho = random_density(rng, 3)
        with pytest.raises(DegenerateProblem):
            embed_and_check(UNIFORM, rho, rho)

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_skewed_state_gives_hermitian_effects(self, dim):
        # rho1 carries an anti-Hermitian part that the state check accepts;
        # rebuilt from plane coordinates, the effects would carry it scaled
        # up, and the default Hermiticity check would refuse them
        rng = np.random.default_rng(dim)
        noise = validate_state(np.eye(dim) / dim)
        for _ in range(10):
            skew = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            skew -= skew.conj().T
            skew -= np.trace(skew) / dim * np.eye(dim)
            skew *= 4.5e-11 / np.abs(skew).max()
            w = rng.uniform(0.01, 1.0)
            psi = haar_vector(rng, dim)
            rho1 = validate_state(w * np.outer(psi, psi.conj()) + (1.0 - w) * noise.matrix + skew)
            out = embed_and_check(UNIFORM, rho1, noise)
            assert out.kind is ReductionKind.EMBEDDED
            for m in out.report.povm.matrices():
                assert np.array_equal(m, m.conj().T)


class TestAlignedBasis:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_is_orthonormal_and_aligned(self, dim, rng):
        rho1 = random_density(rng, dim)
        rho2 = random_density(rng, dim)
        gens = aligned_basis(rho1, rho2)
        assert len(gens) == dim * dim - 1
        stack = np.array(gens)
        flat = stack.reshape(len(gens), dim * dim)
        assert np.max(np.abs(flat.conj() @ flat.T - np.eye(len(gens)))) < 1e-10
        assert np.max(np.abs(np.trace(stack, axis1=1, axis2=2))) < 1e-10
        diff = rho1.matrix - rho2.matrix
        diff /= math.sqrt(np.trace(diff @ diff).real)
        overlap = abs(np.trace(gens[0].conj().T @ diff))
        assert overlap == pytest.approx(1.0, abs=1e-10)


def _pure_noise_pair(rng, dim):
    return embed_states(haar_vector(rng, dim)), validate_state(np.eye(dim) / dim)


class TestPlaneWithoutFullBasis:
    """embed_and_check builds only the plane; its answer must match the planar oracle."""

    @staticmethod
    def check_against_oracle(rho1, rho2, prior=UNIFORM):
        plane = embed_and_check(prior, rho1, rho2)
        if plane.report is None:
            assert plane.kind is ReductionKind.UNREDUCED
            assert plane.min_eigenvalue < -DEFAULT_POLICY.psd_tol
        else:
            first = plane.report.povm.effects[0].matrix
            assert embedded_planar_q(prior, rho1, rho2, first) == pytest.approx(
                plane.report.score.q_value, abs=1e-10
            )
        return plane

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_random_pairs(self, dim, rng):
        prior = Prior.truncated_reciprocal(math.log(2))
        for _ in range(4):
            self.check_against_oracle(random_density(rng, dim), random_density(rng, dim), prior)
            self.check_against_oracle(random_density(rng, dim, 1), random_density(rng, dim, 2))

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_pure_with_noise(self, dim, rng):
        rho1, rho2 = _pure_noise_pair(rng, dim)
        assert self.check_against_oracle(rho1, rho2).kind is ReductionKind.EMBEDDED

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_mirrored_pair_takes_the_gell_mann_fallback(self, dim, rng):
        pure, noise = _pure_noise_pair(rng, dim)
        # rho1 - I/d vanishes, so G_2 cannot come from Gram-Schmidt on it
        assert np.max(np.abs(noise.matrix - np.eye(dim) / dim)) == 0.0
        assert self.check_against_oracle(noise, pure).kind is ReductionKind.EMBEDDED


def _candidate_pairs(rho1, rho2, u):
    """The embedding's four effects along the plane direction ``u``, and ``A``."""
    d = rho1.dim
    g1, g2 = highdim._aligned_plane(rho1, rho2)
    a = math.sqrt(d * d - d) * (u[0] * g1 + u[1] * g2)
    a = (a + a.conj().T) / 2
    plus, minus = (np.eye(d) + a) / d, (np.eye(d) - a) / d
    return a, ((plus, np.eye(d) - plus), (minus, np.eye(d) - minus))


class TestOneSpectrum:
    """The embedding reads all four smallest eigenvalues from one spectrum, and keeps at most one sign."""

    @staticmethod
    def directions(rng):
        angles = rng.uniform(0.0, 2.0 * math.pi, size=6)
        return [np.array([1.0, 0.0]), np.array([-1.0, 0.0])] + [np.array([math.cos(t), math.sin(t)]) for t in angles]

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_at_most_one_sign_is_positive(self, dim, rng):
        positive = 0
        for _ in range(6):
            for rho1, rho2 in (
                (random_density(rng, dim), random_density(rng, dim)),
                _pure_noise_pair(rng, dim),
                _pure_noise_pair(rng, dim)[::-1],
            ):
                for u in self.directions(rng):
                    a, pairs = _candidate_pairs(rho1, rho2, u)
                    lo, hi = np.linalg.eigvalsh(a)[[0, -1]]
                    minima = ((1 + lo) / dim, 1 - (1 + hi) / dim, (1 - hi) / dim, 1 - (1 - lo) / dim)
                    effects = [e for pair in pairs for e in pair]
                    for m, e in zip(minima, effects, strict=True):
                        assert m == pytest.approx(np.linalg.eigvalsh(e)[0], abs=1e-12)
                    ok = [min(np.linalg.eigvalsh(e)[0] for e in pair) >= -DEFAULT_POLICY.psd_tol for pair in pairs]
                    assert sum(ok) <= 1
                    for is_ok, (first, _) in zip(ok, pairs):
                        if is_ok:
                            positive += 1
                            # a rank-one projector: the subspace test of a pure state
                            assert np.max(np.abs(first @ first - first)) < 1e-9
                            assert np.trace(first).real == pytest.approx(1.0, abs=1e-9)
        assert positive >= 24  # each pure-noise pair reaches the positive branch along +G_1 and -G_1

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_reported_minimum_is_that_of_the_kept_pair(self, dim, rng):
        for _ in range(5):
            for rho1, rho2 in (
                (random_density(rng, dim), random_density(rng, dim)),
                _pure_noise_pair(rng, dim),
                _pure_noise_pair(rng, dim)[::-1],
            ):
                out = embed_and_check(UNIFORM, rho1, rho2)
                kept = out.candidate_effects if out.report is None else out.report.povm.matrices()
                assert out.min_eigenvalue == pytest.approx(min(np.linalg.eigvalsh(e)[0] for e in kept), abs=1e-12)
                if out.report is not None:
                    assert np.trace(kept[0]).real == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("dim", [3, 6])
    def test_one_stack_and_one_eigvalsh_per_call(self, dim, rng, monkeypatch):
        # the embedding scores on the stack it solves on; q_functional would build a second one
        stacks, spectra = [], []
        weighted, eigvalsh = highdim._weighted_states, np.linalg.eigvalsh

        def counted_stack(*args):
            stacks.append(args)
            return weighted(*args)

        def counted_eigvalsh(*args, **kwargs):
            spectra.append(args)
            return eigvalsh(*args, **kwargs)

        pairs = [(random_density(rng, dim), random_density(rng, dim)), _pure_noise_pair(rng, dim)]
        monkeypatch.setattr(highdim, "_weighted_states", counted_stack)
        monkeypatch.setattr(bayes, "_weighted_states", counted_stack)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        for rho1, rho2 in pairs:
            stacks.clear()
            spectra.clear()
            embed_and_check(UNIFORM, rho1, rho2)
            assert (len(stacks), len(spectra)) == (1, 1)


def _rank2_support_pair(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2)))
    return tuple(validate_state(q @ random_density(rng, 2).matrix @ q.conj().T) for _ in range(2))


# family -> (pair maker, the route function whose answer solve must give);
# a pure state against white noise commutes, and solve answers it with the
# same eigenspaces of the Bayesian SLD as the commuting route
FAMILIES = {
    "commuting": (random_commuting_pair, solve_commuting),
    "pure_with_noise": (_pure_noise_pair, solve_commuting),
    "rank2_support": (_rank2_support_pair, solve_two_dim_support),
    "generic": (
        lambda rng, dim: (random_density(rng, dim), random_density(rng, dim)),
        lambda prior, rho1, rho2: embed_and_check(prior, rho1, rho2),
    ),
}
EXPECTED_KINDS = {
    "commuting": (ReductionKind.COMMUTING,),
    "pure_with_noise": (ReductionKind.PURE_WITH_NOISE,),
    "rank2_support": (ReductionKind.TWO_DIM_SUBSPACE,),
    "generic": (ReductionKind.EMBEDDED, ReductionKind.UNREDUCED),
}
PRIORS = {
    "uniform": UNIFORM,
    "trunc_reciprocal": Prior.truncated_reciprocal(math.log(2)),
    "table": Prior.from_table(np.linspace(0.0, 1.0, 9), [0.2, 1.5, 0.7, 1.9, 0.4, 1.1, 0.3, 1.6, 0.9]),
}


def assert_same_outcome(got, want):
    assert got.reduced_q == want.reduced_q
    assert type(got.q_star) is float and got.q_star == want.q_star
    if want.report is None:
        assert got.report is None
        pairs = zip(got.candidate_effects, want.candidate_effects, strict=True)
    else:
        assert got.report.score.q_value == want.report.score.q_value
        pairs = zip(got.report.povm.matrices(), want.report.povm.matrices(), strict=True)
    for a, b in pairs:
        assert np.array_equal(a, b)


class TestSolveEntryPoint:
    @pytest.mark.parametrize("prior", PRIORS)
    def test_qubits_take_the_closed_form(self, prior, rng):
        for _ in range(5):
            rho1, rho2 = random_density(rng, 2), random_density(rng, 2)
            out = solve(PRIORS[prior], rho1, rho2)
            direct = optimal_pvm(PRIORS[prior], rho1, rho2)
            assert out.kind is ReductionKind.QUBIT
            assert out.report is not None
            assert out.report.score.q_value == direct.score.q_value
            for a, b in zip(out.report.povm.matrices(), direct.povm.matrices(), strict=True):
                assert np.array_equal(a, b)
            assert out.q_star == pytest.approx(optimal_alpha(direct.geometry).q_max, abs=1e-12)

    @pytest.mark.parametrize("prior", PRIORS)
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_matches_the_route_function(self, dim, family, prior, rng):
        make_pair, route = FAMILIES[family]
        for _ in range(3):
            rho1, rho2 = make_pair(rng, dim)
            out = solve(PRIORS[prior], rho1, rho2)
            assert out.kind in EXPECTED_KINDS[family]
            assert_same_outcome(out, route(PRIORS[prior], rho1, rho2))
            q_star = sld_q(PRIORS[prior], rho1, rho2)
            assert out.q_star == pytest.approx(q_star, abs=1e-12)
            if family != "generic":
                # the SLD eigenspaces: the exact optimum, one outcome per distinct estimate
                assert out.report.score.q_value == pytest.approx(q_star, abs=1e-12)
                assert len(out.report.povm) == len(np.unique(np.round(out.report.estimates, 9)))
            if family == "pure_with_noise":
                # the subspace test {I - P, P}, in ascending-estimate order
                assert [np.linalg.matrix_rank(m) for m in out.report.povm.matrices()] == [dim - 1, 1]

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_pure_with_noise_comes_before_commuting(self, dim, rng):
        rho1, rho2 = _pure_noise_pair(rng, dim)
        assert solve_commuting(UNIFORM, rho1, rho2).kind is ReductionKind.COMMUTING
        assert solve(UNIFORM, rho1, rho2).kind is ReductionKind.PURE_WITH_NOISE

    @pytest.mark.parametrize("prior", PRIORS)
    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_pure_route_function_answers_like_solve(self, dim, prior, rng):
        for _ in range(3):
            psi = haar_vector(rng, dim)
            out = solve_pure_plus_noise(PRIORS[prior], psi, dim)
            rho1, rho2 = embed_states(psi), validate_state(np.eye(dim) / dim)
            want = solve(PRIORS[prior], rho1, rho2)
            ranks = [np.linalg.matrix_rank(m) for m in out.report.povm.matrices()]
            assert out.kind is want.kind is ReductionKind.PURE_WITH_NOISE
            assert ranks == [np.linalg.matrix_rank(m) for m in want.report.povm.matrices()] == [dim - 1, 1]
            assert out.q_star == pytest.approx(sld_q(PRIORS[prior], rho1, rho2), abs=1e-12)
            assert out.q_star == pytest.approx(want.q_star, abs=1e-12)
            assert out.report.score.q_value == pytest.approx(out.q_star, abs=1e-12)

    @pytest.mark.parametrize(
        ("family", "guard", "kind"),
        [
            ("commuting", "commutator_norm", ReductionKind.COMMUTING),
            ("rank2_support", "support_rank", ReductionKind.TWO_DIM_SUBSPACE),
        ],
    )
    @pytest.mark.parametrize("dim", [3, 6])
    def test_measures_the_route_guard_once(self, dim, family, guard, kind, rng, monkeypatch):
        rho1, rho2 = FAMILIES[family][0](rng, dim)
        measure = getattr(highdim, guard)
        calls = []

        def counted(*args):
            calls.append(args)
            return measure(*args)

        monkeypatch.setattr(highdim, guard, counted)
        assert solve(UNIFORM, rho1, rho2).kind is kind
        assert len(calls) == 1

    def test_rejects_one_dimensional_states(self):
        rho = validate_state(np.eye(1))
        with pytest.raises(WrongDimension, match="1x1"):
            solve(UNIFORM, rho, rho)

    def test_rejects_mismatched_dimensions(self, rng):
        with pytest.raises(DimensionMismatch):
            solve(UNIFORM, random_density(rng, 2), random_density(rng, 3))


class TestTiltedNoise:
    @pytest.mark.parametrize("prior", PRIORS)
    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_solve_returns_the_embedding_answer(self, dim, prior, rng):
        # the pair neither commutes nor shares a small support, so solve sends
        # it to the embedding, which answers most such pairs with a positive
        # pair; solve adds nothing to that answer, q_star included.  The
        # generic family of TestSolveEntryPoint covers the unreduced answers
        kinds = []
        for eps in (1e-7, 1e-6, 1e-5):
            rho1, rho2 = validate_states(tilted_noise_pair(rng, dim, eps))
            out = solve(PRIORS[prior], rho1, rho2)
            assert_same_outcome(out, embed_and_check(PRIORS[prior], rho1, rho2))
            kinds.append(out.kind)
        assert ReductionKind.EMBEDDED in kinds
        assert set(kinds) <= {ReductionKind.EMBEDDED, ReductionKind.UNREDUCED}


def near_commuting_pair(dim, eps, weight):
    """A pure state mixed into white noise at ``weight``, against noise tilted by ``eps``.

    The tilt is eps h, h = |psi><chi| + h.c. made traceless, so the
    commutator is of order weight * eps and can pass the commuting check
    while a joint diagonalisation still sees off-diagonal entries.
    """
    rng = np.random.default_rng(dim)
    psi, chi = haar_vector(rng, dim), haar_vector(rng, dim)
    h = np.outer(psi, chi.conj())
    h = h + h.conj().T
    h -= np.trace(h).real / dim * np.eye(dim)
    noise = np.eye(dim) / dim
    rho1 = weight * np.outer(psi, psi.conj()) + (1.0 - weight) * noise
    return validate_state(rho1), validate_state(noise + eps * h)


class TestNearCommuting:
    @pytest.mark.parametrize("weight", [0.003, 0.01, 0.03])
    @pytest.mark.parametrize("eps", [2e-8, 5e-8, 1e-7])
    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_solves_to_the_sld_bound(self, dim, eps, weight):
        rho1, rho2 = near_commuting_pair(dim, eps, weight)
        for prior in PRIORS.values():
            out = solve(prior, rho1, rho2)
            assert out.kind in (ReductionKind.COMMUTING, ReductionKind.EMBEDDED)
            assert out.report.score.q_value == pytest.approx(sld_q(prior, rho1, rho2), abs=1e-12)


class TestNearPureAgainstNoise:
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="unreduced until ROADMAP item 2",
    )
    def test_pure_state_against_nearly_white_noise_solves(self):
        rng = np.random.default_rng(3)
        psi = haar_vector(rng, 3)
        h = random_density(rng, 3)
        rho1 = embed_states(psi)
        rho2 = validate_state((1.0 - 1e-8) * np.eye(3) / 3 + 1e-8 * h.matrix)
        q_star = sld_q(UNIFORM, rho1, rho2)
        assert q_star == pytest.approx(0.2638888887575, abs=1e-12)
        out = solve(UNIFORM, rho1, rho2)
        assert out.report is not None, out.certificate
        assert out.report.score.q_value == pytest.approx(q_star, abs=1e-12)

    @pytest.mark.parametrize("prior", PRIORS)
    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_noise_just_off_white_is_never_refused(self, dim, prior, rng):
        # the embedding keeps no rebuild check, so no valid pair is refused
        for eps in np.logspace(-10, -6, 9):
            for _ in range(2):
                rho1 = embed_states(haar_vector(rng, dim))
                h = random_density(rng, dim)
                rho2 = validate_state((1.0 - eps) * np.eye(dim) / dim + eps * h.matrix)
                out = solve(PRIORS[prior], rho1, rho2)
                if out.report is not None:
                    assert out.report.score.q_value <= out.q_star + 1e-9


class TestPointMassPrior:
    # a point-mass prior leaves nothing to estimate: every route refuses it,
    # and so does solve on a problem that it sends to that route
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_route_and_solve_reject_it(self, family):
        make_pair, route = FAMILIES[family]
        rho1, rho2 = make_pair(np.random.default_rng(3), 3)
        assert solve(UNIFORM, rho1, rho2).kind in EXPECTED_KINDS[family]
        for f in (route, solve):
            with pytest.raises(DegenerateProblem, match="prior has zero variance"):
                f(Prior.point_mass(0.5), rho1, rho2)


class TestIdenticalStates:
    # rho1 = rho2 leaves nothing to estimate: every solver refuses the pair
    # in every dimension, before any route condition is tested, and so
    # does a pair closer than degenerate_tol entrywise
    @pytest.mark.parametrize("gap", [0.0, 1e-13])
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_every_solver_refuses_them(self, dim, gap, rng):
        rho1 = random_density(rng, dim)
        shift = np.zeros((dim, dim))
        shift[0, 0], shift[1, 1] = gap, -gap
        rho2 = validate_state(rho1.matrix + shift)
        assert float(np.max(np.abs(rho1.matrix - rho2.matrix))) == pytest.approx(gap, rel=1e-2)
        solvers = [solve, solve_commuting, solve_two_dim_support, embed_and_check]
        if dim == 2:
            solvers.append(optimal_pvm)
        for f in solvers:
            with pytest.raises(DegenerateProblem, match="rho1 = rho2"):
                f(UNIFORM, rho1, rho2)
        with pytest.raises(DegenerateProblem, match="rho1 = rho2"):
            aligned_basis(rho1, rho2)


def _near_degenerate_commuting_pair(rng, dim):
    """Two distinct states diagonal in one Haar basis, every eigenvalue near 1/d +- 1e-10."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    eps1 = rng.permutation(1e-10 * (-1.0) ** np.arange(dim))
    eps2 = rng.permutation(eps1)
    if np.array_equal(eps1, eps2):
        eps2 = -eps1
    return tuple(validate_state(q @ np.diag(1.0 / dim + e - e.mean()) @ q.conj().T) for e in (eps1, eps2))


MEASURED_FAMILIES = {**{k: make for k, (make, _) in FAMILIES.items()}, "near_degenerate": _near_degenerate_commuting_pair}
MEASURED_PRIORS = (
    UNIFORM,
    Prior.truncated_reciprocal(0.7),
    Prior.truncated_reciprocal(800.0),
    PRIORS["table"],
)


class TestBuiltMeasurementsAreValid:
    """The library builds its measurements unchecked; here they pass validate_povm."""

    @pytest.mark.parametrize("family", sorted(MEASURED_FAMILIES))
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_sld_projectors_and_solve_answers(self, dim, family, rng):
        for _ in range(30):
            rho1, rho2 = MEASURED_FAMILIES[family](rng, dim)
            for prior in MEASURED_PRIORS:
                povm = _sld_povm(_sld(prior, _weighted_states(prior, rho1, rho2)))
                validate_povm(povm.matrices())
                report = solve(prior, rho1, rho2).report
                if report is not None:
                    validate_povm(report.povm.matrices())

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_embedded_pairs(self, dim, rng):
        for _ in range(10):
            pure, noise = _pure_noise_pair(rng, dim)
            for prior in MEASURED_PRIORS:
                for rho1, rho2 in ((pure, noise), (noise, pure)):
                    out = embed_and_check(prior, rho1, rho2)
                    assert out.kind is ReductionKind.EMBEDDED
                    validate_povm(out.report.povm.matrices())

    def test_subspace_test_of_the_entanglement_demo(self, rng):
        for _ in range(20):
            psi = haar_vector(rng, 4)
            for prior in MEASURED_PRIORS:
                validate_povm(entanglement_demo(psi, prior, n_trials=1).outcome.report.povm.matrices())


class TestInputIsCheckedOnce:
    """Matrices are checked where they enter, never again inside a solve."""

    @pytest.fixture
    def stack_checks(self, monkeypatch):
        calls = []
        check = states._check_stack

        def counted(stack, effect):
            calls.append(len(stack))
            return check(stack, effect)

        monkeypatch.setattr(states, "_check_stack", counted)
        return calls

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_solvers_build_unchecked(self, dim, stack_checks):
        rng = np.random.default_rng(dim)
        pairs = [make(rng, dim) for make in MEASURED_FAMILIES.values() for _ in range(3)]
        psi = haar_vector(rng, dim)
        pure, noise = _pure_noise_pair(rng, dim)
        stack_checks.clear()  # the states above were validated where they entered
        for prior in MEASURED_PRIORS:
            for rho1, rho2 in pairs:
                solve(prior, rho1, rho2)
                if dim == 2:
                    optimal_pvm(prior, rho1, rho2)
            solve_pure_plus_noise(prior, psi)
            if dim > 2:
                assert embed_and_check(prior, pure, noise).kind is ReductionKind.EMBEDDED
        entanglement_demo(haar_vector(rng, 4), n_trials=5)
        assert stack_checks == []

    def test_a_list_is_still_checked(self, stack_checks):
        rho = validate_state(np.eye(2) / 2)
        stack_checks.clear()
        q_functional([np.eye(2)], UNIFORM, rho, rho)
        assert stack_checks == [1]
