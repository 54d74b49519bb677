import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mixest.bayes import EstimationReport, Prior, effective_states, q_functional
from mixest.errors import DegenerateProblem, InvalidPovm, SingularDenominator
from mixest.qubit import PlanarGeometry, optimal_alpha, optimal_pvm, planar_geometry
from mixest.randutil import random_density, random_povm, random_pure
from mixest.states import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Effect,
    Povm,
    _checked,
    _compose_stack,
    bloch_compose,
    validate_povm,
    validate_state,
)
from planar_oracle import (
    AlreadyPure,
    PlanarPovm,
    planar_q,
    planar_to_povm,
    projected_to_povm,
    reduce_to_plane,
    sld_q,
    split_effect,
)

UNIFORM = Prior.uniform()
Z0 = validate_state(np.diag([1.0, 0.0]))
Z1 = validate_state(np.diag([0.0, 1.0]))


def synthetic_geometry(delta_r, r_b, gamma, scale=0.25):
    return PlanarGeometry(delta_r, r_b, gamma, np.array([1.0, 0.0]), np.array([0.0, 1.0]), scale)


def oracle_best_angle(geom, points=200001):
    """Independent dense-grid maximizer of the planar score."""
    alphas = np.linspace(-math.pi / 2, math.pi / 2, points)
    den = 1.0 - (geom.r_b_norm * np.cos(alphas + geom.gamma)) ** 2
    vals = np.cos(alphas) ** 2 / den
    best = int(np.argmax(vals))
    # golden-section polish on the bracketing interval
    lo, hi = alphas[max(best - 1, 0)], alphas[min(best + 1, points - 1)]
    phi = (math.sqrt(5) - 1) / 2

    def f(a):
        return math.cos(a) ** 2 / (1.0 - (geom.r_b_norm * math.cos(a + geom.gamma)) ** 2)

    a, b = lo, hi
    c, d = b - phi * (b - a), a + phi * (b - a)
    for _ in range(120):
        if f(c) > f(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    return (a + b) / 2


def angle_distance(a, b):
    d = abs(a - b) % math.pi
    return min(d, math.pi - d)


def pvm_q(alphas, geom):
    """planar_q of the two-outcome PVMs {(1/2, a), (1/2, a + pi)}."""
    alphas = np.asarray(alphas, dtype=float)
    return planar_q(0.5, np.stack([alphas, alphas + math.pi], axis=-1), geom)


def random_planar_batch(rng, count):
    """Random pure 3-outcome planar POVMs as (weights, angles), shape (count, 3).

    Unit vectors at angles a_1, a_2, a_3 balance with weights proportional
    to sin(a_3 - a_2), sin(a_1 - a_3), sin(a_2 - a_1); a draw is kept when
    the normalised weights are all positive.
    """
    weights, angles = [], []
    while sum(len(w) for w in weights) < count:
        a = rng.uniform(-math.pi, math.pi, size=(2 * count, 3))
        w = np.sin(np.roll(a, -2, axis=1) - np.roll(a, -1, axis=1))
        w /= w.sum(axis=1, keepdims=True)
        ok = np.all(w > 1e-9, axis=1)
        weights.append(w[ok])
        angles.append(a[ok])
    return np.concatenate(weights)[:count], np.concatenate(angles)[:count]


class TestGeometry:
    def test_orthogonal_pure_uniform(self):
        rho_a, rho_b = effective_states(UNIFORM, Z0, Z1)
        geom = planar_geometry(rho_a, rho_b)
        assert geom.delta_r == pytest.approx(1 / 3, abs=1e-12)
        assert geom.r_b_norm == pytest.approx(0.0, abs=1e-12)

    def test_pure_pairs_give_right_angle(self, rng):
        for _ in range(20):
            rho1 = random_pure(rng, 2)
            rho2 = random_pure(rng, 2)
            rho_a, rho_b = effective_states(UNIFORM, rho1, rho2)
            geom = planar_geometry(rho_a, rho_b)
            if geom.delta_r < 1e-6:
                continue
            assert abs(abs(geom.gamma) - math.pi / 2) < 1e-9

    def test_uniform_delta_r_bounded(self, rng):
        for _ in range(50):
            rho_a, rho_b = effective_states(UNIFORM, random_density(rng, 2), random_density(rng, 2))
            geom = planar_geometry(rho_a, rho_b)
            assert geom.delta_r <= 1 / 3 + 1e-10

    def test_frame_is_orthonormal(self, rng):
        for _ in range(20):
            rho_a, rho_b = effective_states(UNIFORM, random_density(rng, 2), random_density(rng, 2))
            geom = planar_geometry(rho_a, rho_b)
            assert np.linalg.norm(geom.e_delta) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(geom.e_perp) == pytest.approx(1.0, abs=1e-12)
            assert abs(geom.e_delta @ geom.e_perp) < 1e-12


class TestQOfAngle:
    """planar_q of the two-outcome PVM at one angle."""

    def test_no_information(self):
        geom = synthetic_geometry(0.0, 0.5, 1.0)
        for alpha in np.linspace(-1.5, 1.5, 7):
            assert pvm_q(alpha, geom) == pytest.approx(0.25, abs=1e-15)

    def test_orthogonal_pure_value(self):
        geom = synthetic_geometry(1 / 3, 0.0, math.pi / 2)
        assert pvm_q(0.0, geom) == pytest.approx(5 / 18, abs=1e-15)

    def test_pure_pair_maximum(self, rng):
        for _ in range(10):
            rho1 = random_pure(rng, 2)
            rho2 = random_pure(rng, 2)
            rho_a, rho_b = effective_states(UNIFORM, rho1, rho2)
            geom = planar_geometry(rho_a, rho_b)
            if geom.delta_r < 1e-6:
                continue
            best = pvm_q(np.linspace(-math.pi / 2, math.pi / 2, 20001), geom).max()
            assert best == pytest.approx(0.25 * (1 + geom.delta_r**2), abs=1e-9)

    def test_matches_q_functional_for_pvm(self, rng):
        for _ in range(25):
            rho1 = random_density(rng, 2)
            rho2 = random_density(rng, 2)
            rho_a, rho_b = effective_states(UNIFORM, rho1, rho2)
            geom = planar_geometry(rho_a, rho_b)
            alpha = float(rng.uniform(-math.pi / 2, math.pi / 2))
            direction = geom.direction(alpha)
            povm = validate_povm(
                [bloch_compose(direction, 0.5).matrix, bloch_compose(-direction, 0.5).matrix]
            )
            assert pvm_q(alpha, geom) == pytest.approx(
                q_functional(povm, UNIFORM, rho1, rho2).q_value, abs=1e-12
            )

    def test_singular_denominator(self):
        geom = synthetic_geometry(0.1, 1.0, 0.0)
        with pytest.raises(SingularDenominator):
            optimal_alpha(geom)


class TestOptimalAlpha:
    @pytest.mark.parametrize("gamma", [math.pi / 2, -math.pi / 2])
    def test_zero_at_right_angles(self, gamma):
        sol = optimal_alpha(synthetic_geometry(0.2, 0.8, gamma))
        assert abs(sol.alpha) < 1e-9

    def test_zero_when_rb_vanishes(self):
        for gamma in np.linspace(-3.0, 3.0, 13):
            sol = optimal_alpha(synthetic_geometry(0.3, 0.0, float(gamma)))
            assert abs(sol.alpha) < 1e-9

    def test_tilt_direction_and_oracle(self):
        geom = synthetic_geometry(0.1, 0.8, -math.pi / 4)
        sol = optimal_alpha(geom)
        assert sol.alpha > 0.1
        assert angle_distance(sol.alpha, oracle_best_angle(geom)) < 1e-6

    def test_degenerate_flag(self):
        sol = optimal_alpha(synthetic_geometry(0.0, 0.5, 0.3))
        assert sol.degenerate and sol.alpha == 0.0

    @pytest.mark.parametrize("r_b", [0.0, 0.2, 0.5, 0.8, 0.95])
    def test_sweep_matches_independent_oracle(self, r_b):
        for gamma in np.linspace(-math.pi + 1e-9, math.pi, 61):
            geom = synthetic_geometry(0.25, r_b, float(gamma))
            sol = optimal_alpha(geom)
            assert angle_distance(sol.alpha, oracle_best_angle(geom, 20001)) < 1e-6

    def test_antisymmetry(self):
        for r_b in (0.2, 0.5, 0.8, 0.95):
            for gamma in np.linspace(0.05, 3.1, 25):
                plus = optimal_alpha(synthetic_geometry(0.2, r_b, float(gamma)))
                minus = optimal_alpha(synthetic_geometry(0.2, r_b, float(-gamma)))
                assert plus.alpha == pytest.approx(-minus.alpha, abs=1e-9)

    @pytest.mark.parametrize("r_b", [0.0, 0.3, 0.8, 0.95, 0.999])
    def test_closed_form_maximum(self, r_b):
        gammas = np.concatenate([np.linspace(-math.pi, math.pi, 73), [math.pi / 2, -math.pi / 2]])
        assert {0.0, math.pi, -math.pi} <= set(gammas.tolist())
        for gamma in gammas:
            geom = synthetic_geometry(0.2, r_b, float(gamma))
            sol = optimal_alpha(geom)
            dot = r_b * 0.2 * math.cos(gamma)
            expected = 0.25 * (1.0 + 0.2**2 + dot * dot / (1.0 - r_b * r_b))
            assert sol.q_max == pytest.approx(expected, abs=1e-12)
            # the returned angle attains the maximum
            assert pvm_q(sol.alpha, geom) == pytest.approx(sol.q_max, abs=1e-12)
            assert -math.pi / 2 < sol.alpha < math.pi / 2

    def test_angle_bound_argument(self, rng):
        # no sampled direction may beat the claimed maximizer
        for _ in range(20):
            geom = synthetic_geometry(
                float(rng.uniform(0.05, 0.33)),
                float(rng.uniform(0.0, 0.97)),
                float(rng.uniform(-math.pi, math.pi)),
            )
            sol = optimal_alpha(geom)

            def f(a):
                return math.cos(a) ** 2 / (1.0 - (geom.r_b_norm * math.cos(a + geom.gamma)) ** 2)

            bound = f(sol.alpha)
            samples = rng.uniform(0.0, 2 * math.pi, 1000)
            assert all(f(float(a)) <= bound + 1e-12 for a in samples)


class TestOptimalPvm:
    def test_orthogonal_pure_states(self):
        report = optimal_pvm(UNIFORM, Z0, Z1)
        assert report.score.mean_variance == pytest.approx(1 / 18, abs=1e-12)
        assert sorted(report.estimates) == pytest.approx([1 / 3, 2 / 3], abs=1e-12)
        for effect in report.povm:
            comm = effect.matrix @ PAULI_Z - PAULI_Z @ effect.matrix
            assert np.max(np.abs(comm)) < 1e-9

    def test_pure_against_maximally_mixed(self):
        report = optimal_pvm(UNIFORM, Z0, validate_state(np.eye(2) / 2))
        mats = sorted(report.povm.matrices(), key=lambda m: m[0, 0].real)
        assert mats[1] == pytest.approx(Z0.matrix, abs=1e-9)
        assert mats[0] == pytest.approx(Z1.matrix, abs=1e-9)

    def test_equal_purity_commutes_with_difference(self, rng):
        for _ in range(10):
            v1 = rng.normal(size=3)
            v1 *= 0.7 / np.linalg.norm(v1)
            v2 = rng.normal(size=3)
            v2 *= 0.7 / np.linalg.norm(v2)
            rho1 = validate_state(bloch_compose(v1, 0.5).matrix)
            rho2 = validate_state(bloch_compose(v2, 0.5).matrix)
            report = optimal_pvm(UNIFORM, rho1, rho2)
            diff = rho1.matrix - rho2.matrix
            for effect in report.povm:
                comm = effect.matrix @ diff - diff @ effect.matrix
                assert np.max(np.abs(comm)) < 1e-9

    def test_identical_states_degenerate(self):
        with pytest.raises(DegenerateProblem):
            optimal_pvm(UNIFORM, Z0, Z0)

    def test_point_mass_prior_rejected(self):
        with pytest.raises(DegenerateProblem):
            optimal_pvm(Prior.point_mass(0.5), Z0, Z1)

    def test_score_matches_angle_formula(self, rng):
        for _ in range(20):
            rho1 = random_density(rng, 2)
            rho2 = random_density(rng, 2)
            report = optimal_pvm(UNIFORM, rho1, rho2)
            assert report.score.q_value == pytest.approx(
                pvm_q(report.alpha0, report.geometry), abs=1e-12
            )


class TestReduceToPlane:
    def test_planar_pvm_unchanged(self):
        rho_a, rho_b = effective_states(UNIFORM, Z0, validate_state(np.eye(2) / 2))
        direction = np.array([0.0, 0.0, 1.0])
        povm = validate_povm(
            [bloch_compose(direction, 0.5).matrix, bloch_compose(-direction, 0.5).matrix]
        )
        red = reduce_to_plane(povm, rho_a, rho_b)
        weights = sorted(w for w, _ in red.planar.outcomes)
        assert weights == pytest.approx([0.5, 0.5])
        angles = sorted(a % (2 * math.pi) for _, a in red.planar.outcomes)
        assert angles[1] - angles[0] == pytest.approx(math.pi, abs=1e-9)

    def test_sigma_y_pvm_projects_to_origin(self):
        rho1 = validate_state(0.5 * (np.eye(2) + 0.6 * PAULI_Z))
        rho2 = validate_state(0.5 * (np.eye(2) + 0.6 * PAULI_X))
        rho_a, rho_b = effective_states(UNIFORM, rho1, rho2)
        povm = validate_povm(
            [0.5 * (np.eye(2) + PAULI_Y), 0.5 * (np.eye(2) - PAULI_Y)]
        )
        assert q_functional(povm, UNIFORM, rho1, rho2).q_value == pytest.approx(0.25, abs=1e-12)
        red = reduce_to_plane(povm, rho_a, rho_b)
        for weight, q2 in red.projected:
            assert weight == pytest.approx(0.5)
            assert np.linalg.norm(q2) < 1e-12
        assert sorted(w for w, _ in red.planar.outcomes) == pytest.approx([0.25] * 4)
        angles = {round(a % math.pi, 9) for _, a in red.planar.outcomes}
        assert angles == {0.0}  # split along the difference axis

    def test_projection_preserves_score(self, rng):
        for _ in range(100):
            rho1 = random_density(rng, 2)
            rho2 = random_density(rng, 2)
            rho_a, rho_b = effective_states(UNIFORM, rho1, rho2)
            povm = random_povm(rng, 2, 3)
            base = q_functional(povm, UNIFORM, rho1, rho2).q_value
            red = reduce_to_plane(povm, rho_a, rho_b)
            projected = projected_to_povm(red.projected, red.geometry)
            assert q_functional(projected, UNIFORM, rho1, rho2).q_value == pytest.approx(
                base, abs=1e-12
            )
            split = planar_to_povm(red.planar, red.geometry)
            assert q_functional(split, UNIFORM, rho1, rho2).q_value >= base - 1e-12

    def test_planar_completeness_enforced(self):
        with pytest.raises(InvalidPovm):
            PlanarPovm(((0.7, 0.0), (0.3, math.pi / 2)))


def checked_effect(m):
    """One matrix validated as a POVM effect, as ``validate_povm`` checks each of its effects."""
    return Effect(_checked([m], effect=True)[0])


class TestSplitEffect:
    def test_degenerate_splits_along_z(self):
        a, b = split_effect(checked_effect(0.5 * np.eye(2)))
        assert a.matrix == pytest.approx(0.25 * (np.eye(2) + PAULI_Z))
        assert b.matrix == pytest.approx(0.25 * (np.eye(2) - PAULI_Z))

    def test_diagonal_effect(self):
        effect = checked_effect(np.diag([0.6, 0.2]))
        a, b = split_effect(effect)
        mats = sorted([a.matrix, b.matrix], key=lambda m: -m[0, 0].real)
        assert mats[0] == pytest.approx(np.diag([0.6, 0.0]), abs=1e-12)
        assert mats[1] == pytest.approx(np.diag([0.0, 0.2]), abs=1e-12)

    def test_rejects_pure_effect(self):
        with pytest.raises(AlreadyPure):
            split_effect(checked_effect(np.diag([0.8, 0.0])))

    def test_split_never_lowers_score(self, rng):
        for _ in range(100):
            rho1 = random_density(rng, 2)
            rho2 = random_density(rng, 2)
            povm = random_povm(rng, 2, 3)
            base = q_functional(povm, UNIFORM, rho1, rho2).q_value
            target = povm.effects[-1]
            a, b = split_effect(target)
            assert a.matrix + b.matrix == pytest.approx(target.matrix, abs=1e-12)
            replaced = povm.matrices()[:-1] + [a.matrix, b.matrix]
            after = q_functional(replaced, UNIFORM, rho1, rho2).q_value
            assert after >= base - 1e-12


class TestBruteForce:
    def test_two_outcomes_recover_optimum(self, rng):
        alphas = np.linspace(-math.pi / 2, math.pi / 2, 200001)
        for _ in range(5):
            rho1 = random_density(rng, 2)
            rho2 = random_density(rng, 2)
            report = optimal_pvm(UNIFORM, rho1, rho2)
            scores = pvm_q(alphas, report.geometry)
            best = int(np.argmax(scores))
            assert angle_distance(alphas[best], report.alpha0) < 1e-4
            assert scores[best] <= report.score.q_value + 1e-9

    def test_three_outcomes_never_beat_pvm(self, rng):
        pairs = [(random_density(rng, 2), random_density(rng, 2)) for _ in range(5)]
        for rho1, rho2 in pairs:
            report = optimal_pvm(UNIFORM, rho1, rho2)
            assert report.score.q_value == pytest.approx(sld_q(UNIFORM, rho1, rho2), abs=1e-12)
            weights, angles = random_planar_batch(rng, 30000)
            assert planar_q(weights, angles, report.geometry).max() <= report.score.q_value + 1e-9

    def test_identical_states_score_quarter(self, rng):
        rho_a, rho_b = effective_states(UNIFORM, Z0, Z0)
        geom = planar_geometry(rho_a, rho_b)
        weights, angles = random_planar_batch(rng, 1000)
        assert np.max(np.abs(planar_q(weights, angles, geom) - 0.25)) < 1e-12

    def test_random_planar_batch_is_feasible(self, rng):
        weights, angles = random_planar_batch(rng, 200)
        assert weights.shape == angles.shape == (200, 3)
        assert np.all(weights > 0)
        assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-9)
        cx = (weights * np.cos(angles)).sum(axis=1)
        cy = (weights * np.sin(angles)).sum(axis=1)
        assert np.max(np.hypot(cx, cy)) < 1e-9

    def test_reconstructed_planar_scores_match(self, rng):
        rho1 = random_density(rng, 2)
        rho2 = random_density(rng, 2)
        rho_a, rho_b = effective_states(UNIFORM, rho1, rho2)
        geom = planar_geometry(rho_a, rho_b)
        weights, angles = random_planar_batch(rng, 20)
        batch = planar_q(weights, angles, geom)
        for w, a, q in zip(weights, angles, batch):
            planar = PlanarPovm(tuple((float(wi), float(ai)) for wi, ai in zip(w, a)))
            povm = planar_to_povm(planar, geom)
            assert planar_q(planar.weights, planar.angles, geom) == pytest.approx(q, abs=1e-15)
            assert q == pytest.approx(q_functional(povm, UNIFORM, rho1, rho2).q_value, abs=1e-12)


BLOCH_BALL = st.tuples(
    st.floats(-1, 1, allow_nan=False),
    st.floats(-1, 1, allow_nan=False),
    st.floats(-1, 1, allow_nan=False),
).filter(lambda v: np.linalg.norm(v) <= 1.0)

PRIORS = [UNIFORM, Prior.truncated_reciprocal(0.05), Prior.truncated_reciprocal(5.0)]


def bloch_rotation_y(theta):
    """Unitary turning Bloch vectors by theta about the y axis."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]])


class TestSldBound:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(BLOCH_BALL, BLOCH_BALL, st.sampled_from(PRIORS))
    def test_optimal_pvm_attains_sld_bound(self, v1, v2, prior):
        assume(np.linalg.norm(np.subtract(v1, v2)) > 1e-6)
        rho1 = validate_state(bloch_compose(np.asarray(v1), 0.5).matrix)
        rho2 = validate_state(bloch_compose(np.asarray(v2), 0.5).matrix)
        report = optimal_pvm(prior, rho1, rho2)
        q = report.score.q_value
        assert q == pytest.approx(sld_q(prior, rho1, rho2), abs=1e-12)
        assert q + report.score.mean_variance == pytest.approx(prior.second_moment, abs=1e-12)

    def test_near_pure_pair_solves(self):
        rho1 = validate_state(np.diag([1.0 + 4e-11, -4e-11]))
        u = bloch_rotation_y(1e-6)
        rho2 = validate_state(u @ rho1.matrix @ u.T)
        q_star = sld_q(UNIFORM, rho1, rho2)
        assert q_star == pytest.approx(0.25 + 1e-11, abs=1e-13)
        assert optimal_pvm(UNIFORM, rho1, rho2).score.q_value == pytest.approx(q_star, abs=1e-12)


def public_chain(prior, rho1, rho2):
    """``optimal_pvm`` rebuilt from the public pieces, one call each."""
    rho_a, rho_b = effective_states(prior, rho1, rho2)
    geom = planar_geometry(rho_a, rho_b, scale=prior.mean**2)
    sol = optimal_alpha(geom)
    direction = geom.direction(sol.alpha)
    povm = Povm((bloch_compose(direction, 0.5), bloch_compose(-direction, 0.5)))
    score = q_functional(povm, prior, rho1, rho2)
    return EstimationReport(povm=povm, score=score, alpha0=sol.alpha, geometry=geom)


def report_bits(report):
    """Every field of a report as bytes or float hex, signs of zeros included."""
    g, s = report.geometry, report.score
    floats = (s.q_value, s.mean_variance, report.alpha0, g.delta_r, g.r_b_norm, g.gamma, g.scale)
    moments = [(o.prob, o.estimate, o.second, o.variance, o.never_occurs) for o in s.per_outcome]
    return ([e.matrix.tobytes() for e in report.povm], [float(x).hex() for x in floats],
            [tuple(float(x).hex() for x in m[:4]) + m[4:] for m in moments],
            g.e_delta.tobytes(), g.e_perp.tobytes(), report.estimates)


def old_bloch_compose(vec, weight):
    """The per-vector product that ``bloch_compose`` computed before the stacked builder."""
    vec = np.asarray(vec, dtype=float)
    return weight * (np.eye(2, dtype=complex) + vec[0] * PAULI_X + vec[1] * PAULI_Y + vec[2] * PAULI_Z)


AXES = [np.array(v) for v in itertools.product((-1.0, 0.0, 1.0), repeat=3) if sum(map(abs, v)) == 1]
# the axes include (-1, 0, 0); it and (-0.6, 0, -0.8) put signed zeros into the effects
EDGE_VECTORS = AXES + [0.5 * a for a in AXES] + [np.zeros(3), np.array([-0.6, 0.0, -0.8])]
CHAIN_PRIORS = PRIORS + [Prior.from_table([0.0, 0.3, 1.0], [0.5, 1.5, 0.2])]


def _chain_pairs(rng):
    """Random mixed and pure pairs, then every ordered pair of distinct edge Bloch vectors."""
    for _ in range(40):
        yield random_density(rng, 2), random_density(rng, 2)
        yield random_pure(rng, 2), random_density(rng, 2)
    edge = [validate_state(old_bloch_compose(v, 0.5)) for v in EDGE_VECTORS]
    for (i, rho1), (j, rho2) in itertools.product(enumerate(edge), repeat=2):
        if i != j:
            yield rho1, rho2


class TestOnePassMatchesPublicChain:
    @pytest.mark.parametrize("prior", CHAIN_PRIORS)
    def test_report_bit_for_bit(self, prior, rng):
        n = 0
        for rho1, rho2 in _chain_pairs(rng):
            assert report_bits(optimal_pvm(prior, rho1, rho2)) == report_bits(public_chain(prior, rho1, rho2))
            n += 1
        assert n == 80 + 14 * 13

    def test_stacked_effects_match_bloch_compose(self, rng):
        units = rng.normal(size=(500, 3))
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        signed = [np.array(v) for v in itertools.product((-1.0, -0.6, -0.0, 0.0, 0.6, 0.8, 1.0), repeat=3)]
        vectors = list(units) + [v for v in signed + EDGE_VECTORS if np.linalg.norm(v) <= 1.0]
        for weight in (0.5, 0.25, 0.0):
            stack = _compose_stack(np.array(vectors), weight)
            for v, m in zip(vectors, stack):
                single = bloch_compose(v, weight).matrix
                assert m.tobytes() == single.tobytes()
                assert single.tobytes() == old_bloch_compose(v, weight).tobytes()

    def test_signed_zero_cases(self):
        # writing the four entries directly gives -0.5-0j and -0.3-0j here
        for v in ([-1.0, 0.0, 0.0], [-0.6, 0.0, -0.8]):
            pair = _compose_stack(np.array([v, np.negative(v)]), 0.5)
            assert pair[0].tobytes() == old_bloch_compose(v, 0.5).tobytes()
            assert pair[1].tobytes() == old_bloch_compose(np.negative(v), 0.5).tobytes()
            assert pair[0][0, 1] == v[0] / 2 and not np.signbit(pair[0][0, 1].imag)


class TestNoRevalidationInside:
    def test_optimal_pvm_runs_without_an_eigendecomposition(self, rng, monkeypatch):
        pairs = [(random_density(rng, 2), random_density(rng, 2)) for _ in range(5)] + [(Z0, Z1)]

        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called: a matrix was validated inside optimal_pvm")

        monkeypatch.setattr("mixest.states.np.linalg.eigvalsh", refuse)
        with pytest.raises(AssertionError):  # the patch does reach the validators
            validate_state(np.eye(2) / 2)
        for prior in CHAIN_PRIORS:
            for rho1, rho2 in pairs:
                report = optimal_pvm(prior, rho1, rho2)
                assert len(report.povm) == 2
