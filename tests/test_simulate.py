import math

import numpy as np
import pytest

from mixest.bayes import Prior, q_functional
from mixest.errors import BadParameter, DegenerateProblem, RateOutOfRange, WrongShape
from mixest.qubit import optimal_pvm
from mixest.randutil import random_povm
from mixest.simulate import (
    WITNESS,
    DecoherenceModel,
    decoherence_state,
    entanglement_demo,
    is_entangled,
    min_ppt_eigenvalue,
    noisy_state,
    partial_transpose,
    ppt_threshold,
    run_simulation,
    solve_decay_estimation,
)
from mixest.states import validate_povm, validate_state

UNIFORM = Prior.uniform()
Z0 = validate_state(np.diag([1.0, 0.0]))
Z1 = validate_state(np.diag([0.0, 1.0]))
SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)


def z_pvm():
    return validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


class TestRunSimulation:
    def test_benchmark_within_four_sigma(self):
        summary = run_simulation(z_pvm(), UNIFORM, Z0, Z1, 100000, seed=11)
        assert summary.analytic_mean_variance == pytest.approx(1 / 18, abs=1e-12)
        assert summary.consistent
        assert abs(summary.empirical_mse - 1 / 18) <= 4 * summary.std_error

    def test_trivial_povm_recovers_prior_variance(self):
        summary = run_simulation([np.eye(2)], UNIFORM, Z0, Z1, 50000, seed=5)
        assert summary.analytic_mean_variance == pytest.approx(1 / 12, abs=1e-12)
        assert summary.consistent

    def test_suboptimal_pvm_consistent(self):
        # tilted measurement: strictly between the optimum and no information
        c, s = math.cos(0.5), math.sin(0.5)
        direction = np.array([[c**2 - s**2, 2 * c * s], [2 * c * s, s**2 - c**2]], dtype=complex)
        povm = validate_povm(
            [0.5 * (np.eye(2) + direction), 0.5 * (np.eye(2) - direction)]
        )
        summary = run_simulation(povm, UNIFORM, Z0, Z1, 50000, seed=13)
        assert 1 / 18 < summary.analytic_mean_variance < 1 / 12
        assert summary.consistent

    def test_same_seed_reproduces_records(self):
        _, first = run_simulation(z_pvm(), UNIFORM, Z0, Z1, 500, seed=3, return_records=True)
        _, second = run_simulation(z_pvm(), UNIFORM, Z0, Z1, 500, seed=3, return_records=True)
        assert first == second
        _, third = run_simulation(z_pvm(), UNIFORM, Z0, Z1, 500, seed=4, return_records=True)
        assert first != third
        for record in first[:50]:
            assert record.squared_error == (record.true_lambda - record.estimate) ** 2

    def test_bayes_beats_midpoint_guess(self):
        summary, records = run_simulation(
            z_pvm(), UNIFORM, Z0, Z1, 100000, seed=17, return_records=True
        )
        midpoint_mse = float(np.mean([(r.true_lambda - 0.5) ** 2 for r in records]))
        assert summary.empirical_mse < midpoint_mse

    def test_no_measurement_beats_the_bound(self, rng):
        best = optimal_pvm(UNIFORM, Z0, Z1).score.mean_variance
        for _ in range(50):
            povm = random_povm(rng, 2, 4)
            score = q_functional(povm, UNIFORM, Z0, Z1)
            assert score.mean_variance >= best - 1e-10

    def test_rejects_empty_run(self):
        with pytest.raises(BadParameter):
            run_simulation(z_pvm(), UNIFORM, Z0, Z1, 0, seed=0)

    def test_reciprocal_prior_consistency(self):
        prior = Prior.truncated_reciprocal(math.log(2))
        report = optimal_pvm(prior, Z0, validate_state(np.eye(2) / 2))
        summary = run_simulation(
            report.povm, prior, Z0, validate_state(np.eye(2) / 2), 50000, seed=23
        )
        assert summary.consistent


class TestDecoherenceModel:
    def model(self, s=0.5, t=1.0, b_max=math.log(2.0)):
        return DecoherenceModel(s=s, t=t, b_max=b_max, rho0=Z0)

    def test_zero_rate_keeps_initial_state(self):
        assert decoherence_state(self.model(), 0.0).matrix == pytest.approx(Z0.matrix)

    def test_fast_rate_approaches_equilibrium(self):
        model = DecoherenceModel(s=0.3, t=50.0, b_max=1.0, rho0=Z0)
        final = decoherence_state(model, 1.0)
        assert final.matrix == pytest.approx(np.diag([0.3, 0.7]), abs=1e-12)

    def test_half_life(self):
        state = decoherence_state(self.model(), math.log(2.0))
        assert state.matrix == pytest.approx(np.diag([0.75, 0.25]), abs=1e-12)

    def test_rate_out_of_range(self):
        with pytest.raises(RateOutOfRange):
            decoherence_state(self.model(), 1.0)

    def test_parameter_validation(self):
        with pytest.raises(BadParameter):
            DecoherenceModel(s=1.5, t=1.0, b_max=1.0, rho0=Z0)
        with pytest.raises(BadParameter):
            DecoherenceModel(s=0.5, t=-1.0, b_max=1.0, rho0=Z0)

    @pytest.mark.parametrize("t, b_max", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0)])
    def test_rejects_non_finite_parameters(self, t, b_max):
        with pytest.raises(BadParameter):
            DecoherenceModel(s=0.5, t=t, b_max=b_max, rho0=Z0)


class TestDecayEstimation:
    def test_standard_pipeline(self):
        model = DecoherenceModel(s=0.5, t=1.0, b_max=math.log(2.0), rho0=Z0)
        decay = solve_decay_estimation(model)
        assert decay.prior.mean == pytest.approx(1 / (2 * math.log(2)), abs=1e-12)
        # initial state and equilibrium are both diagonal: the measurement
        # stays diagonal and the optimal angle vanishes
        assert abs(decay.report.alpha0) < 1e-9
        for effect in decay.report.povm:
            off = effect.matrix - np.diag(np.diag(effect.matrix))
            assert np.max(np.abs(off)) < 1e-9

    def test_plugin_rate_mapping(self):
        model = DecoherenceModel(s=0.5, t=2.0, b_max=1.0, rho0=Z0)
        decay = solve_decay_estimation(model)
        for g, b in zip(decay.report.estimates, decay.b_estimates):
            assert b == pytest.approx(-math.log(g) / 2.0, abs=1e-12)
            assert 0.0 <= b <= model.b_max + 1e-12

    def test_uniform_override_matches_direct_solver(self):
        model = DecoherenceModel(s=0.5, t=1.0, b_max=math.log(2.0), rho0=Z0)
        decay = solve_decay_estimation(model, uniform_prior=True)
        direct = optimal_pvm(UNIFORM, Z0, model.equilibrium)
        assert decay.report.score.q_value == pytest.approx(direct.score.q_value, abs=1e-12)
        assert decay.report.score.mean_variance == pytest.approx(
            direct.score.mean_variance, abs=1e-12
        )

    def test_small_window_gives_small_variance(self):
        model = DecoherenceModel(s=0.5, t=1.0, b_max=1e-2, rho0=Z0)
        decay = solve_decay_estimation(model)
        assert decay.report.score.mean_variance < decay.prior.variance + 1e-15
        assert decay.report.score.mean_variance < 1e-5

    def test_equilibrium_start_is_degenerate(self):
        model = DecoherenceModel(s=0.5, t=1.0, b_max=1.0, rho0=validate_state(np.eye(2) / 2))
        with pytest.raises(DegenerateProblem):
            solve_decay_estimation(model)

    def test_sampler_moments_at_scale(self):
        prior = Prior.truncated_reciprocal(math.log(2.0))
        rng = np.random.default_rng(99)
        draws = prior.sample(rng, 1_000_000)
        for power, target in ((1, prior.mean), (2, prior.second_moment)):
            vals = draws**power
            err = vals.std(ddof=1) / math.sqrt(len(vals))
            assert abs(vals.mean() - target) <= 4 * err

    def test_end_to_end_simulation(self):
        model = DecoherenceModel(s=0.5, t=1.0, b_max=math.log(2.0), rho0=Z0)
        decay = solve_decay_estimation(model)
        summary = run_simulation(
            decay.report.povm, decay.prior, model.rho0, model.equilibrium, 50000, seed=31
        )
        assert summary.consistent


class TestEntanglement:
    def test_partial_transpose_swaps_blocks(self, rng):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        pt = partial_transpose(m)
        assert pt[0, 1] == m[1, 0]
        assert pt[2, 3] == m[3, 2]
        assert pt[0, 0] == m[0, 0]
        assert np.max(np.abs(partial_transpose(pt) - m)) < 1e-15

    def test_pure_entangled_state_detected(self):
        assert is_entangled(noisy_state(SINGLET, 1.0))
        assert not is_entangled(noisy_state(SINGLET, 0.0))

    def test_threshold_is_one_third(self):
        thr = ppt_threshold(SINGLET)
        assert thr == pytest.approx(1 / 3, abs=1e-9)
        # analytic oracle: smallest partial-transpose eigenvalue is (1 - 3 lam) / 4
        for lam in (0.1, 0.3, 0.6, 0.9):
            assert min_ppt_eigenvalue(noisy_state(SINGLET, lam)) == pytest.approx(
                (1 - 3 * lam) / 4, abs=1e-12
            )

    def test_product_state_has_no_threshold(self):
        product = np.array([1.0, 0.0, 0.0, 0.0])
        assert ppt_threshold(product) is None

    def test_witness_detects_past_the_same_threshold(self):
        for lam in (0.0, 0.2, 1 / 3, 0.5, 1.0):
            value = float(np.trace(WITNESS @ noisy_state(SINGLET, lam)).real)
            assert value == pytest.approx((1 - 3 * lam) / 2, abs=1e-12)

    def test_separable_point_witness_nonnegative(self):
        assert float(np.trace(WITNESS @ noisy_state(SINGLET, 0.0)).real) >= 0.0

    def test_demo_rows(self):
        demo = entanglement_demo(SINGLET, n_trials=100, seed=8)
        assert demo.threshold == pytest.approx(1 / 3, abs=1e-9)
        assert len(demo.rows) == 100
        for row in demo.rows:
            assert row.entangled_at_true == (row.true_lambda > 1 / 3 + 1e-9) or (
                abs(row.true_lambda - 1 / 3) < 1e-6
            )
            assert row.entangled_at_estimate == (row.estimate > demo.threshold)
        # reproducibility
        again = entanglement_demo(SINGLET, n_trials=100, seed=8)
        assert again.rows == demo.rows

    def test_rejects_wrong_shape(self):
        with pytest.raises(WrongShape):
            entanglement_demo(np.array([1.0, 0.0]), n_trials=5, seed=0)
