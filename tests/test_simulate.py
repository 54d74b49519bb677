import json
import math

import numpy as np
import pytest
from numpy.random import Generator, Philox

import mixest.simulate
from mixest.bayes import Prior, q_functional
from mixest.cli import main, matrix_from_json, matrix_to_json
from mixest.errors import BadParameter, DegenerateProblem, WrongShape
from mixest.highdim import solve_pure_plus_noise
from mixest.qubit import optimal_pvm
from mixest.randutil import random_density, random_povm
from mixest.simulate import (
    WITNESS,
    DecoherenceModel,
    DemoRow,
    SimulationSummary,
    TrialRecord,
    entanglement_demo,
    is_entangled,
    min_ppt_eigenvalue,
    noisy_state,
    partial_transpose,
    ppt_threshold,
    run_simulation,
    solve_decay_estimation,
)
from mixest.states import as_povm, validate_povm, validate_state, validate_states

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
            diff = record.true_lambda - record.estimate
            assert record.squared_error == diff * diff

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

    @pytest.mark.parametrize("s", [0.0, 0.1, 0.3, 0.5, 1.0])
    def test_equilibrium_has_the_validated_bits_without_a_check(self, s, monkeypatch):
        expected = validate_state(np.diag([s, 1.0 - s]).astype(complex)).matrix

        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called: the equilibrium state was validated again")

        monkeypatch.setattr("mixest.states.np.linalg.eigvalsh", refuse)
        eq = self.model(s=s).equilibrium
        assert eq.matrix.tobytes() == expected.tobytes()
        assert not eq.matrix.flags.writeable

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
        draws = prior.sample_from_uniform(rng.random(1_000_000))
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
        with pytest.raises(WrongShape):
            ppt_threshold(np.ones(3))

    @pytest.mark.parametrize("n_trials", [0, -3])
    def test_rejects_empty_demo(self, n_trials):
        with pytest.raises(BadParameter):
            entanglement_demo(SINGLET, n_trials=n_trials, seed=0)

    @pytest.mark.parametrize(
        "psi",
        [
            np.zeros(4),
            np.array([math.nan, 1.0, 0.0, 0.0]),
            np.array([math.inf, 0.0, 0.0, 1.0]),
            np.array([1e308, 1e308, 0.0, 0.0]),  # finite entries, the norm overflows
        ],
    )
    def test_rejects_bad_state_vector(self, psi):
        with pytest.raises(BadParameter):
            ppt_threshold(psi)
        with pytest.raises(BadParameter):
            entanglement_demo(psi, n_trials=5, seed=0)
        with pytest.raises(BadParameter):
            solve_pure_plus_noise(UNIFORM, psi)
        with pytest.raises(BadParameter):
            noisy_state(psi, 0.5)

    def test_threshold_closed_form_matches_eigenvalues(self, rng):
        for _ in range(20):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            thr = ppt_threshold(psi)
            assert min_ppt_eigenvalue(noisy_state(psi, thr)) == pytest.approx(0.0, abs=1e-12)
            assert min_ppt_eigenvalue(noisy_state(psi, thr - 1e-6)) > 0
            assert min_ppt_eigenvalue(noisy_state(psi, thr + 1e-6)) < 0


# --- golden reference: the per-trial loop the vectorised sampler replaced ---

MASK64 = (1 << 64) - 1
GOLDEN_SEEDS = (0, 1, 3, 2**63, 2**64 - 1, -5)
GOLDEN_PRIORS = {
    "uniform": Prior.uniform(),
    "reciprocal-0.05": Prior.truncated_reciprocal(0.05),
    "reciprocal-5": Prior.truncated_reciprocal(5.0),
    "table": Prior.from_table([0.0, 0.2, 0.5, 0.7, 1.0], [0.0, 2.0, 0.5, 1.5, 0.3]),
}


def reference_trials(prior, povm, rho1, rho2, n_trials, seed):
    """(lam, outcome) per trial, one Philox generator per trial."""
    t1 = [float(np.trace(e.matrix @ rho1.matrix).real) for e in povm]
    t2 = [float(np.trace(e.matrix @ rho2.matrix).real) for e in povm]
    k = len(t1)
    out = []
    for i in range(n_trials):
        u_lambda, u_outcome = Generator(Philox(key=int(seed) & MASK64, counter=[0, 0, i, 0])).random(2)
        lam = float(prior.sample_from_uniform(u_lambda))
        probs = [max(lam * t1[m] + (1.0 - lam) * t2[m], 0.0) for m in range(k)]
        target = u_outcome * sum(probs)
        acc = 0.0
        outcome = k - 1
        for m in range(k):
            acc += probs[m]
            if target < acc:
                outcome = m
                break
        out.append((lam, outcome))
    return out


def reference_simulation(povm, prior, rho1, rho2, n_trials, seed):
    povm = as_povm(povm)
    score = q_functional(povm, prior, rho1, rho2)
    estimates = [o.estimate for o in score.per_outcome]
    records = []
    for lam, outcome in reference_trials(prior, povm, rho1, rho2, n_trials, seed):
        est = estimates[outcome]
        records.append(TrialRecord(lam, outcome, est, (lam - est) * (lam - est)))
    errors = np.array([r.squared_error for r in records])
    mse = float(errors.mean())
    std_error = float(errors.std(ddof=1) / math.sqrt(n_trials)) if n_trials > 1 else float("inf")
    summary = SimulationSummary(
        n_trials=n_trials,
        empirical_mse=mse,
        analytic_mean_variance=score.mean_variance,
        std_error=std_error,
        seed=int(seed) & MASK64,
        consistent=abs(mse - score.mean_variance) <= 4.0 * std_error,
    )
    return summary, records


def reference_ppt_threshold(psi, tol=1e-9):
    """Bisection on the smallest partial-transpose eigenvalue."""
    if min_ppt_eigenvalue(noisy_state(psi, 1.0)) >= -1e-12:
        return None
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if min_ppt_eigenvalue(noisy_state(psi, mid)) < 0.0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2.0


def reference_demo_rows(psi, prior, n_trials, seed):
    psi = np.asarray(psi, dtype=complex) / np.linalg.norm(psi)
    rho1 = validate_state(np.outer(psi, psi.conj()))
    rho2 = validate_state(np.eye(4, dtype=complex) / 4.0)
    # the paper's subspace test {P, I - P} on the pure state
    povm = validate_povm([rho1.matrix, np.eye(4) - rho1.matrix])
    estimates = [o.estimate for o in q_functional(povm, prior, rho1, rho2).per_outcome]
    rows = []
    for lam, outcome in reference_trials(prior, povm, rho1, rho2, n_trials, seed):
        est = estimates[outcome]
        state_est, state_true = noisy_state(psi, est), noisy_state(psi, lam)
        rows.append(
            DemoRow(
                true_lambda=lam,
                estimate=est,
                entangled_at_estimate=is_entangled(state_est),
                entangled_at_true=is_entangled(state_true),
                witness_at_estimate=float(np.trace(WITNESS @ state_est).real),
                witness_at_true=float(np.trace(WITNESS @ state_true).real),
            )
        )
    return rows


def golden_problem(n_outcomes):
    rng = np.random.default_rng(70 + n_outcomes)
    rho1, rho2 = random_density(rng, 2), random_density(rng, 2)
    povm = [np.eye(2)] if n_outcomes == 1 else random_povm(rng, 2, n_outcomes)
    return povm, rho1, rho2


class TestPhiloxKernels:
    """The integer-lane and numpy kernels against numpy's own Philox, word for word."""

    LANES_MAX = mixest.simulate._LANES_MAX

    def test_golden_trial_counts_straddle_the_kernel_switch(self):
        # the golden tests below run each kernel only if this holds
        assert 48 <= self.LANES_MAX < 300

    @pytest.mark.parametrize("length", [1, LANES_MAX - 1, LANES_MAX, LANES_MAX + 1, 4 * LANES_MAX + 3])
    @pytest.mark.parametrize("start", [2**32 - 100, 2**63 - 100])
    @pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1, -5])
    def test_kernels_match_numpy_philox(self, length, start, seed):
        key = seed & MASK64
        counters = np.arange(start, start + length, dtype=np.uint64)
        # a uint64 counter array: Philox reads a list holding an int >= 2**63 as float64
        full = np.zeros((length, 4), dtype=np.uint64)
        full[:, 2] = counters
        raw = np.array([Philox(key=key, counter=c).random_raw(2) for c in full])
        for kernel in (mixest.simulate._philox_lanes, mixest.simulate._philox_numpy):
            assert np.array_equal(kernel(key, counters), raw.T)
        u_lam, u_outcome = mixest.simulate._philox_uniforms(key, counters)
        for i in (0, length // 2, length - 1):
            ref = Generator(Philox(key=key, counter=full[i])).random(2)
            assert (u_lam[i], u_outcome[i]) == (ref[0], ref[1])


class TestGoldenSampler:
    @pytest.mark.parametrize("prior_name", sorted(GOLDEN_PRIORS))
    @pytest.mark.parametrize("n_outcomes", [1, 2, 4, 6])
    @pytest.mark.parametrize("n_trials", [28, 300])  # integer lanes, numpy rounds
    def test_matches_per_trial_loop(self, prior_name, n_outcomes, n_trials):
        prior = GOLDEN_PRIORS[prior_name]
        povm, rho1, rho2 = golden_problem(n_outcomes)
        for seed in GOLDEN_SEEDS:
            expected = reference_simulation(povm, prior, rho1, rho2, n_trials, seed)
            assert run_simulation(povm, prior, rho1, rho2, n_trials, seed, return_records=True) == expected
            assert run_simulation(povm, prior, rho1, rho2, n_trials, seed) == expected[0]

    # every block of 7 on numpy, every block on lanes, then six blocks on numpy and the last 4 on lanes
    @pytest.mark.parametrize("lanes_max", [0, 256, 5])
    def test_chunk_boundaries(self, monkeypatch, lanes_max):
        povm, rho1, rho2 = golden_problem(4)
        prior = GOLDEN_PRIORS["table"]
        expected = reference_simulation(povm, prior, rho1, rho2, 53, 2**64 - 1)
        demo = entanglement_demo(SINGLET, n_trials=53, seed=-5)
        monkeypatch.setattr(mixest.simulate, "_CHUNK", 7)
        monkeypatch.setattr(mixest.simulate, "_LANES_MAX", lanes_max)
        assert run_simulation(povm, prior, rho1, rho2, 53, 2**64 - 1, return_records=True) == expected
        assert entanglement_demo(SINGLET, n_trials=53, seed=-5).rows == demo.rows

    @pytest.mark.parametrize("povm_source", ["file", "optimal"])
    @pytest.mark.parametrize("n_trials", [1, 48, 400])  # std_error inf, integer lanes, numpy rounds
    def test_trials_csv_bytes(self, tmp_path, n_trials, povm_source):
        povm, rho1, rho2 = golden_problem(6)
        effects = [matrix_to_json(e.matrix) for e in povm]
        states = [matrix_to_json(rho1.matrix), matrix_to_json(rho2.matrix)]
        problem, povm_file = tmp_path / "problem.json", tmp_path / "povm.json"
        problem.write_text(json.dumps({
            "rho1": states[0],
            "rho2": states[1],
            "prior": {"kind": "trunc_reciprocal", "t_bmax": 5.0},
        }))
        povm_file.write_text(json.dumps({"effects": effects}))
        out, trials = tmp_path / "summary.csv", tmp_path / "trials.csv"
        povm_arg = str(povm_file) if povm_source == "file" else "optimal"
        argv = ["simulate", "--problem", str(problem), "--povm", povm_arg, "--n-trials",
                str(n_trials), "--seed", "-5", "--out", str(out), "--trials-out", str(trials)]
        assert main(argv) == 0
        if povm_source == "file":
            loaded = validate_povm([matrix_from_json(e) for e in effects])
        else:
            loaded_states = validate_states([matrix_from_json(m) for m in states])
            loaded = mixest.solve(Prior.truncated_reciprocal(5.0), *loaded_states).report.povm
        summary, records = reference_simulation(
            loaded, Prior.truncated_reciprocal(5.0), rho1, rho2, n_trials, -5
        )
        lines = ["trial,true_lambda,outcome_index,estimate,squared_error"] + [
            f"{i},{r.true_lambda:.17g},{r.outcome_index},{r.estimate:.17g},{r.squared_error:.17g}"
            for i, r in enumerate(records)
        ]
        assert trials.read_bytes() == ("\n".join(lines) + "\n").encode()
        assert out.read_text().splitlines()[1] == (
            f"{summary.seed},{n_trials},{summary.empirical_mse:.17g},"
            f"{summary.analytic_mean_variance:.17g},{summary.std_error:.17g}"
        )

    @pytest.mark.parametrize("state", range(8))
    @pytest.mark.parametrize("n_trials", [28, 300])  # integer lanes, numpy rounds
    def test_demo_matches_eigenvalue_loop(self, state, n_trials):
        rng = np.random.default_rng(90 + state)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        if state == 0:
            psi = SINGLET
        elif state == 1:
            psi = np.array([1.0, 0.0, 0.0, 0.0])  # product state: never entangled
        prior = Prior.truncated_reciprocal(2.0) if state % 2 else Prior.uniform()
        seed = GOLDEN_SEEDS[state % len(GOLDEN_SEEDS)]
        demo = entanglement_demo(psi, prior, n_trials=n_trials, seed=seed)
        expected = reference_demo_rows(psi, prior, n_trials, seed)
        assert len(demo.rows) == len(expected)
        for row, ref in zip(demo.rows, expected):
            assert (row.true_lambda, row.estimate) == (ref.true_lambda, ref.estimate)
            assert row.entangled_at_true == ref.entangled_at_true
            assert row.entangled_at_estimate == ref.entangled_at_estimate
            assert abs(row.witness_at_true - ref.witness_at_true) <= 1e-15
            assert abs(row.witness_at_estimate - ref.witness_at_estimate) <= 1e-15
        threshold = reference_ppt_threshold(psi)
        if threshold is None:
            assert demo.threshold is None
        else:
            assert demo.threshold == pytest.approx(threshold, abs=1e-9)
