"""Acceptance criteria, one test per criterion.

Each test pins the published tolerance, uses an oracle independent of the
code path it certifies wherever a derived value is asserted, and prints a
single PASS line (visible with ``pytest -s``).
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from mixest.bayes import Prior, effective_states, q_functional
from mixest.qubit import PlanarGeometry, optimal_alpha, optimal_pvm
from mixest.highdim import solve_commuting
from mixest.randutil import random_commuting_pair, random_density, random_povm
from mixest.simulate import (
    DecoherenceModel,
    min_ppt_eigenvalue,
    noisy_state,
    ppt_threshold,
    run_simulation,
    solve_decay_estimation,
)
from mixest.states import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    validate_state,
)
from planar_oracle import (
    common_eigenbasis,
    pinch_to_basis,
    projected_to_povm,
    q_permutation_form,
    reduce_to_plane,
    split_effect,
)

UNIFORM = Prior.uniform()
Z0 = validate_state(np.diag([1.0, 0.0]))
Z1 = validate_state(np.diag([0.0, 1.0]))


def bloch_state(v):
    v = np.asarray(v, dtype=float)
    m = 0.5 * (np.eye(2) + v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z)
    return validate_state(m)


def oracle_grid_max_angle(delta_r, r_b, gamma, points=20001):
    """Independent maximizer of the planar score over the angle."""
    alphas = np.linspace(-math.pi / 2, math.pi / 2, points)
    vals = np.cos(alphas) ** 2 / (1.0 - (r_b * np.cos(alphas + gamma)) ** 2)
    best = int(np.argmax(vals))
    lo = alphas[max(best - 1, 0)]
    hi = alphas[min(best + 1, points - 1)]

    def f(a):
        return math.cos(a) ** 2 / (1.0 - (r_b * math.cos(a + gamma)) ** 2)

    phi = (math.sqrt(5) - 1) / 2
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


def oracle_mean_variance(povm, rho1, rho2):
    """Mean variance by direct numeric integration over the uniform prior."""
    total = 0.0
    for effect in povm:
        t1 = float(np.trace(effect.matrix @ rho1.matrix).real)
        t2 = float(np.trace(effect.matrix @ rho2.matrix).real)
        like = lambda lam: lam * t1 + (1 - lam) * t2
        prob, _ = quad(like, 0, 1, epsabs=1e-13)
        if prob < 1e-14:
            continue
        first, _ = quad(lambda lam: lam * like(lam), 0, 1, epsabs=1e-13)
        g = first / prob
        cost, _ = quad(lambda lam: (lam - g) ** 2 * like(lam), 0, 1, epsabs=1e-13)
        total += cost
    return total


def batch_random_povm_q(rng, dim, count, n_effects, rho_a, rho_b):
    """Vectorized uniform-prior score of `count` random rank-one POVMs."""
    k = n_effects - 1
    weights = rng.dirichlet(np.ones(k), size=count)
    raw = rng.normal(size=(count, k, dim)) + 1j * rng.normal(size=(count, k, dim))
    raw /= np.linalg.norm(raw, axis=2, keepdims=True)
    effects = weights[:, :, None, None] * np.einsum("nki,nkj->nkij", raw, raw.conj())
    completion = np.eye(dim)[None, :, :] - effects.sum(axis=1)
    all_effects = np.concatenate([effects, completion[:, None, :, :]], axis=1)
    ta = np.einsum("nkij,ji->nk", all_effects, rho_a.matrix).real
    tb = np.einsum("nkij,ji->nk", all_effects, rho_b.matrix).real
    terms = np.where(tb > 1e-14, (0.5 * ta) ** 2 / np.where(tb <= 0, 1.0, tb), 0.0)
    return terms.sum(axis=1)


def test_criterion_01_pure_state_optimum():
    start = time.perf_counter()
    for theta in (math.pi / 6, math.pi / 2, math.pi):
        rho1 = bloch_state([0, 0, 1])
        rho2 = bloch_state([math.sin(theta), 0, math.cos(theta)])
        report = optimal_pvm(UNIFORM, rho1, rho2)
        delta_r = math.sin(theta / 2) / 3.0
        assert report.score.q_value == pytest.approx(0.25 * (1 + delta_r**2), abs=1e-10)
        diff = rho1.matrix - rho2.matrix
        for effect in report.povm:
            comm = effect.matrix @ diff - diff @ effect.matrix
            assert np.max(np.abs(comm)) < 1e-8
        # 1-d grid oracle on the planar score
        geom = report.geometry
        best = oracle_grid_max_angle(geom.delta_r, geom.r_b_norm, geom.gamma)
        q_grid = 0.25 * (
            1 + geom.delta_r**2 * math.cos(best) ** 2 / (1 - (geom.r_b_norm * math.cos(best + geom.gamma)) ** 2)
        )
        assert abs(report.score.q_value - q_grid) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: pure-state optimum matches grid oracle ({elapsed:.2f}s)")


def test_criterion_02_orthogonal_pure_benchmark():
    start = time.perf_counter()
    report = optimal_pvm(UNIFORM, Z0, Z1)
    oracle = oracle_mean_variance(report.povm, Z0, Z1)
    assert oracle == pytest.approx(1 / 18, abs=1e-10)
    assert report.score.mean_variance == pytest.approx(oracle, abs=1e-10)
    summary = run_simulation(report.povm, UNIFORM, Z0, Z1, 100000, seed=2024)
    assert abs(summary.empirical_mse - 1 / 18) <= 4 * summary.std_error
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"\nACCEPTANCE 2 PASS: mean variance 1/18 analytic and empirical "
        f"({summary.empirical_mse:.6f} +- {summary.std_error:.6f}, {elapsed:.2f}s)"
    )


def test_criterion_03_no_information_baselines():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 2)
    score_same = q_functional(random_povm(rng, 2, 4), UNIFORM, rho, rho)
    assert abs(score_same.mean_variance - 1 / 12) <= 1e-12
    score_trivial = q_functional([np.eye(2)], UNIFORM, Z0, Z1)
    assert abs(score_trivial.mean_variance - 1 / 12) <= 1e-12
    print("\nACCEPTANCE 3 PASS: no-information baselines give the prior variance 1/12")


def test_criterion_04_gamma_sweep_reproduction():
    start = time.perf_counter()
    r_b = 0.8
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    gammas = [-math.pi + 2 * math.pi * k / 360 for k in range(1, 361)]
    alphas = []
    for gamma in gammas:
        geom = PlanarGeometry(1 / 6, r_b, gamma, e1, e2, 0.25)
        sol = optimal_alpha(geom)
        alphas.append(sol.alpha)
        oracle = oracle_grid_max_angle(1 / 6, r_b, gamma)
        assert angle_distance(sol.alpha, oracle) <= 1e-6
    table = dict(zip((round(g, 12) for g in gammas), alphas))
    assert abs(table[round(math.pi / 2, 12)]) <= 1e-9
    assert abs(table[round(-math.pi / 2, 12)]) <= 1e-9
    # continuity except for possible branch jumps near 0 and +-pi
    step = 2 * math.pi / 360
    for g_prev, g_next, a_prev, a_next in zip(gammas, gammas[1:], alphas, alphas[1:]):
        if min(abs(g_next), abs(abs(g_next) - math.pi), abs(g_prev), abs(abs(g_prev) - math.pi)) < 2 * step:
            continue
        assert abs(a_next - a_prev) < 20 * step
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 4 PASS: gamma sweep at r_b=0.8, 360 points vs oracle ({elapsed:.2f}s)")


def test_criterion_05_planar_povms_never_beat_pvm():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = -np.inf
    for _ in range(100):
        rho1 = random_density(rng, 2)
        rho2 = random_density(rng, 2)
        report = optimal_pvm(UNIFORM, rho1, rho2)
        geom = report.geometry
        # sample 1000 feasible 3-outcome planar POVMs
        got = 0
        while got < 1000:
            need = 1000 - got
            a = rng.uniform(-math.pi, math.pi, size=(2 * need + 8, 3))
            m = np.stack([np.ones_like(a), np.cos(a), np.sin(a)], axis=1)
            rhs = np.zeros((a.shape[0], 3, 1))
            rhs[:, 0, 0] = 1.0
            try:
                w = np.linalg.solve(m, rhs)[:, :, 0]
            except np.linalg.LinAlgError:
                continue
            ok = np.all(w > 1e-9, axis=1)
            a, w = a[ok][:need], w[ok][:need]
            if len(a) == 0:
                continue
            proj2 = (geom.delta_r * np.cos(a)) ** 2
            den = 1.0 + geom.r_b_norm * np.cos(a + geom.gamma)
            terms = np.where(den > 1e-14, w * proj2 / np.where(den <= 0, 1.0, den), 0.0)
            qs = 0.25 * (1.0 + terms.sum(axis=1))
            worst = max(worst, float(qs.max()) - report.score.q_value)
            got += len(a)
        assert worst <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 5 PASS: 100 problems x 1000 planar POVMs, worst gap {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_06_splitting_and_projection():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        rho1 = random_density(rng, 2)
        rho2 = random_density(rng, 2)
        povm = random_povm(rng, 2, 3)
        base = q_functional(povm, UNIFORM, rho1, rho2).q_value
        # split the completion effect (rank two almost surely)
        try:
            first, second = split_effect(povm.effects[-1])
        except Exception:
            continue
        replaced = povm.matrices()[:-1] + [first.matrix, second.matrix]
        q_split = q_functional(replaced, UNIFORM, rho1, rho2).q_value
        assert q_split >= base - 1e-12
        rho_a, rho_b = effective_states(UNIFORM, rho1, rho2)
        red = reduce_to_plane(povm, rho_a, rho_b)
        q_proj = q_functional(
            projected_to_povm(red.projected, red.geometry), UNIFORM, rho1, rho2
        ).q_value
        assert abs(q_proj - base) <= 1e-12
    print("\nACCEPTANCE 6 PASS: splitting monotone and plane projection invariant on 1000 cases")


def test_criterion_07_commuting_reduction():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for dim in (2, 3, 4):
        for _ in range(2):
            rho1, rho2 = random_commuting_pair(rng, dim)
            basis = common_eigenbasis(rho1, rho2)
            for _ in range(25):
                povm = random_povm(rng, dim, dim + 1)
                base = q_functional(povm, UNIFORM, rho1, rho2).q_value
                pinched = pinch_to_basis(povm, basis)
                assert q_functional(pinched, UNIFORM, rho1, rho2).q_value == pytest.approx(
                    base, abs=1e-12
                )
            out = solve_commuting(UNIFORM, rho1, rho2)
            best = out.report.score.q_value
            rho_a, rho_b = effective_states(UNIFORM, rho1, rho2)
            qs = batch_random_povm_q(rng, dim, 1000, dim + 2, rho_a, rho_b)
            assert float(qs.max()) <= best + 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 7 PASS: pinching invariance and eigenbasis dominance for d in 2,3,4 ({elapsed:.1f}s)")


def test_criterion_08_permutation_symmetry():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        rho1 = random_density(rng, 2)
        rho2 = random_density(rng, 2)
        povm = random_povm(rng, 2, 3)
        forward = q_permutation_form(povm, UNIFORM, rho1, rho2)
        backward = q_permutation_form(povm, UNIFORM, rho2, rho1)
        assert abs(forward - backward) <= 1e-12
        assert abs(forward - q_functional(povm, UNIFORM, rho1, rho2).q_value) <= 1e-12
    print("\nACCEPTANCE 8 PASS: score symmetric under swapping the states on 1000 problems")


def test_criterion_09_decoherence_pipeline():
    t_bmax = math.log(2.0)
    prior = Prior.truncated_reciprocal(t_bmax)
    assert prior.mean == pytest.approx(1 / (2 * math.log(2)), abs=1e-12)
    lo, hi = prior.support
    for n, closed in ((1, prior.mean), (2, prior.second_moment), (3, prior.third_moment)):
        numeric, _ = quad(lambda x, n=n: x**n / (x * t_bmax), lo, hi, epsabs=1e-13, epsrel=1e-13)
        assert closed == pytest.approx(numeric, abs=1e-9)
    model = DecoherenceModel(s=0.5, t=1.0, b_max=math.log(2.0), rho0=Z0)
    decay = solve_decay_estimation(model)
    summary = run_simulation(
        decay.report.povm, decay.prior, model.rho0, model.equilibrium, 100000, seed=909
    )
    assert abs(summary.empirical_mse - summary.analytic_mean_variance) <= 4 * summary.std_error
    print(
        f"\nACCEPTANCE 9 PASS: decoherence prior moments at 1e-9 and end-to-end MSE "
        f"{summary.empirical_mse:.6f} vs {summary.analytic_mean_variance:.6f}"
    )


def test_criterion_10_entanglement_threshold():
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    threshold = ppt_threshold(singlet)
    assert threshold == pytest.approx(1 / 3, abs=1e-9)
    # partial-transpose eigenvalue oracle around the threshold
    assert min_ppt_eigenvalue(noisy_state(singlet, threshold - 1e-6)) > 0
    assert min_ppt_eigenvalue(noisy_state(singlet, threshold + 1e-6)) < 0
    print(f"\nACCEPTANCE 10 PASS: PPT threshold {threshold:.9f} = 1/3 in closed form")
