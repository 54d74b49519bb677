"""Built-in property checks behind the ``selftest`` subcommand.

A condensed version of the test suite: each check prints one line and the
run exits nonzero if anything fails.  Useful as a smoke test on a fresh
install.
"""

from __future__ import annotations

import math
import traceback

import numpy as np

from .bayes import Prior, effective_states, q_functional, q_permutation_form
from .errors import BadParameter
from .policy import DEFAULT_POLICY
from .qubit import (
    PlanarGeometry,
    optimal_alpha,
    optimal_pvm,
    planar_q,
    planar_to_povm,
    projected_to_povm,
    reduce_to_plane,
    split_effect,
)
from .randutil import random_density, random_povm
from .simulate import _LANES_MAX, _philox_uniforms, min_ppt_eigenvalue, noisy_state, ppt_threshold
from .states import bloch_compose, bloch_decompose, validate_state


def _check_bloch_round_trip(rng):
    for _ in range(50):
        v = rng.normal(size=3)
        v *= rng.random() / np.linalg.norm(v)
        rho = validate_state(bloch_compose(v, 0.5).matrix)
        back = bloch_decompose(rho).as_array()
        assert np.max(np.abs(back - v)) < 1e-12


def _check_uniform_complementarity(rng):
    prior = Prior.uniform()
    for _ in range(50):
        rho1 = random_density(rng, 2)
        rho2 = random_density(rng, 2)
        povm = random_povm(rng, 2, 4)
        score = q_functional(povm, prior, rho1, rho2)
        assert abs(score.q_value + score.mean_variance - 1.0 / 3.0) < 1e-10
        assert abs(q_permutation_form(povm, prior, rho1, rho2) - score.q_value) < 1e-12


def _check_split_monotone(rng):
    prior = Prior.uniform()
    for _ in range(50):
        rho1 = random_density(rng, 2)
        rho2 = random_density(rng, 2)
        povm = random_povm(rng, 2, 3)
        base = q_functional(povm, prior, rho1, rho2).q_value
        target = povm.effects[-1]
        a, b = split_effect(target)
        replaced = list(povm.matrices()[:-1]) + [a.matrix, b.matrix]
        after = q_functional(replaced, prior, rho1, rho2).q_value
        assert after >= base - 1e-12


def _check_plane_projection(rng):
    prior = Prior.uniform()
    for _ in range(50):
        rho1 = random_density(rng, 2)
        rho2 = random_density(rng, 2)
        rho_a, rho_b = effective_states(prior, rho1, rho2)
        povm = random_povm(rng, 2, 3)
        base = q_functional(povm, prior, rho1, rho2).q_value
        red = reduce_to_plane(povm, rho_a, rho_b)
        projected = projected_to_povm(red.projected, red.geometry)
        assert abs(q_functional(projected, prior, rho1, rho2).q_value - base) < 1e-12
        split = planar_to_povm(red.planar, red.geometry)
        assert q_functional(split, prior, rho1, rho2).q_value >= base - 1e-12


def _grid_max(geom, alphas):
    vals = planar_q(0.5, np.stack([alphas, alphas + math.pi], axis=-1), geom)
    best = int(np.argmax(vals))
    return float(alphas[best]), float(vals[best])


def _check_angle_oracle(rng):
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    coarse = np.linspace(-math.pi / 2, math.pi / 2, 2001)
    step = coarse[1] - coarse[0]
    for rb in (0.0, 0.3, 0.8, 0.95):
        for gamma in np.linspace(-math.pi + 1e-9, math.pi, 41):
            geom = PlanarGeometry(0.2, rb, float(gamma), e1, e2, 0.25)
            sol = optimal_alpha(geom)
            a0, _ = _grid_max(geom, coarse)
            a_grid, q_grid = _grid_max(geom, np.linspace(a0 - step, a0 + step, 4001))
            gap = abs(sol.alpha - a_grid) % math.pi
            assert min(gap, math.pi - gap) <= DEFAULT_POLICY.angle_oracle_tol
            assert sol.q_max >= q_grid - 1e-12


def _check_optimal_dominates(rng):
    prior = Prior.uniform()
    for _ in range(10):
        rho1 = random_density(rng, 2)
        rho2 = random_density(rng, 2)
        best = optimal_pvm(prior, rho1, rho2).score.q_value
        for _ in range(50):
            povm = random_povm(rng, 2, 4)
            assert q_functional(povm, prior, rho1, rho2).q_value <= best + 1e-9


def _check_sampler_moments(rng):
    prior = Prior.truncated_reciprocal(math.log(2.0))
    draws = prior.sample(rng, 200000)
    n = len(draws)
    for moment, target in ((1, prior.mean), (2, prior.second_moment)):
        vals = draws**moment
        err = vals.std(ddof=1) / math.sqrt(n)
        assert abs(vals.mean() - target) < 4 * err


def _check_ppt_threshold(rng):
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    thr = ppt_threshold(singlet)
    assert thr is not None and abs(thr - 1.0 / 3.0) < 1e-8
    assert min_ppt_eigenvalue(noisy_state(singlet, 0.0)) > 0


def _check_philox_stream(rng):
    # imported here, so that importing mixest does not load numpy.random
    from numpy.random import Generator, Philox

    # one block on integer lanes, one above _LANES_MAX in numpy
    for key in (0, 2**64 - 1):
        for n in (64, _LANES_MAX + 1):
            u_lam, u_outcome = _philox_uniforms(key, np.arange(n, dtype=np.uint64))
            for i in range(n):
                ref = Generator(Philox(key=key, counter=[0, 0, i, 0])).random(2)
                assert (u_lam[i], u_outcome[i]) == (ref[0], ref[1])


CHECKS: list[tuple[str, object]] = [
    ("bloch round trip", _check_bloch_round_trip),
    ("uniform q + mean variance = 1/3", _check_uniform_complementarity),
    ("splitting never lowers the score", _check_split_monotone),
    ("plane projection preserves the score", _check_plane_projection),
    ("closed-form angle matches grid oracle", _check_angle_oracle),
    ("optimal PVM dominates random POVMs", _check_optimal_dominates),
    ("decoherence sampler moments", _check_sampler_moments),
    ("two-qubit PPT threshold", _check_ppt_threshold),
    ("sampler stream equals numpy's Philox", _check_philox_stream),
]


def run_selftest(seed: int = 0) -> int:
    if seed < 0:
        raise BadParameter(f"seed must be non-negative, got {seed}")
    failures = 0
    for index, (name, check) in enumerate(CHECKS):
        rng = np.random.default_rng([seed, index])
        try:
            check(rng)
            print(f"ok   {name}")
        except Exception:
            failures += 1
            print(f"FAIL {name}")
            traceback.print_exc()
    print(f"{len(CHECKS) - failures}/{len(CHECKS)} checks passed")
    return 0 if failures == 0 else 1
