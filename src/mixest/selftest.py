"""Built-in property checks behind the ``selftest`` subcommand.

A condensed version of the test suite: each check prints one line and the
run exits nonzero if anything fails.  The checks test answers: solved
measurements against the Bayesian-SLD optimum ``q_star``, the
closed-form qubit score against the score of the measurement it
describes, and the sampler against its reference stream.  Useful as a
smoke test on a fresh install.
"""

from __future__ import annotations

import math
import traceback

import numpy as np

from .bayes import Prior, q_functional
from .errors import BadParameter
from .highdim import solve
from .qubit import optimal_alpha, optimal_pvm
from .randutil import random_commuting_pair, random_density, random_povm, random_pure
from .simulate import _LANES_MAX, _philox_uniforms, min_ppt_eigenvalue, noisy_state, ppt_threshold
from .states import bloch_compose, bloch_decompose, validate_state, validate_states


# one prior of each kind: uniform, truncated reciprocal, table
_PRIORS = (Prior.uniform(), Prior.truncated_reciprocal(0.7), Prior.from_table([0.0, 0.4, 1.0], [0.3, 2.0, 0.5]))


def _check_bloch_round_trip(rng):
    for _ in range(50):
        v = rng.normal(size=3)
        v *= rng.random() / np.linalg.norm(v)
        rho = validate_state(bloch_compose(v, 0.5).matrix)
        back = bloch_decompose(rho)
        assert np.max(np.abs(back - v)) < 1e-12


def _check_uniform_complementarity(rng):
    prior = Prior.uniform()
    for _ in range(50):
        rho1 = random_density(rng, 2)
        rho2 = random_density(rng, 2)
        povm = random_povm(rng, 2, 4)
        score = q_functional(povm, prior, rho1, rho2)
        assert abs(score.q_value + score.mean_variance - 1.0 / 3.0) < 1e-10


def _check_split_monotone(rng):
    for d in (2, 3, 4):
        for k in range(21):
            prior = _PRIORS[k % 3]
            rho1 = random_density(rng, d)
            rho2 = random_density(rng, d)
            povm = random_povm(rng, d, 3)
            base = q_functional(povm, prior, rho1, rho2).q_value
            evals, vecs = np.linalg.eigh(povm.effects[-1].matrix)
            parts = [e * np.outer(v, v.conj()) for e, v in zip(evals, vecs.T)]
            after = q_functional(povm.matrices()[:-1] + parts, prior, rho1, rho2).q_value
            assert after >= base - 1e-12


def _rank_two_support_pair(rng, d):
    basis, _ = np.linalg.qr(rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2)))
    lift = [basis @ random_density(rng, 2).matrix @ basis.conj().T for _ in range(2)]
    return validate_states(lift)


def _check_solved_reach_q_star(rng):
    pairs = [(random_density(rng, 2), random_density(rng, 2)) for _ in range(10)]
    for d in (3, 4):
        pairs += [
            (random_pure(rng, d), validate_state(np.eye(d) / d)),
            random_commuting_pair(rng, d),
            _rank_two_support_pair(rng, d),
        ]
    for prior in _PRIORS:
        for rho1, rho2 in pairs:
            out = solve(prior, rho1, rho2)
            assert out.report is not None, out.certificate
            assert abs(out.q_star - out.report.score.q_value) < 1e-9


def _check_closed_form_score(rng):
    for prior in _PRIORS:
        for _ in range(30):
            rho1 = random_density(rng, 2)
            rho2 = random_density(rng, 2)
            report = optimal_pvm(prior, rho1, rho2)
            q = q_functional(report.povm, prior, rho1, rho2).q_value
            assert abs(q - optimal_alpha(report.geometry).q_max) < 1e-12


def _check_sampler_moments(rng):
    prior = Prior.truncated_reciprocal(math.log(2.0))
    draws = prior.sample_from_uniform(rng.random(200000))
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
    ("solved d = 2, 3, 4 answers reach q_star", _check_solved_reach_q_star),
    ("optimal PVM scores the closed-form q_max", _check_closed_form_score),
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
