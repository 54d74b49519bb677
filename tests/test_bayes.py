import dataclasses
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mixest.bayes import (
    PosteriorMoments,
    Prior,
    effective_states,
    q_functional,
)
from mixest.errors import BadParameter, DimensionMismatch, ValidationError
from mixest.policy import DEFAULT_POLICY
from mixest.randutil import random_density, random_povm
from mixest.states import DensityMatrix, validate_povm, validate_state, validate_states
from planar_oracle import NonUniformPrior, q_permutation_form

Z0 = validate_state(np.diag([1.0, 0.0]))
Z1 = validate_state(np.diag([0.0, 1.0]))
MIXED = validate_state(np.eye(2) / 2)
UNIFORM = Prior.uniform()


def z_pvm():
    return validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


def outcome_moments(effect, prior, rho1, rho2):
    """Posterior moments of one effect ``E``: the first outcome of the POVM ``[E, I - E]``."""
    return q_functional([effect, np.eye(len(effect)) - effect], prior, rho1, rho2).per_outcome[0]


class TestPriors:
    def test_uniform_moments(self):
        p = Prior.uniform()
        assert (p.mean, p.second_moment, p.third_moment) == (0.5, 1 / 3, 0.25)
        assert p.variance == pytest.approx(1 / 12)

    def test_point_mass(self):
        p = Prior.point_mass(0.3)
        assert p.second_moment == pytest.approx(0.09)
        assert p.sample_from_uniform(np.random.default_rng(0).random(5)) == pytest.approx([0.3] * 5)

    def test_point_mass_rejects_zero(self):
        with pytest.raises(BadParameter):
            Prior.point_mass(0.0)

    def test_point_mass_refuses_an_underflowed_second_moment(self):
        # lam**2 and mean * mean both underflow to 0 below about 1.5e-154
        with pytest.raises(BadParameter, match="0 < mean"):
            Prior.point_mass(1e-170)
        p = Prior.point_mass(1e-150)
        assert p.second_moment == pytest.approx(1e-300, rel=1e-12)
        assert q_functional([np.eye(2)], p, Z0, Z1).q_value == pytest.approx(1e-300, rel=1e-12)

    def test_truncated_reciprocal_ln2(self):
        p = Prior.truncated_reciprocal(math.log(2))
        assert p.mean == pytest.approx(1 / (2 * math.log(2)), abs=1e-14)
        assert p.second_moment == pytest.approx(3 / (8 * math.log(2)), abs=1e-14)
        assert p.support == pytest.approx((0.5, 1.0))
        # w = second moment / mean
        assert p.second_moment / p.mean == pytest.approx(0.75, abs=1e-14)

    def test_truncated_reciprocal_median(self):
        p = Prior.truncated_reciprocal(math.log(2))
        assert p.sample_from_uniform(0.5) == pytest.approx(2 ** (-0.5), abs=1e-15)

    @pytest.mark.parametrize("t_bmax", [0.1, math.log(2), 1.0, 3.0])
    def test_truncated_reciprocal_moments_match_quadrature(self, t_bmax):
        p = Prior.truncated_reciprocal(t_bmax)
        lo, hi = p.support
        for n, closed in ((0, 1.0), (1, p.mean), (2, p.second_moment), (3, p.third_moment)):
            numeric, _ = quad(lambda x, n=n: x**n / (x * t_bmax), lo, hi, epsabs=1e-13, epsrel=1e-13)
            assert closed == pytest.approx(numeric, abs=1e-9)

    def test_truncated_reciprocal_small_parameter_limit(self):
        p = Prior.truncated_reciprocal(1e-8)
        assert p.mean == pytest.approx(1.0, abs=1e-7)
        assert p.second_moment == pytest.approx(1.0, abs=1e-7)

    def test_nonpositive_parameter(self):
        with pytest.raises(BadParameter):
            Prior.truncated_reciprocal(0.0)

    def test_moment_ordering_invariants(self):
        for p in (
            Prior.uniform(),
            Prior.point_mass(0.4),
            Prior.truncated_reciprocal(2.0),
            Prior.from_table([0.0, 0.5, 1.0], [0.2, 1.0, 0.4]),
        ):
            assert p.mean**2 <= p.second_moment + 1e-12
            assert p.second_moment <= p.mean + 1e-12

    def test_table_moments_match_quadrature(self):
        lams = np.linspace(0.1, 0.9, 9)
        dens = 1.0 + np.sin(3 * lams)
        p = Prior.from_table(lams, dens)
        for n, closed in ((1, p.mean), (2, p.second_moment), (3, p.third_moment)):
            numeric, _ = quad(lambda x, n=n: x**n * p.density(x), 0.1, 0.9, epsabs=1e-12, limit=200)
            assert closed == pytest.approx(numeric, abs=1e-9)

    @pytest.mark.parametrize("lams, dens", [
        ([0.999999, 1.0], [0.0, 1.0]),  # one short segment far from zero
        ([0.2, 0.7, 0.7000001, 1.0], [1.0, 2.0, 0.5, 0.0]),
        ([0.0, 0.3, 1.0], [0.5, 1.5, 0.2]),
        (np.linspace(0.1, 0.9, 9), 1.0 + np.sin(3 * np.linspace(0.1, 0.9, 9))),
    ])
    def test_table_moments_match_exact_rationals(self, lams, dens):
        x = [Fraction(float(v)) for v in lams]
        f = [Fraction(float(v)) for v in dens]

        def moment(n):  # exact integral of lam^n f(lam), segment by segment
            total = Fraction(0)
            for x0, x1, f0, f1 in zip(x, x[1:], f, f[1:]):
                slope = (f1 - f0) / (x1 - x0)
                a = f0 - slope * x0
                total += a * (x1 ** (n + 1) - x0 ** (n + 1)) / (n + 1)
                total += slope * (x1 ** (n + 2) - x0 ** (n + 2)) / (n + 2)
            return total

        p = Prior.from_table(lams, dens)
        for n, got in ((1, p.mean), (2, p.second_moment), (3, p.third_moment)):
            exact = moment(n) / moment(0)
            assert abs(Fraction(got) - exact) <= Fraction(1, 10**15) * exact

    def test_moments_beyond_rounding_rejected(self):
        with pytest.raises(BadParameter):
            Prior("uniform", 0.5, 0.5 + 1e-9, 0.5, (0.0, 1.0))  # second moment above the mean
        with pytest.raises(BadParameter):
            Prior("uniform", 1.0 + 1e-9, 1.0, 1.0, (0.0, 1.0))  # mean above one

    def test_moments_at_their_bounds_accepted(self):
        for t in np.geomspace(1e-300, 800.0, 601):
            p = Prior.truncated_reciprocal(float(t))
            assert p.second_moment / p.mean <= 1.0 + 1e-15
        Prior.point_mass(1.0)
        Prior.from_table([0.999999, 1.0], [0.0, 1.0])
        Prior.from_table([1.0 - 1e-12, 1.0], [1.0, 1.0])

    def test_table_sampler_inverse_cdf(self, rng):
        p = Prior.from_table([0.0, 0.5, 1.0], [0.2, 1.0, 0.4])
        u = np.sort(rng.random(1000))
        draws = p.sample_from_uniform(u)
        assert np.all(np.diff(draws) >= 0)
        assert draws.min() >= 0.0 and draws.max() <= 1.0
        # empirical CDF of a fine inverse-transform grid matches the density
        mid = p.sample_from_uniform(0.5)
        total, _ = quad(lambda x: p.density(x), 0.0, mid, epsabs=1e-12)
        assert total == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("u", [1e-3, 1e-5, 1e-7])
    def test_table_draw_near_segment_start_is_exact(self, u):
        # a root written as (sqrt(f0^2 + 2 slope rem) - f0) / slope cancels
        # here; the reference is that same root at 60 digits
        lams, dens = [0.0, 0.3, 1.0], [0.5, 1.5, 0.2]
        draw = Prior.from_table(lams, dens).sample_from_uniform(u)
        with localcontext() as ctx:
            ctx.prec = 60
            x, f = [Decimal(v) for v in lams], [Decimal(v) for v in dens]
            total = sum((x[i + 1] - x[i]) * (f[i] + f[i + 1]) / 2 for i in range(2))
            slope = (f[1] - f[0]) / (x[1] - x[0])
            exact = ((f[0] ** 2 + 2 * slope * Decimal(u) * total).sqrt() - f[0]) / slope
            assert abs(Decimal(draw) - exact) / exact < Decimal("1e-15")

    def test_table_draw_at_zero_density_start(self):
        # the first segment has zero mass; u = 0 lands on the start of the
        # second, where f0 = 0 and rem = 0
        p = Prior.from_table([0.0, 0.5, 1.0], [0.0, 0.0, 2.0])
        assert p.sample_from_uniform(0.0) == 0.5

    def test_table_rejects_bad_input(self):
        with pytest.raises(BadParameter):
            Prior.from_table([0.0, 1.0], [-1.0, 1.0])
        with pytest.raises(BadParameter):
            Prior.from_table([0.5, 0.2], [1.0, 1.0])

    @pytest.mark.parametrize("mean", [0.0, -0.1, math.nan])
    @pytest.mark.parametrize(
        "prior",
        [
            Prior.uniform(),
            Prior.point_mass(0.3),
            Prior.truncated_reciprocal(1.5),
            Prior.from_table([0.0, 0.3, 1.0], [0.5, 1.5, 0.2]),
        ],
        ids=lambda p: p.kind,
    )
    def test_no_prior_has_a_nonpositive_mean(self, prior, mean):
        # every constructor, dataclasses.replace included, runs __post_init__,
        # so no scoring function needs its own check of the mean
        with pytest.raises(BadParameter):
            dataclasses.replace(prior, mean=mean)


class TestEffectiveStates:
    def test_uniform_weights(self):
        rho_a, rho_b = effective_states(UNIFORM, Z0, Z1)
        assert rho_a.matrix == pytest.approx(np.diag([2 / 3, 1 / 3]))
        assert rho_b.matrix == pytest.approx(np.diag([0.5, 0.5]))

    def test_point_mass_collapses(self):
        p = Prior.point_mass(0.3)
        rho_a, rho_b = effective_states(p, Z0, Z1)
        target = 0.3 * Z0.matrix + 0.7 * Z1.matrix
        assert rho_a.matrix == pytest.approx(target)
        assert rho_b.matrix == pytest.approx(target)

    def test_reciprocal_ln2_weights(self):
        p = Prior.truncated_reciprocal(math.log(2))
        rho_a, _ = effective_states(p, Z0, Z1)
        assert rho_a.matrix[0, 0].real == pytest.approx(0.75, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            effective_states(UNIFORM, Z0, validate_state(np.eye(3) / 3))


class TestPosteriorMoments:
    def test_identity_effect_returns_prior(self):
        m = outcome_moments(np.eye(2), UNIFORM, Z0, Z1)
        assert m.prob == pytest.approx(1.0)
        assert m.estimate == pytest.approx(0.5)
        assert m.variance == pytest.approx(1 / 12)

    def test_orthogonal_pure_outcomes(self):
        up = outcome_moments(Z0.matrix, UNIFORM, Z0, Z1)
        assert up.prob == pytest.approx(0.5)
        assert up.estimate == pytest.approx(2 / 3)
        assert up.variance == pytest.approx(1 / 18)
        down = outcome_moments(Z1.matrix, UNIFORM, Z0, Z1)
        assert down.estimate == pytest.approx(1 / 3)

    def test_never_occurs_marker(self):
        m = outcome_moments(Z1.matrix, UNIFORM, Z0, Z0)
        assert m.never_occurs
        assert m.estimate == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "prior",
        [
            Prior.uniform(),
            Prior.truncated_reciprocal(math.log(2)),
            Prior.truncated_reciprocal(3.0),
            Prior.from_table([0.0, 0.3, 1.0], [0.5, 1.5, 0.2]),
        ],
    )
    def test_matches_quadrature(self, prior, rng):
        rho1 = random_density(rng, 2)
        rho2 = random_density(rng, 2)
        povm = random_povm(rng, 2, 3)
        lo, hi = prior.support
        for effect in povm:
            t1 = float(np.trace(effect.matrix @ rho1.matrix).real)
            t2 = float(np.trace(effect.matrix @ rho2.matrix).real)
            like = lambda lam: (lam * t1 + (1 - lam) * t2) * prior.density(lam)
            prob, _ = quad(like, lo, hi, epsabs=1e-12)
            first, _ = quad(lambda lam: lam * like(lam), lo, hi, epsabs=1e-12)
            second, _ = quad(lambda lam: lam * lam * like(lam), lo, hi, epsabs=1e-12)
            m = outcome_moments(effect.matrix, prior, rho1, rho2)
            assert m.prob == pytest.approx(prob, abs=1e-6)
            assert m.estimate == pytest.approx(first / prob, abs=1e-6)
            assert m.second == pytest.approx(second / prob, abs=1e-6)
            assert lo - 1e-9 <= m.estimate <= hi + 1e-9


class TestQFunctional:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            q_functional(z_pvm(), UNIFORM, Z0, validate_state(np.eye(3) / 3))

    def test_identical_states_no_information(self, rng):
        povm = random_povm(rng, 2, 3)
        score = q_functional(povm, UNIFORM, MIXED, MIXED)
        assert score.q_value == pytest.approx(0.25, abs=1e-12)
        assert score.mean_variance == pytest.approx(1 / 12, abs=1e-12)

    def test_trivial_povm(self):
        score = q_functional([np.eye(2)], UNIFORM, Z0, Z1)
        assert score.q_value == pytest.approx(0.25, abs=1e-14)
        assert score.mean_variance == pytest.approx(1 / 12, abs=1e-14)

    def test_orthogonal_pure_z_pvm(self):
        score = q_functional(z_pvm(), UNIFORM, Z0, Z1)
        assert score.q_value == pytest.approx(5 / 18, abs=1e-14)
        assert score.mean_variance == pytest.approx(1 / 18, abs=1e-14)

    def test_uniform_complementarity(self, rng):
        for _ in range(100):
            rho1 = random_density(rng, 2)
            rho2 = random_density(rng, 2)
            score = q_functional(random_povm(rng, 2, 4), UNIFORM, rho1, rho2)
            assert score.q_value + score.mean_variance == pytest.approx(1 / 3, abs=1e-10)

    @pytest.mark.parametrize(
        "prior", [Prior.uniform(), Prior.truncated_reciprocal(1.5)]
    )
    def test_probabilities_and_total_expectation(self, prior, rng):
        for _ in range(25):
            rho1 = random_density(rng, 2)
            rho2 = random_density(rng, 2)
            score = q_functional(random_povm(rng, 2, 4), prior, rho1, rho2)
            probs = [o.prob for o in score.per_outcome]
            assert sum(probs) == pytest.approx(1.0, abs=1e-9)
            total = sum(o.prob * o.estimate for o in score.per_outcome)
            assert total == pytest.approx(prior.mean, abs=1e-9)

    def test_splitting_inequality(self, rng):
        # a random positive split E = A + B never lowers the score term
        for _ in range(200):
            rho1 = random_density(rng, 2)
            rho2 = random_density(rng, 2)
            rho_a, rho_b = effective_states(UNIFORM, rho1, rho2)
            effect = random_density(rng, 2).matrix * rng.uniform(0.2, 1.0)
            evals, vecs = np.linalg.eigh(effect)
            sqrt_e = vecs @ np.diag(np.sqrt(np.clip(evals, 0, None))) @ vecs.conj().T
            k = rng.random(2)
            kmat = vecs @ np.diag(k) @ vecs.conj().T
            part_a = sqrt_e @ kmat @ sqrt_e
            part_b = effect - part_a

            def term(e):
                num = float(np.trace(e @ rho_a.matrix).real)
                den = float(np.trace(e @ rho_b.matrix).real)
                return 0.0 if den < 1e-14 else 0.25 * num * num / den

            assert term(part_a) + term(part_b) >= term(effect) - 1e-12

    def test_convexity_over_povms(self, rng):
        for _ in range(100):
            rho1 = random_density(rng, 2)
            rho2 = random_density(rng, 2)
            povm1 = random_povm(rng, 2, 4)
            povm2 = random_povm(rng, 2, 4)
            weight = rng.random()
            mixed = [
                weight * a.matrix + (1 - weight) * b.matrix
                for a, b in zip(povm1, povm2)
            ]
            q_mix = q_functional(mixed, UNIFORM, rho1, rho2).q_value
            q1 = q_functional(povm1, UNIFORM, rho1, rho2).q_value
            q2 = q_functional(povm2, UNIFORM, rho1, rho2).q_value
            assert q_mix <= weight * q1 + (1 - weight) * q2 + 1e-12


class TestPermutationForm:
    def test_identical_states(self, rng):
        povm = random_povm(rng, 2, 3)
        assert q_permutation_form(povm, UNIFORM, MIXED, MIXED) == pytest.approx(0.25, abs=1e-14)

    def test_orthogonal_pure(self):
        assert q_permutation_form(z_pvm(), UNIFORM, Z0, Z1) == pytest.approx(5 / 18, abs=1e-14)

    def test_swap_invariance_and_agreement(self, rng):
        for _ in range(50):
            rho1 = random_density(rng, 2)
            rho2 = random_density(rng, 2)
            povm = random_povm(rng, 2, 4)
            forward = q_permutation_form(povm, UNIFORM, rho1, rho2)
            backward = q_permutation_form(povm, UNIFORM, rho2, rho1)
            assert forward == pytest.approx(backward, abs=1e-12)
            assert forward == pytest.approx(
                q_functional(povm, UNIFORM, rho1, rho2).q_value, abs=1e-12
            )

    def test_rejects_non_uniform(self):
        with pytest.raises(NonUniformPrior):
            q_permutation_form(z_pvm(), Prior.truncated_reciprocal(1.0), Z0, Z1)


# --- stacked traces against the per-effect formulas they replaced -----------


def _reference_moments(effect, prior, rho_a, rho_b, rho_c, policy=DEFAULT_POLICY):
    """The per-effect loop body: three ``np.trace(E @ rho)`` calls."""
    prob = float(np.trace(effect.matrix @ rho_b).real)
    if prob < policy.zero_prob:
        return PosteriorMoments(max(prob, 0.0), prior.mean, prior.second_moment, prior.variance, True)
    estimate = prior.mean * float(np.trace(effect.matrix @ rho_a).real) / prob
    second = prior.second_moment * float(np.trace(effect.matrix @ rho_c).real) / prob
    variance = second - estimate * estimate
    return PosteriorMoments(prob, estimate, second, max(variance, 0.0))


def _reference_score(povm, prior, rho1, rho2):
    w = prior.second_moment / prior.mean
    wc = prior.third_moment / prior.second_moment
    rho_a = w * rho1.matrix + (1.0 - w) * rho2.matrix
    rho_b = prior.mean * rho1.matrix + (1.0 - prior.mean) * rho2.matrix
    rho_c = wc * rho1.matrix + (1.0 - wc) * rho2.matrix
    per = [_reference_moments(e, prior, rho_a, rho_b, rho_c) for e in povm]
    q = sum(o.prob * o.estimate**2 for o in per if not o.never_occurs)
    return q, per


def _reference_permutation_form(povm, rho1, rho2):
    diff = rho1.matrix - rho2.matrix
    tot = rho1.matrix + rho2.matrix
    acc = 0.0
    for e in povm:
        den = float(np.trace(e.matrix @ tot).real)
        if den < 2.0 * DEFAULT_POLICY.zero_prob:
            continue
        num = float(np.trace(e.matrix @ diff).real)
        acc += num * num / (18.0 * den)
    return 0.25 * (1.0 + acc)


def _bits(x) -> str:
    """Exact bit pattern of a float, sign of zero included."""
    return float(x).hex()


def _moment_bits(o):
    return (_bits(o.prob), _bits(o.estimate), _bits(o.second), _bits(o.variance), o.never_occurs)


GOLDEN_PRIORS = [
    Prior.uniform(),
    Prior.truncated_reciprocal(math.log(2)),
    Prior.truncated_reciprocal(3.0),
    Prior.from_table([0.0, 0.3, 1.0], [0.5, 1.5, 0.2]),
]


def _golden_problems(rng):
    """Random problems at d = 2..6, then axis-aligned, real and diagonal ones with exact zeros."""
    for dim in (2, 3, 4, 6):
        for _ in range(6):
            yield random_density(rng, dim), random_density(rng, dim), random_povm(rng, dim, int(rng.integers(2, 6)))
    x_pvm = validate_povm([[[0.5, 0.5], [0.5, 0.5]], [[0.5, -0.5], [-0.5, 0.5]]])
    y_pvm = validate_povm([[[0.5, -0.5j], [0.5j, 0.5]], [[0.5, 0.5j], [-0.5j, 0.5]]])
    for pvm in (z_pvm(), x_pvm, y_pvm, validate_povm([np.eye(2)])):
        for rho1, rho2 in ((Z0, Z1), (Z0, Z0), (Z0, MIXED), (validate_state(np.diag([0.7, 0.3])), Z1)):
            yield rho1, rho2, pvm
    diag3 = validate_povm([np.diag(row) for row in np.eye(3)])
    yield validate_state(np.diag([0.5, 0.5, 0.0])), validate_state(np.diag([0.0, 0.0, 1.0])), diag3
    real = validate_state(np.array([[0.5, 0.25, 0.0], [0.25, 0.3, 0.0], [0.0, 0.0, 0.2]]))
    yield real, validate_state(np.eye(3) / 3), diag3


class TestStackedTracesMatchPerEffectFormulas:
    @pytest.mark.parametrize("prior", GOLDEN_PRIORS)
    def test_q_functional_bit_for_bit(self, prior, rng):
        for rho1, rho2, povm in _golden_problems(rng):
            score = q_functional(povm, prior, rho1, rho2)
            q, per = _reference_score(povm, prior, rho1, rho2)
            assert _bits(score.q_value) == _bits(q)
            assert _bits(score.mean_variance) == _bits(prior.second_moment - q)
            assert [_moment_bits(o) for o in score.per_outcome] == [_moment_bits(o) for o in per]

    def test_permutation_form_bit_for_bit(self, rng):
        for rho1, rho2, povm in _golden_problems(rng):
            got = q_permutation_form(povm, UNIFORM, rho1, rho2)
            assert _bits(got) == _bits(_reference_permutation_form(povm, rho1, rho2))

    def test_effective_states_bit_for_bit(self, rng):
        for rho1, rho2, _ in _golden_problems(rng):
            for prior in GOLDEN_PRIORS:
                rho_a, rho_b = effective_states(prior, rho1, rho2)
                w = prior.second_moment / prior.mean
                ref_a = validate_state(w * rho1.matrix + (1.0 - w) * rho2.matrix)
                ref_b = validate_state(prior.mean * rho1.matrix + (1.0 - prior.mean) * rho2.matrix)
                assert rho_a.matrix.tobytes() == ref_a.matrix.tobytes()
                assert rho_b.matrix.tobytes() == ref_b.matrix.tobytes()


ULPS = 16 * np.finfo(float).eps


@st.composite
def edge_state_pair(draw):
    """Two d x d matrices pushed toward every tolerance edge of ``validate_state``.

    Eigenvalues down to ``-psd_tol``, trace off one by up to ``trace_tol`` and
    an anti-Hermitian part up to ``herm_tol`` entrywise, each scaled by a
    drawn fraction, so some pairs sit at an edge and some inside it.
    """
    d = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tol = DEFAULT_POLICY
    out = []
    for _ in range(2):
        rank = draw(st.integers(1, d))
        neg, tr, herm = (draw(st.sampled_from([0.0, 0.5, 0.999, 1.0])) for _ in range(3))
        eigs = np.zeros(d)
        eigs[:rank] = rng.dirichlet(np.ones(rank))
        eigs[rank:] = -neg * tol.psd_tol
        eigs *= (1.0 + tr * tol.trace_tol) / eigs.sum()
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        m = (q * eigs) @ q.conj().T
        skew = rng.uniform(-1, 1, size=(d, d)) + 1j * rng.uniform(-1, 1, size=(d, d))
        skew = skew - skew.conj().T  # anti-Hermitian, entries up to 2 sqrt(2)
        out.append(m / 2 + m.conj().T / 2 + herm * tol.herm_tol * skew / (2 * np.abs(skew).max()))
    return out


def _edge_prior(kind, x):
    if kind == "uniform":
        return Prior.uniform()
    if kind == "trunc_reciprocal":
        return Prior.truncated_reciprocal(0.01 + 20 * x)
    return Prior.from_table([0.0, x / 2, 1.0], [1.0 - x, 2.0, x])


def _deviations(m):
    """(max |m - m^H|, |tr m - 1|, smallest eigenvalue of the Hermitian part) of one matrix."""
    herm = np.abs(m - m.conj().T).max()
    eig = np.linalg.eigvalsh(m / 2 + m.conj().T / 2)[0]
    return herm, abs(np.trace(m) - 1.0), eig


class TestEffectiveStatesNeedNoRecheck:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(edge_state_pair(), st.sampled_from(["uniform", "trunc_reciprocal", "table"]), st.floats(0.0, 1.0))
    def test_mixtures_stay_inside_the_inputs_bounds(self, pair, kind, x):
        try:
            rho1, rho2 = validate_states(pair)
        except ValidationError:  # the drawn pair crossed an edge: not an input of this property
            assume(False)
        prior = _edge_prior(kind, x)
        herm_in, tr_in, eig_in = zip(*map(_deviations, pair))
        for rho in effective_states(prior, rho1, rho2):
            assert isinstance(rho, DensityMatrix) and not rho.matrix.flags.writeable
            herm, tr, eig = _deviations(rho.matrix)
            assert herm <= max(herm_in) + ULPS
            assert tr <= max(tr_in) + ULPS
            assert eig >= min(eig_in) - ULPS
