"""Library input that is refused: one exception class per fault, all of them EstimationErrors."""

import numpy as np
import pytest

from mixest.bayes import Prior
from mixest.errors import BadParameter, EstimationError, WrongDimension
from mixest.highdim import solve_pure_plus_noise
from mixest.qubit import optimal_pvm, planar_geometry
from mixest.randutil import random_povm
from mixest.simulate import DecoherenceModel, partial_transpose
from mixest.states import bloch_compose, validate_state

QUBIT = validate_state(np.diag([1.0, 0.0]))
QUTRIT = validate_state(np.eye(3) / 3)
QUTRIT_PURE = validate_state(np.diag([1.0, 0.0, 0.0]))

# case -> (call, the class it raises, the start of its message); a number out of its range
# raises BadParameter whatever its sign, and an array of the wrong size raises WrongDimension
REJECTED_INPUT = {
    "density_of_a_point_mass": (lambda: Prior.point_mass(0.3).density(0.3), BadParameter,
                                "prior kind 'point_mass' has no density"),
    "negative_t_bmax": (lambda: Prior.truncated_reciprocal(-1.0), BadParameter, "t_bmax must be positive"),
    "negative_decay_time": (lambda: DecoherenceModel(s=0.1, t=-1.0, b_max=1.0, rho0=QUBIT), BadParameter,
                            "time and maximal rate must be positive"),
    "one_effect_random_povm": (lambda: random_povm(np.random.default_rng(0), 2, 1), BadParameter,
                               "need at least two effects"),
    "planar_geometry_of_qutrits": (lambda: planar_geometry(QUTRIT, QUTRIT_PURE), WrongDimension,
                                   "planar geometry needs qubit states"),
    "optimal_pvm_of_qutrits": (lambda: optimal_pvm(Prior.uniform(), QUTRIT_PURE, QUTRIT), WrongDimension,
                               "optimal_pvm solves qubit problems"),
    "qutrit_decay_state": (lambda: DecoherenceModel(s=0.1, t=1.0, b_max=1.0, rho0=QUTRIT), WrongDimension,
                           "decoherence model needs a qubit initial state"),
    "partial_transpose_of_a_2x2": (lambda: partial_transpose(np.eye(2)), WrongDimension,
                                   "expected a 4x4 two-qubit operator"),
    "bloch_compose_of_a_2_vector": (lambda: bloch_compose([0.1, 0.2], 0.5), WrongDimension,
                                    "expected a 3-vector"),
    "one_entry_state_vector": (lambda: solve_pure_plus_noise(Prior.uniform(), [1.0]), WrongDimension,
                               "state vector has length 1"),
}


@pytest.mark.parametrize("case", REJECTED_INPUT)
def test_refused_with_the_class_of_its_fault(case):
    call, cls, message = REJECTED_INPUT[case]
    with pytest.raises(EstimationError) as info:
        call()
    assert type(info.value) is cls
    assert str(info.value).startswith(message)
