import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _library_modules():
    import mixest

    return [mixest] + [importlib.import_module(f"mixest.{m.name}") for m in pkgutil.iter_modules(mixest.__path__)]


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency; the library must not pull it in
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-c", "import mixest, sys; assert 'scipy' not in sys.modules"],
        env=env,
        check=True,
    )


def test_import_does_not_load_numpy_random():
    # the sampler runs Philox itself; numpy.random is needed only by tests
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-c", "import mixest, sys; assert 'numpy.random' not in sys.modules"],
        env=env,
        check=True,
    )


def test_no_public_function_takes_a_policy():
    # the library reads its tolerances from DEFAULT_POLICY only
    takes = set()
    for module in _library_modules():
        for name, obj in vars(module).items():
            public = not name.startswith("_") and getattr(obj, "__module__", "").startswith("mixest")
            if not (public and (inspect.isfunction(obj) or inspect.isclass(obj))):
                continue
            try:
                params = inspect.signature(obj).parameters
            except (TypeError, ValueError):  # classes without an introspectable constructor
                continue
            if "policy" in params:
                takes.add(f"{obj.__module__}.{obj.__qualname__}")
    assert takes == set()


def test_cli_does_not_import_randutil():
    # the CLI draws no random inputs; selftest does, and it loads randutil
    # only when it runs
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-c", "import mixest.cli, sys; assert 'mixest.randutil' not in sys.modules"],
        env=env,
        check=True,
    )


def test_library_does_not_import_the_test_oracle():
    # the planar reduction is a test reference, and the operator-basis layer,
    # the second entry points, the Bloch wrapper, the unreachable checks and
    # the joint diagonalisation behind the commuting route are gone; the
    # library scores with q_functional only
    import dataclasses

    import mixest
    from mixest.simulate import DecayEstimation

    for path in (SRC / "mixest").glob("*.py"):
        assert "planar_oracle" not in path.read_text(), path.name
    removed = ("PlanarPovm", "reduce_to_plane", "split_effect", "q_permutation_form")
    removed += ("OperatorBasis", "gell_mann_basis", "basis_compose", "basis_decompose")
    removed += ("posterior_moments", "validate_effect", "BlochVector", "decoherence_state")
    removed += ("ZeroMeanPrior", "RateOutOfRange")
    removed += ("common_eigenbasis", "joint_support", "_phase_fix")
    removed += ("SUBSPACE_POLICY", "_sld_report", "_commuting_outcome", "_two_dim_support_outcome")
    modules = _library_modules()
    for name in removed:
        assert not any(hasattr(module, name) for module in modules), name
    gone = {
        mixest.EstimationReport: ("prior", "mean_variance"),
        DecayEstimation: ("model",),
        mixest.DensityMatrix: ("purity",),
        mixest.Prior: ("sample",),
        mixest.NumericPolicy: ("diag_tol",),
    }
    for cls, attrs in gone.items():
        fields = {f.name for f in dataclasses.fields(cls)}
        for attr in attrs:
            assert not hasattr(cls, attr) and attr not in fields, f"{cls.__name__}.{attr}"


def test_public_surface_is_pinned():
    # a new public name is a decision: list it here and in mixest.__all__
    import mixest

    assert sorted(mixest.__all__) == [
        "AngleSolution", "DEFAULT_POLICY", "DecoherenceModel", "DensityMatrix", "Effect",
        "EstimationError", "EstimationReport", "MeasurementScore", "NumericPolicy", "PlanarGeometry",
        "PosteriorMoments", "Povm", "Prior", "ReductionKind", "ReductionOutcome", "SimulationSummary",
        "TrialRecord", "aligned_basis", "bloch_compose", "bloch_decompose",
        "effective_states", "embed_and_check", "entanglement_demo", "optimal_alpha", "optimal_pvm",
        "planar_geometry", "ppt_threshold", "q_functional", "run_simulation", "solve", "solve_commuting",
        "solve_decay_estimation", "solve_pure_plus_noise", "solve_two_dim_support", "support_rank",
        "validate_povm", "validate_state", "validate_states",
    ]
    public = {
        name for name, obj in vars(mixest).items()
        if not name.startswith("_") and getattr(obj, "__module__", "").startswith("mixest")
    }
    assert public <= set(mixest.__all__), public - set(mixest.__all__)


def test_embedding_takes_no_basis_and_policy_no_basis_tol():
    # embed_and_check works in its two-generator plane only
    import dataclasses

    import mixest

    assert "basis" not in inspect.signature(mixest.embed_and_check).parameters
    assert "basis_tol" not in {f.name for f in dataclasses.fields(mixest.NumericPolicy)}
