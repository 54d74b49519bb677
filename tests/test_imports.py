import ast
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
    removed += ("NonPositiveParameter", "WrongShape")
    modules = _library_modules()
    for name in removed:
        assert not any(hasattr(module, name) for module in modules), name
    gone = {
        mixest.EstimationReport: ("prior", "mean_variance", "degenerate"),
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


def _bound_names(node):
    """The names an import statement binds, except ``from __future__``."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def _used_names(tree):
    """Every name the module reads: in code, in quoted annotations and in ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    quoted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            quoted.append(node.annotation)
        elif isinstance(node, ast.FunctionDef) and node.returns is not None:
            quoted.append(node.returns)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    for annotation in quoted:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return used


def test_no_module_imports_a_name_it_never_uses():
    # no linter runs on this tree, so this scan stands in for pyflakes' unused-import rule;
    # a package's re-exports count as used when they are listed in its __all__
    unused = []
    for path in sorted((SRC / "mixest").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}: {name}" for name in _bound_names(node) if name not in used]
    assert unused == []


def _raised_names(tree):
    """The names of the exception classes that a module's ``raise`` statements raise."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_error_class_is_raised_or_a_base_of_one_that_is():
    # an exception class whose raise is gone is dead API: delete it with its raise
    errors = ast.parse((SRC / "mixest" / "errors.py").read_text(encoding="utf-8"))
    bases = {
        node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
        for node in errors.body
        if isinstance(node, ast.ClassDef)
    }
    live = set()
    for path in (SRC / "mixest").glob("*.py"):
        live |= _raised_names(ast.parse(path.read_text(encoding="utf-8"))) & set(bases)
    frontier = set(live)
    while frontier:
        frontier = set().union(*(bases[name] for name in frontier)) & set(bases) - live
        live |= frontier
    assert sorted(set(bases) - live) == []


def test_every_raise_is_an_estimation_error():
    # a caller catches every fault of the package with EstimationError, so every raise names a class of errors.py
    errors = ast.parse((SRC / "mixest" / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    foreign = []
    for path in sorted((SRC / "mixest").glob("*.py")):
        names = _raised_names(ast.parse(path.read_text(encoding="utf-8")))
        foreign += [f"{path.name}: {name}" for name in sorted(names - classes)]
    assert foreign == []


# The float literals below 1e-3 that stay outside NumericPolicy, per module, as the README's
# "Numerical policy" paragraph names them.  A new one fails here until it is named there or
# moved into NumericPolicy.
NAMED_LITERALS = {
    "bayes.py": [1e-12] * 4,  # the prior support's +-1e-12 (Prior and the table grid)
    "highdim.py": [1e-10, 1e-10, 1e-9, 1e-6],  # pure-state-against-noise test; plane and Gell-Mann completion
    "qubit.py": [1e-9],  # the qubit frame
    "simulate.py": [1e-12],  # ppt_threshold's product-state cut-off
    "selftest.py": [1e-12, 1e-12, 1e-12, 1e-9, 1e-8],  # the bounds of selftest's checks
}


def test_every_small_float_literal_is_a_named_tolerance():
    found = {}
    for path in sorted((SRC / "mixest").glob("*.py")):
        if path.name == "policy.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        small = [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and type(n.value) is float]
        small = sorted(x for x in small if 0.0 < abs(x) < 1e-3)
        if small:
            found[path.name] = small
    assert found == {name: sorted(values) for name, values in NAMED_LITERALS.items()}
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    policy = readme.split("## Numerical policy")[1].split("\n## ")[0]
    for name, values in NAMED_LITERALS.items():
        spelled = {f"{x:.0e}".replace("e-0", "e-") for x in values}
        assert all(text in policy for text in spelled), (name, spelled)
