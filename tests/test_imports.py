import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


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
