import os
import subprocess
import sys
from pathlib import Path

import ngbayes
from ngbayes import distributions, divergence, experiments, glm, numerics


def test_package_exports_every_module_all():
    for module in (numerics, distributions, divergence, glm, experiments):
        for name in module.__all__:
            assert name in ngbayes.__all__, f"{module.__name__}.{name}"
            assert getattr(ngbayes, name) is getattr(module, name)


def test_import_leaves_numpy_random_unloaded():
    # numpy 2 loads numpy.random on first use; numpy 1.x loads it with numpy itself. Importing
    # the CLI must not be what loads it, and the simulator must still seed in a fresh process.
    code = ("import sys, numpy; before = 'numpy.random' in sys.modules; import ngbayes.cli; "
            "after = 'numpy.random' in sys.modules; "
            "from ngbayes.experiments import PolySweepConfig, simulate_polynomial; "
            "simulate_polynomial(PolySweepConfig(n_simulations=1)); print(before, after)")
    src = str(Path(ngbayes.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout.split()
    assert out[1] == out[0]
