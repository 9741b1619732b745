import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import ngbayes
from ngbayes import cli, distributions, divergence, experiments, glm, numerics


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


def load_tracing():
    """The benchmark's tracer module, loaded from its file: it is not part of the package."""
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(table):
    """Every module-level binding and table entry of the package, and the traced class slots."""
    found = {(owner.__name__, attr): vars(owner)[attr]
             for owner, attr, _, _ in table if isinstance(owner, type)}
    for module in (ngbayes, numerics, distributions, divergence, glm, experiments, cli):
        for name, value in vars(module).items():
            found[module.__name__, name] = value
            if isinstance(value, dict):
                found.update(((module.__name__, name, key), entry) for key, entry in value.items())
    return found


def test_benchmark_traces_names_that_exist():
    # The benchmark's traced run wraps these names; a rename must fail here, not only there.
    tracing = load_tracing()
    table = tracing._layer_table(ngbayes)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in table
               if not callable(vars(owner).get(attr))]
    assert table and not missing
    before = bindings(table)
    tracer = tracing.Tracer()
    tracer.install(ngbayes)
    try:
        assert divergence.kl_monte_carlo is not before["ngbayes.divergence", "kl_monte_carlo"]
    finally:
        tracer.uninstall()
    after = bindings(table)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
