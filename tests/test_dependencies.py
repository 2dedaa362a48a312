"""The package's runtime needs numpy only; scipy serves the tests as an
independent reference and must not be pulled in by importing the package.
The top-level names are exactly the modules' own ``__all__`` lists."""

import os
import subprocess
import sys

import multidescent
from multidescent import activations, config, formatting, risk, simulator, sweep


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(multidescent.__file__)))
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import multidescent; "
        "print(multidescent.__file__); "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, src],
        capture_output=True, text=True, timeout=60, check=True,
    )
    path, loaded = proc.stdout.splitlines()
    assert os.path.samefile(path, multidescent.__file__)
    assert loaded == "[]"


def test_public_names_are_the_module_lists():
    modules = (activations, risk, simulator, sweep, config, formatting)
    assert multidescent.__all__ == ["__version__"] + [n for m in modules for n in m.__all__]
    assert len(set(multidescent.__all__)) == len(multidescent.__all__)
    for name in multidescent.__all__:
        assert hasattr(multidescent, name), name
    for module in modules:
        for name in module.__all__:
            assert getattr(multidescent, name) is getattr(module, name)
