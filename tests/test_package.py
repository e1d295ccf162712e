"""The package namespace: errors and version only, and no numeric imports."""

import json
import os
import subprocess
import sys

import atomlaser

ERRORS = ("ConfigError", "DomainError", "GeneratorError", "GridError",
          "NumericalFailure", "ParameterError")


def test_bare_import_loads_no_numpy_or_scipy():
    code = ("import json, sys, atomlaser; "
            "print(json.dumps({'loaded': sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('numpy', 'scipy')), "
            "'public': sorted(n for n in vars(atomlaser) if not n.startswith('_')), "
            "'version': atomlaser.__version__}))")
    src = os.path.dirname(os.path.dirname(atomlaser.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    seen = json.loads(out)
    assert seen["loaded"] == []
    assert seen["public"] == sorted(ERRORS + ("errors",))
    assert seen["version"] == atomlaser.__version__ == "0.1.0"
    for name in ERRORS:
        assert issubclass(getattr(atomlaser, name), Exception)
