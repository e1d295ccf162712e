"""The package namespace: errors and version only, and no numeric imports."""

import json
import os
import subprocess
import sys

import atomlaser

ERRORS = ("ConfigError", "DomainError", "GeneratorError", "GridError",
          "NumericalFailure", "ParameterError")


def _run(code, *args):
    src = os.path.dirname(os.path.dirname(atomlaser.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_bare_import_loads_no_numpy_or_scipy():
    code = ("import json, sys, atomlaser; "
            "print(json.dumps({'loaded': sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('numpy', 'scipy')), "
            "'public': sorted(n for n in vars(atomlaser) if not n.startswith('_')), "
            "'version': atomlaser.__version__}))")
    seen = _run(code)
    assert seen["loaded"] == []
    assert seen["public"] == sorted(ERRORS + ("errors",))
    assert seen["version"] == atomlaser.__version__ == "0.1.0"
    for name in ERRORS:
        assert issubclass(getattr(atomlaser, name), Exception)


def test_pulsed_cli_run_loads_no_scipy(tmp_path):
    # a pulsed run needs numpy only; scipy serves cw runs and the tests, and
    # numpy.polynomial no run at all
    code = ("import json, sys; from atomlaser import cli; "
            f"after_import = {SCIPY_LOADED}; "
            "status = cli.main(['run', 'fig2', '--tmax', '2e-3', '--out', sys.argv[1]]); "
            f"print(json.dumps([after_import, status, {SCIPY_LOADED}, "
            "'numpy.polynomial' in sys.modules]))")
    after_import, status, after_run, polynomial = _run(code, str(tmp_path))
    assert after_import == []
    assert status == 0 and (tmp_path / "fig2.csv").is_file()
    assert after_run == []
    assert not polynomial


def test_cw_import_loads_no_scipy():
    # nor concurrent.futures, the banded stepper's thread pool, whose import
    # of logging would add about 10 ms to every run's start
    code = ("import json, sys, atomlaser.cw; "
            f"print(json.dumps([{SCIPY_LOADED}, 'concurrent.futures' in sys.modules]))")
    assert _run(code) == [[], False]


def test_cw_stationary_solve_loads_no_scipy():
    # the level elimination reads its blocks from the template diagonals
    # with numpy; no sparse matrix is built, so no scipy module is loaded
    code = ("import json, sys; from atomlaser import cw, model; "
            "trap = model.TrapParams(M=2e-26, omega0=772.8317927830892, sigma_k=1e6, "
            "Gamma=5e4); gm = model.gamma_markov_closed_form(trap); "
            "state = cw.stationary_distribution(cw.CwParams(trap=trap, kappa1=10 * gm, "
            "Omega=15 * gm, N=2.0, n0_max=30, n1_max=8)); "
            f"print(json.dumps([{SCIPY_LOADED}, state.mean_n0()]))")
    loaded, mean_n0 = _run(code)
    assert loaded == []
    assert mean_n0 > 0.0
