"""End-to-end checks of the scenario runner: config parsing, CSV/sidecar
output, overrides, exit codes, and determinism."""

import json
import os
import subprocess
import sys
import time
import warnings
from dataclasses import fields

import numpy as np
import pytest

from atomlaser import ConfigError, NumericalFailure, cli, cw
from atomlaser.cli import (BUILTIN_SCENARIOS, FLOAT_FORMAT, _cw_columns, _write_csv, main,
                           parse_scenario)
from atomlaser.quad import shared_points_difference

from conftest import cw_params, evolve_here, trap

GAMMA_M_5E4 = 92.62263163409446

TRAP_5E4 = """\
[trap]
M = 2e-26
omega0 = 772.8317927830892
sigma_k = 1e6
Gamma = 5e4
"""

TINY_PULSED = TRAP_5E4 + """\
[scenario]
name = tinyp
mode = pulsed_tcl
tcl_order = 2
rates = true

[grid]
t_max = 2e-4
n_steps = 20
"""

TINY_CW = TRAP_5E4 + """\
[scenario]
name = tiny
mode = cw

[grid]
t_max_gamma = 0.05
n_steps = 40

[cw]
kappa1_gamma = 10
Omega_gamma = 1
N = 0.5
n0_max = 20
n1_max = 10
orders = markov,2
"""


def _read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


def _read_meta(csv_path):
    with open(csv_path + ".meta.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def fig2_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2")
    rc = main(["run", "fig2", "--out", str(out)])
    assert rc == 0
    return out


def test_fig2_csv_contents(fig2_out):
    path = os.path.join(fig2_out, "fig2.csv")
    assert os.path.exists(path)
    data = _read_csv(path)
    assert data.dtype.names == ("t_seconds", "gammaM_t", "n_exact", "n_markov",
                                "n_tcl2", "n_tcl4")
    assert data.shape[0] == 4001
    # the row at gamma_M t = 2 carries the textbook e^-2 level
    assert data["gammaM_t"][2000] == pytest.approx(2.0, rel=1e-12)
    assert data["n_markov"][2000] == pytest.approx(np.exp(-2.0), rel=1e-9)
    assert data["n_exact"][0] == 1.0
    # at this coupling the order-4 resummation shadows the exact curve
    assert np.abs(data["n_tcl4"] - data["n_exact"]).max() < 0.02
    assert np.abs(data["n_tcl2"] - data["n_exact"]).max() < 0.2


def test_fig2_sidecar(fig2_out):
    path = os.path.join(fig2_out, "fig2.csv")
    meta = _read_meta(path)
    data = _read_csv(path)
    assert meta["csv"] == "fig2.csv"
    assert tuple(meta["columns"]) == data.dtype.names
    assert meta["grid"]["n_steps"] == 4000
    assert meta["derived"]["gamma_M"] == pytest.approx(GAMMA_M_5E4, rel=1e-12)
    assert meta["trap"]["Gamma"] == 5e4
    assert meta["pulsed"]["tcl_order"] == 4
    est = meta["refinement"]["estimates"]
    assert set(est) == set(meta["columns"])
    # halving the step moves every occupation column by far less than 1e-3
    for col in ("n_exact", "n_tcl2", "n_tcl4"):
        assert 0.0 <= est[col] < 1e-3


@pytest.mark.parametrize("fig, breakdown", [("fig2", None), ("fig3", None),
                                            ("fig4", 2785), ("fig5", None)])
def test_pulsed_sidecar_diagnostics(tmp_path, fig, breakdown):
    assert main(["run", fig, "--out", str(tmp_path)]) == 0
    pulsed = _read_meta(str(tmp_path / f"{fig}.csv"))["pulsed"]
    # fig4 prints order-6 columns past the point where the series broke down
    assert pulsed["series_breakdown_index"] == breakdown
    # fig5 writes rate columns and its amplitude never falls below the cutoff
    assert pulsed["exact_rate_truncation_index"] is None


def _write_csv_per_element(path, columns):
    # the writer's former form: one %-format call per value
    names = [c[0] for c in columns]
    arrays = [np.asarray(c[1], dtype=float) for c in columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for i in range(arrays[0].size):
            fh.write(",".join(FLOAT_FORMAT % a[i] for a in arrays) + "\n")


def test_csv_writer_matches_per_element_format(tmp_path):
    special = [np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-300,
               -1e-300, -1.0, -123.456, 1.0 / 3.0, 1e300, -2.5e-11]
    rng = np.random.default_rng(7)
    # more rows than one write chunk, with the specials at the start, the end
    # and across the first chunk boundary (row 1024)
    n, k = 2500, len(special)
    first = rng.standard_normal(n)
    for lo in (0, 1024 - k // 2, n - k):
        first[lo : lo + k] = special
    second = rng.permutation(first) * 10.0 ** rng.integers(-20, 8, n)
    columns = [("a", first), ("b", second), ("c", np.arange(n))]
    _write_csv(tmp_path / "new.csv", columns)
    _write_csv_per_element(tmp_path / "old.csv", columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_zero_coupling_gives_flat_unity(tmp_path):
    cfg = tmp_path / "flat.cfg"
    cfg.write_text(TINY_PULSED.replace("Gamma = 5e4", "Gamma = 0")
                              .replace("rates = true", "rates = false")
                              .replace("name = tinyp", "name = flat"))
    rc = main(["run", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    data = _read_csv(tmp_path / "flat.csv")
    np.testing.assert_allclose(data["gammaM_t"], 0.0)
    for col in ("n_exact", "n_markov", "n_tcl2"):
        np.testing.assert_allclose(data[col], 1.0, rtol=1e-12)


def test_pulsed_rate_columns(tmp_path):
    cfg = tmp_path / "tinyp.cfg"
    cfg.write_text(TINY_PULSED)
    rc = main(["run", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    data = _read_csv(tmp_path / "tinyp.csv")
    assert "gamma_exact" in data.dtype.names
    assert "gamma2" in data.dtype.names
    assert data["gamma_exact"][0] == 0.0
    # early times: the exact rate and the order-2 rate agree to leading order
    tail = slice(10, None)
    assert np.abs(data["gamma_exact"][tail] / data["gamma2"][tail] - 1.0).max() < 0.05


def test_cw_writes_one_file_per_order(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CW)
    rc = main(["run", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    for label, order in (("markov", "markov"), ("tcl2", 2)):
        path = tmp_path / f"tiny_{label}.csv"
        assert path.exists()
        data = _read_csv(path)
        assert data.dtype.names == ("t_seconds", "mean_n0", "mean_n1",
                                    "prob_sum", "min_p", "clipped_flux")
        np.testing.assert_allclose(data["prob_sum"] + data["clipped_flux"],
                                   1.0, atol=1e-9)
        meta = _read_meta(str(path))
        assert meta["cw"]["order"] == order
        assert meta["cw"]["stepper"] == "cn"


def test_repeat_runs_are_byte_identical(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CW)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", str(cfg), "--out", str(out2)]) == 0
    for name in ("tiny_markov.csv", "tiny_markov.csv.meta.json",
                 "tiny_tcl2.csv", "tiny_tcl2.csv.meta.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_duplicate_cw_orders_exit_one(tmp_path, capsys):
    # a repeated order would run twice and write its file twice
    cfg = tmp_path / "dup.cfg"
    cfg.write_text(TINY_CW.replace("orders = markov,2", "orders = 4, markov, 4")
                          .replace("name = tiny", "name = dup"))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "config error: key 'orders'" in err and "'4'" in err
    assert not list(tmp_path.glob("*.csv"))


TINY_CW3 = TINY_CW.replace("orders = markov,2", "orders = markov,2,4")


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    # the runner forks, two calls at a time, on a host of any size
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def test_forked_rerun_matches_in_process(tmp_path, monkeypatch):
    written = {}

    def recording_write_csv(path, columns):
        written[os.path.basename(path)] = columns
        _write_csv(path, columns)

    monkeypatch.setattr(cli, "_write_csv", recording_write_csv)
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CW3)
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 0
    _assert_no_children()
    scen = parse_scenario(TINY_CW3, str(cfg))
    for order, label in (("markov", "markov"), (2, "tcl2"), (4, "tcl4")):
        coarse, _ = _cw_columns(scen, order, scen.n_steps, scen.dt)
        fine, _ = _cw_columns(scen, order, 2 * scen.n_steps, 0.5 * scen.dt)
        columns = written[f"tiny_{label}.csv"]
        assert [name for name, _ in columns] == [name for name, _ in coarse]
        for (_, vals), (_, ref) in zip(columns, coarse):
            assert np.array_equal(vals, ref)
        estimates = _read_meta(str(tmp_path / f"tiny_{label}.csv"))["refinement"]["estimates"]
        assert estimates == {name: shared_points_difference(np.asarray(f, float),
                                                             np.asarray(c, float))
                             for (name, c), (_, f) in zip(coarse, fine)}


def _fail_at(monkeypatch, bad_steps, message, stall=0.0):
    """Make cw.evolve raise NumericalFailure(message) on runs of bad_steps
    steps, and sleep stall seconds before every other run."""
    evolve = cw.evolve

    def planted(params, p0, t_max, dt):
        if round(t_max / dt) == bad_steps:
            raise NumericalFailure(message)
        time.sleep(stall)
        return evolve(params, p0, t_max, dt)

    monkeypatch.setattr(cw, "evolve", planted)


def test_rerun_failure_in_child_exits_two(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CW3)
    _fail_at(monkeypatch, 2 * parse_scenario(TINY_CW3).n_steps, "planted dt/2 failure")
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    assert "atomlaser: numerical failure: planted dt/2 failure" in capsys.readouterr().err
    _assert_no_children()
    assert not list(tmp_path.glob("*.csv"))


def test_rerun_process_dying_exits_two(tmp_path, monkeypatch, capsys, two_cpus):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CW3)
    evolve, parent, fine_steps = cw.evolve, os.getpid(), 2 * parse_scenario(TINY_CW3).n_steps

    def dying(params, p0, t_max, dt):
        if round(t_max / dt) == fine_steps:
            assert os.getpid() != parent, "the dt/2 rerun ran in the test process"
            os._exit(3)
        return evolve(params, p0, t_max, dt)

    monkeypatch.setattr(cw, "evolve", dying)
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    # the first run in serial order to die is markov's
    assert ("numerical failure: the process for the dt/2 run of order markov ended with "
            "exit status 3") in capsys.readouterr().err
    _assert_no_children()


def test_coarse_failure_stops_the_rerun(tmp_path, monkeypatch, capsys, two_cpus):
    # every other run would stall for two minutes; markov's coarse run, the
    # first in serial order, must start at once, and its failure must kill
    # the runs after it, not await them
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CW3)
    _fail_at(monkeypatch, parse_scenario(TINY_CW3).n_steps, "planted coarse failure", stall=120.0)
    t0 = time.perf_counter()
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    assert time.perf_counter() - t0 < 60.0
    assert "atomlaser: numerical failure: planted coarse failure" in capsys.readouterr().err
    _assert_no_children()


@pytest.mark.parametrize("failing, kept", [(2, ["tiny_markov.csv"]),
                                            (4, ["tiny_markov.csv", "tiny_tcl2.csv"])])
def test_failure_keeps_the_orders_before_it(tmp_path, monkeypatch, capsys, two_cpus,
                                            failing, kept):
    # as in a serial run, the orders listed before the failing one write their
    # files and none after it does. On two workers the queue still holds
    # order 4's coarse run when order 2's fails: it never starts. When order
    # 4's fails, its stalled dt/2 run, if started, is killed
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CW3)
    evolve, coarse_steps = cw.evolve, parse_scenario(TINY_CW3).n_steps

    def planted(params, p0, t_max, dt):
        steps = round(t_max / dt)
        (tmp_path / f"started_{params.order}_{steps}").touch()
        if params.order == failing and steps == coarse_steps:
            raise NumericalFailure(f"planted order-{failing} failure")
        if params.order == 4 and steps == 2 * coarse_steps:
            time.sleep(120.0)
        return evolve(params, p0, t_max, dt)

    monkeypatch.setattr(cw, "evolve", planted)
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert f"atomlaser: numerical failure: planted order-{failing} failure" in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == kept
    assert (tmp_path / f"started_4_{coarse_steps}").exists() == (failing == 4)
    _assert_no_children()


# a box too small for the pump: every run warns about clipped probability, and
# the order-2 and order-4 runs at dt and dt/2 warn with the same text
CLIPPING_CW = TINY_CW3.replace("Omega_gamma = 1", "Omega_gamma = 15").replace(
    "N = 0.5", "N = 3").replace("n0_max = 20", "n0_max = 3").replace("n1_max = 10", "n1_max = 3")


@pytest.mark.parametrize("action", ["always", "default"])
def test_forked_rerun_shows_the_serial_warnings(tmp_path, action, two_cpus):
    # under "default" a warning repeated from one code line shows once, in the
    # serial run and in the forked one alike
    def shown(run):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            run()
        return [(str(w.message), w.category, w.filename, w.lineno) for w in caught]

    scen = parse_scenario(CLIPPING_CW)

    def serial():
        for order in scen.cw_orders:
            _cw_columns(scen, order, scen.n_steps, scen.dt)
            _cw_columns(scen, order, 2 * scen.n_steps, 0.5 * scen.dt)

    cfg = tmp_path / "clip.cfg"
    cfg.write_text(CLIPPING_CW)
    expected = shown(serial)
    assert len(expected) == (6 if action == "always" else 3)
    assert all("boundary clipping lost" in msg for msg, *_ in expected)
    assert shown(lambda: main(["run", str(cfg), "--out", str(tmp_path)])) == expected
    _assert_no_children()


def test_module_run_shows_the_rerun_warnings(tmp_path):
    # under python -m the runner is __main__, and so is the module that the
    # child's warnings are raised again for
    cfg = tmp_path / "clip.cfg"
    cfg.write_text(CLIPPING_CW)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    proc = subprocess.run([sys.executable, "-m", "atomlaser.cli", "run", str(cfg),
                           "--out", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("UserWarning: boundary clipping lost") == 3


def _nap(k, seconds):
    start = time.monotonic()
    time.sleep(seconds)
    return k, os.getpid(), start, time.monotonic()


def test_runner_runs_at_most_w_calls_at_once(two_cpus):
    naps = [0.2, 0.4, 0.8, 0.2, 0.6]
    results = list(cli._run_calls([(f"nap {k}", s, _nap, (k, s)) for k, s in enumerate(naps)]))
    _assert_no_children()
    assert [k for k, *_ in results] == list(range(len(naps)))
    pids = {pid for _, pid, _, _ in results}
    assert len(pids) == len(naps) and os.getpid() not in pids
    spans = [(start, end) for *_, start, end in results]
    at_once = [sum(s <= t < e for s, e in spans) for t, _ in spans]
    assert max(at_once) == 2
    # the first call not yet in always runs; the other worker takes the
    # longest: 0 and 2 start together, 1 when 0 ends, 4 when 1 ends, 3 when 2 ends
    started = sorted(range(len(naps)), key=lambda k: spans[k][0])
    assert sorted(started[:2]) == [0, 2] and started[2:] == [1, 4, 3]


def _recorded(run):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run()
    return result, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


def test_forked_evolve_matches_in_process(two_cpus):
    # the box is too small for the pump, so every run warns about clipping;
    # through the conftest wrapper, forked and serial warnings name its line
    t = trap(5e4)
    runs = [(cw_params(t, order, n0_max=20, n1_max=10), cw.DiagonalState.vacuum(20, 10),
             0.5 / GAMMA_M_5E4, 0.5 / GAMMA_M_5E4 / 40) for order in ("markov", 2, 4)]
    calls = [(f"order {args[0].order}", 0, evolve_here, args) for args in runs]
    forked, forked_warnings = _recorded(lambda: list(cli._run_calls(calls)))
    _assert_no_children()
    refs, ref_warnings = _recorded(lambda: [evolve_here(*args) for args in runs])
    assert len(ref_warnings) == 3 and forked_warnings == ref_warnings
    assert all(w[2].endswith("conftest.py") for w in ref_warnings)
    for got, ref in zip(forked, refs):
        for f in fields(ref):
            a, b = getattr(got, f.name), getattr(ref, f.name)
            if f.name == "final_state":
                assert np.array_equal(a.p, b.p) and a.clipped == b.clipped
            else:
                assert np.array_equal(a, b), f.name


@pytest.mark.parametrize("sigma_k", ["1e200", "1e-200"])
def test_extreme_trap_values_exit_one(tmp_path, capsys, sigma_k):
    # alpha = hbar sigma_k^2 / (2 M) overflows to inf or underflows to 0
    cfg = tmp_path / "trap.cfg"
    cfg.write_text(BUILTIN_SCENARIOS["fig2"].replace("sigma_k = 1e6", f"sigma_k = {sigma_k}"))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "atomlaser: config error: sigma_k" in err and "alpha" in err
    assert "Traceback" not in err


def test_overrides_tmax_dt_order(tmp_path):
    cfg = tmp_path / "tinyp.cfg"
    cfg.write_text(TINY_PULSED)
    rc = main(["run", str(cfg), "--out", str(tmp_path),
               "--tmax", "1e-4", "--dt", "1e-5", "--order", "6"])
    assert rc == 0
    data = _read_csv(tmp_path / "tinyp.csv")
    assert data.shape[0] == 11
    assert "n_tcl6" in data.dtype.names
    assert "gamma6_cum" in data.dtype.names
    meta = _read_meta(str(tmp_path / "tinyp.csv"))
    assert meta["grid"]["n_steps"] == 10
    assert meta["grid"]["t_max"] == pytest.approx(1e-4)
    assert meta["pulsed"]["tcl_order"] == 6


def test_r_reading_override(tmp_path):
    cfg = tmp_path / "tiny4.cfg"
    cfg.write_text(TINY_CW.replace("orders = markov,2", "orders = 4")
                          .replace("name = tiny", "name = tiny4"))
    rc = main(["run", str(cfg), "--out", str(tmp_path), "--r-reading", "inner"])
    assert rc == 0
    meta = _read_meta(str(tmp_path / "tiny4_tcl4.csv"))
    assert meta["cw"]["r_reading"] == "inner"


def test_order_override_rejected_for_cw(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CW)
    rc = main(["run", str(cfg), "--out", str(tmp_path), "--order", "6"])
    assert rc == 1
    assert "--order" in capsys.readouterr().err


def test_bad_config_exits_one(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text(TINY_CW.replace("mode = cw\n", ""))
    rc = main(["run", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "config error" in err and "mode" in err


@pytest.mark.parametrize("where", ["out", "config"])
def test_unusable_path_exits_one(tmp_path, capsys, where):
    # an --out below a regular file, or a config path that is a directory
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = str(blocker / "x") if where == "out" else str(tmp_path)
    argv = ["run", "fig2", "--out", path] if where == "out" else ["run", path]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("atomlaser: file error:") and path in err
    assert "Traceback" not in err


@pytest.mark.parametrize("config, flags, name", [
    (TINY_PULSED.replace("t_max = 2e-4", "t_max = inf"), [], "key 't_max'"),
    (TINY_CW.replace("t_max_gamma = 0.05", "t_max_gamma = nan"), [], "key 't_max_gamma'"),
    (TINY_PULSED.replace("n_steps = 20", "dt = nan"), [], "key 'dt'"),
    (TINY_PULSED.replace("t_max = 2e-4", "t_max = 1e300").replace("n_steps = 20", "dt = 1e-300"),
     [], "t_max/dt"),
    (TINY_PULSED, ["--tmax", "inf"], "--tmax"),
    (TINY_PULSED, ["--dt", "nan"], "--dt"),
    (TINY_PULSED, ["--tmax", "1e300", "--dt", "1e-300"], "--tmax/--dt"),
    (TINY_PULSED, ["--dt", "0"], "--dt"),
    (TINY_PULSED.replace("n_steps = 20", "dt = -1"), [], "key 'dt'"),
], ids=["t_max", "t_max_gamma", "dt", "t_max/dt", "--tmax", "--dt", "--tmax/--dt",
        "--dt=0", "dt=-1"])
def test_non_finite_grid_exits_one(tmp_path, capsys, config, flags, name):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(config)
    rc = main(["run", str(cfg), "--out", str(tmp_path)] + flags)
    assert rc == 1
    err = capsys.readouterr().err
    assert f"atomlaser: config error: {name} must be finite" in err
    assert "Traceback" not in err


def test_unknown_target_exits_one(tmp_path, capsys):
    rc = main(["run", "fig9", "--out", str(tmp_path)])
    assert rc == 1
    assert "neither a built-in scenario" in capsys.readouterr().err


def test_numerical_failure_exits_two(tmp_path, capsys):
    # coarse implicit steps on a stiff truncated box drive probabilities
    # negative under the markov generator; the runner reports that as 2
    cfg = tmp_path / "boom.cfg"
    cfg.write_text(TRAP_5E4 + """\
[scenario]
name = boom
mode = cw

[grid]
t_max = 0.05
dt = 1e-3

[cw]
kappa1_gamma = 10
Omega_gamma = 15
N = 20.3
n0_max = 150
n1_max = 40
orders = markov
""")
    rc = main(["run", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


def test_overflowing_rates_exit_two(tmp_path, capsys):
    # kappa1 = 1e307 overflows the pump rates to inf and the generator to nan;
    # every guard must fail on nan instead of writing nan rows
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(TINY_CW.replace("kappa1_gamma = 10", "kappa1 = 1e307")
                          .replace("Omega_gamma = 1", "Omega_gamma = 15")
                          .replace("N = 0.5", "N = 20.3")
                          .replace("n0_max = 20", "n0_max = 6")
                          .replace("n1_max = 10", "n1_max = 5")
                          .replace("orders = markov,2", "orders = 2")
                          .replace("t_max_gamma = 0.05\nn_steps = 40", "t_max = 1e-4\ndt = 1e-5"))
    with np.errstate(all="ignore"):
        rc = main(["run", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("old, new, key", [
    ("Gamma = 5e4\n", "Gamma = 5e4\nhbar = 1.054571817e-34\n", "'hbar'"),
    ("mode = cw", "mode = pulsed_exact", "'mode'"),
    ("mode = cw", "mode = pulsed_markov", "'mode'"),
], ids=["hbar", "pulsed_exact", "pulsed_markov"])
def test_removed_settings_exit_one(tmp_path, capsys, old, new, key):
    # hbar is the constant model.HBAR, and pulsed_tcl writes every column the
    # two narrower pulsed modes did
    cfg = tmp_path / "old.cfg"
    cfg.write_text(TINY_CW.replace(old, new))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and key in err


@pytest.mark.parametrize("line", ["tcl_order = 2", "rates = true"], ids=["tcl_order", "rates"])
def test_pulsed_keys_rejected_for_cw(tmp_path, capsys, line):
    # cw runs take their orders from [cw] orders; a pulsed-only key would be
    # ignored without a word
    cfg = tmp_path / "cw.cfg"
    cfg.write_text(TINY_CW.replace("mode = cw\n", f"mode = cw\n{line}\n"))
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    key = line.split(" ")[0]
    assert f"config error: key '{key}' in [scenario] is only valid for mode pulsed_tcl" in err
    assert not list(tmp_path.glob("*.csv"))


def test_list_builtins(capsys):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [ln.split()[0] for ln in lines] == ["fig2", "fig3", "fig4", "fig5", "fig7"]
    for ln in lines:
        assert len(ln.split(None, 1)[1]) > 10  # carries a description


def test_list_with_config_dir(tmp_path, capsys):
    good = tmp_path / "good.cfg"
    good.write_text(TINY_CW)
    bad = tmp_path / "bad.cfg"
    bad.write_text("this is [not\nvalid ini ]]]\n")
    assert main(["list", "--configs", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "tiny" in out
    assert "[parse error" in out
    assert main(["list", "--configs", str(tmp_path / "missing")]) == 0
    assert "cannot read" in capsys.readouterr().out


def test_parse_scenario_validation():
    with pytest.raises(ConfigError, match="mode"):
        parse_scenario(TRAP_5E4 + "[scenario]\nmode = pulsed\n[grid]\nt_max = 1\ndt = 0.1\n")
    with pytest.raises(ConfigError, match="exactly one"):
        parse_scenario(TINY_PULSED + "dt = 1e-5\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_scenario(TINY_PULSED.replace("rates = true", "typo = 1"))
    with pytest.raises(ConfigError, match="t_max_gamma"):
        parse_scenario(TINY_CW.replace("Gamma = 5e4", "Gamma = 0"))
    with pytest.raises(ConfigError, match=r"\[cw\]"):
        parse_scenario(TINY_PULSED + "\n[cw]\nN = 1\n")
    with pytest.raises(ConfigError, match="rates"):
        parse_scenario(TINY_PULSED.replace("rates = true", "rates = maybe"))
    assert parse_scenario(TINY_PULSED.replace("rates = true", "rates = Off")).rates is False
    scen = parse_scenario(BUILTIN_SCENARIOS["fig7"], "fig7")
    assert scen.mode == "cw"
    assert scen.cw_orders == ("markov", 2, 4)
    assert scen.cw_N == 20.3
    assert scen.n_steps == 800
