"""Seeded workload generator.

A workload is a plan: a list of operations, each one `atomlaser run` command
line, called in-process through `cli.main`. An operation flagged
`stationary` first computes `cw.stationary_distribution` for its config. The
package only ever sees the generated config text and the command-line
arguments; the same seed and repeat always give the same plan.

A run repeats its batch. Every repeat keeps the shape of the work (grids,
orders, boxes) and draws the physical parameters of the generated operations
afresh, so no cache inside the package can carry their results from one
repeat to the next; the built-ins fig2-fig5 are the same in every repeat.
Repeat 0 is the plan the references in reference/ were recorded from.
"""

import math
import random

# the trap every built-in uses (cli._TRAP)
M_ATOM = 2e-26
OMEGA0 = 772.8317927830892
SIGMA_K = 1e6
HBAR = 1.054571817e-34
ALPHA = HBAR * SIGMA_K**2 / (2.0 * M_ATOM)
# volterra.solve_amplitude rejects dt above this
DT_LIMIT = min(0.05 / OMEGA0, 0.05 / ALPHA)

PULSED_BUILTINS = ("fig2", "fig3", "fig4", "fig5")
# every (n_steps, order, rates) combination appears once per plan, so the
# work of a plan does not depend on the seed; the seed draws the coupling,
# the horizon and the running order
PULSED_STEPS = (2000, 3000, 4000)
PULSED_ORDERS = (2, 4, 6)
PULSED_GAMMA = (5e4, 1e6)       # fig2 ... fig4 couplings, 1/s^2
PULSED_HORIZON = (3.0, 10.0)    # t_max in units of 1/gamma_M

# fig7's cw point; each seed scales the three rates by a factor in this band
FIG7_CW = {"N": 20.3, "kappa1_gamma": 10.0, "Omega_gamma": 15.0}
CW_JITTER = 0.1
CW_GAMMA = 5e4


def gamma_markov(gamma):
    """Closed-form Markov rate of the built-in trap, to keep dt in range."""
    return gamma * math.sqrt(4.0 * math.pi / (OMEGA0 * ALPHA)) * math.exp(-OMEGA0 / ALPHA)


def _trap(gamma):
    return (f"[trap]\nM = {M_ATOM!r}\nomega0 = {OMEGA0!r}\nsigma_k = {SIGMA_K!r}\n"
            f"Gamma = {gamma!r}\n")


def _pulsed_config(name, gamma, horizon, n_steps, order, rates):
    return _trap(gamma) + (
        f"\n[scenario]\nname = {name}\ndescription = seeded pulsed variant\n"
        f"mode = pulsed_tcl\ntcl_order = {order}\nrates = {str(rates).lower()}\n"
        f"\n[grid]\nt_max_gamma = {horizon!r}\nn_steps = {n_steps}\n"
    )


def _cw_config(name, rng, orders, horizon, n_steps):
    vals = {k: v * (1.0 + rng.uniform(-CW_JITTER, CW_JITTER)) for k, v in FIG7_CW.items()}
    return _trap(CW_GAMMA) + (
        f"\n[scenario]\nname = {name}\ndescription = seeded fig7 variant\nmode = cw\n"
        f"\n[grid]\nt_max_gamma = {horizon!r}\nn_steps = {n_steps}\n"
        f"\n[cw]\nkappa1_gamma = {vals['kappa1_gamma']!r}\n"
        f"Omega_gamma = {vals['Omega_gamma']!r}\nN = {vals['N']!r}\norders = {orders}\n"
    )


def _run_op(op_id, target, csv, config=None, extra=(), stationary=False):
    out = f"out/{op_id}"
    return {"id": op_id, "config": config, "csv": csv, "stationary": stationary,
            "argv": ["run", target, "--out", out, *extra], "out": out}


def _rng(seed, rep):
    # string seeds hash with sha512, so they do not depend on PYTHONHASHSEED
    return random.Random(seed if rep == 0 else f"{seed}/{rep}")


def pulsed(seed, rep):
    rng = random.Random(seed)
    ops = [_run_op(f"op{i:02d}", name, [f"{name}.csv"])
           for i, name in enumerate(PULSED_BUILTINS)]
    combos = [(n, order, rates) for n in PULSED_STEPS for order in PULSED_ORDERS
              for rates in (False, True)]
    rng.shuffle(combos)
    if rep:
        rng = _rng(seed, rep)
    lo, hi = (math.log(g) for g in PULSED_GAMMA)
    for n_steps, order, rates in combos:
        op_id = f"op{len(ops):02d}"
        gamma = math.exp(rng.uniform(lo, hi))
        # dt = horizon / (gamma_M n_steps) stays 5% inside the march's limit
        cap = 0.95 * DT_LIMIT * gamma_markov(gamma) * n_steps
        horizon = min(rng.uniform(*PULSED_HORIZON), cap)
        config = _pulsed_config(op_id, gamma, horizon, n_steps, order, rates)
        ops.append(_run_op(op_id, f"cfg/{op_id}.ini", [f"{op_id}.csv"], config))
    return ops


def cw_tcl4(seed, rep):
    rng = _rng(seed, rep)
    # fig7's dt (8/gamma_M over 800 steps) cut to a 0.1/gamma_M horizon, so
    # that a run repeats it several times; --order 4 selects the
    # time-dependent order-4 stepper
    config = _cw_config("cwt", rng, "markov,2,4", 0.1, 10)
    return [_run_op("op00", "cfg/op00.ini", ["cwt_tcl4.csv"], config, ("--order", "4"))]


def cw_markov(seed, rep):
    rng = _rng(seed, rep)
    # --order cannot select markov, so the generated config does; one
    # operation is the stationary state plus the trajectory
    config = _cw_config("cwm", rng, "markov", 8.0, 800)
    return [_run_op("op00", "cfg/op00.ini", ["cwm_markov.csv"], config, stationary=True)]


PLANS = {"pulsed": pulsed, "cw_tcl4": cw_tcl4, "cw_markov": cw_markov}


def plan(workload, seed, rep=0):
    """Operations of repeat `rep` of the batch of `workload` for `seed`."""
    return PLANS[workload](seed, rep)
