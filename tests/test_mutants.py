"""Mutant matrix: each row plants one defect in a sampler and runs a shipped
config at its shipped size through ``harness.run``; the verifier should then
report some flag false (exit 1).

A row that no shipped flag catches yet is a strict xfail whose reason names
the ROADMAP item meant to catch it, so the row fails the suite, and its mark
must go, once that item lands.  The README's mutant table lists every row.

Two rows are covered elsewhere: equal starts (``sde.l0 = 2, 2`` and
``logvol.x0_pair = 1, 1``) are refused at ``validate``, in
``test_harness.py::test_cli_refuses_configs_a_run_cannot_run`` (ids
``equal-starts`` and ``equal-x0-pair``).  Regeneration off the small set is
left out: at ``couple.n = 3`` it is near-equivalent to the correct sampler
(KS against the exact marginal reads p = 0.88).
"""

import dataclasses

import numpy as np
import pytest

from oracles import SHIPPED_CONFIGS
from splitcouple import coupling, fracvol, logvol
from splitcouple.config import load_config
from splitcouple.harness import run


def _shipped(experiment):
    return load_config([path for path in SHIPPED_CONFIGS if path.endswith(f"{experiment}.cfg")][0])


def _regenerate_at_three_alpha(monkeypatch, ran):
    # u1 <= alpha fires on u1 / 3 <= alpha: three times the regeneration weight
    real = coupling.split_apply_batch

    def mutant(kernel, n, x, u1, u2, in_set=None):
        ran.add("split_apply_batch")
        return real(kernel, n, x, u1 / 3.0, u2, in_set)

    monkeypatch.setattr(coupling, "split_apply_batch", mutant)


def _regenerate_at_every_b_step(monkeypatch, ran):
    # u1 = 0 <= alpha: every element in the small set regenerates, so two
    # orbits that reach it together coalesce there
    real = coupling.split_apply_batch

    def mutant(kernel, n, x, u1, u2, in_set=None):
        ran.add("split_apply_batch")
        return real(kernel, n, x, np.zeros_like(u1), u2, in_set)

    monkeypatch.setattr(coupling, "split_apply_batch", mutant)


def _linear_drift_kappa(kappa):
    # the Euler step drifts at -kappa L while the bounds keep the config's kappa = 1
    def plant(monkeypatch, ran):
        def mutant(p, L, q, drift, scratch):
            ran.add("euler_step")
            np.multiply(L, -kappa, out=drift)
            drift *= p.dt
            L += drift
            L += q
            return L

        monkeypatch.setattr(fracvol, "euler_step", mutant)

    return plant


def _logvol_simulated_with(**changes):
    # the chain runs on other parameters while the moment bound keeps the config's
    def plant(monkeypatch, ran):
        real = logvol.simulate_logvol_batch

        def mutant(p, *args):
            ran.add("simulate_logvol_batch")
            return real(dataclasses.replace(p, **changes), *args)

        monkeypatch.setattr(logvol, "simulate_logvol_batch", mutant)

    return plant


def _uncaught(item):
    # only the flag assertion may fail: a mutant that never ran raises RuntimeError
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"no shipped flag catches it yet ({item})")


@pytest.mark.parametrize("experiment, plant", [
    pytest.param("ar1-couple", _regenerate_at_three_alpha, id="3alpha",
                 marks=_uncaught("ROADMAP items 1 and 11")),
    pytest.param("ar1-couple", _regenerate_at_every_b_step, id="coalesce-every-b",
                 marks=_uncaught("ROADMAP items 1 and 8")),
    pytest.param("sde-sim", _linear_drift_kappa(0.3), id="kappa-0.3",
                 marks=_uncaught("ROADMAP item 2")),
    pytest.param("sde-sim", _linear_drift_kappa(0.15), id="kappa-0.15",
                 marks=_uncaught("ROADMAP item 2")),
    pytest.param("logvol-sim", _logvol_simulated_with(gamma=0.6), id="gamma-0.6",
                 marks=_uncaught("ROADMAP item 6")),
    pytest.param("logvol-sim", _logvol_simulated_with(rho=0.0), id="rho-0",
                 marks=_uncaught("ROADMAP item 6")),
])
def test_a_planted_defect_turns_a_flag_false(monkeypatch, experiment, plant):
    cfg = _shipped(experiment)
    ran = set()
    plant(monkeypatch, ran)
    report = run(cfg)
    if not ran:
        raise RuntimeError("the planted defect was never reached")
    assert not all(report.flags.values()), report.flags
