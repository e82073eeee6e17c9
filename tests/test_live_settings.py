"""Every value a run echoes in its report.json is live: set to another valid
value, it moves the run's results, flags or CSV.  A value that moves none of
them is a setting the run does not use, and its echo says otherwise.

Each experiment runs small (a few hundred replicas, short horizons), once as
given and once for each echoed key set to its variant below.
"""

from splitcouple.config import load_config_text
from splitcouple.harness import run

_BASES = {
    "ar1-bound": "experiment = ar1-bound\nar1.t_grid = 10, 100\n",
    "ar1-couple": "experiment = ar1-couple\nreplicas = 200\ncouple.s = 10\ncouple.t = 20\n",
    "logvol-sim": ("experiment = logvol-sim\nreplicas = 200\nlogvol.ma = geometric(0.5, 16)\n"
                   "logvol.checkpoints = 1, 5\n"),
    # A schedule that terminates, so step_cap, target_block and x0_pair reach the
    # coupling; at 24 steps some pairs have merged and some not, so the coupled
    # fraction moves with the draws.
    "logvol-couple": ("experiment = logvol-couple\nreplicas = 200\nlogvol.ma = 0.1\n"
                      "logvol.gamma = 0.2\nlogvol.m_max = 2\nlogvol.target_block = 1\n"
                      "logvol.step_cap = 24\n"),
    "sde-sim": ("experiment = sde-sim\nreplicas = 100\nsde.dt = 0.0625\nsde.horizon = 2\n"
                "sde.checkpoints = 1, 2\nsde.increment_base = 1\n"
                "sde.increment_lags = 0.125\n"),
}

# Another valid value of every key an experiment echoes, shared by the
# experiments that read the key.
_VARIANTS = {
    # logvol-couple reports only its coupled fraction, a multiple of 1/200 here,
    # which seed 3 leaves at the default seed's 0.605; seed 4 reads 0.66
    "seed": "4",
    "replicas": "201",
    "ar1.gamma": "0.6",
    "ar1.beta": "0.2",
    "ar1.eta": "0.5",
    "ar1.x0": "0.5",
    "ar1.t_grid": "10, 1000",
    "couple.n": "2",
    "couple.s": "8",
    "couple.t": "25",
    "logvol.gamma": "0.3",
    "logvol.rho": "0.2",
    "logvol.x0": "1",
    "logvol.ma": "0.2",
    "logvol.checkpoints": "1, 6",
    "logvol.m_max": "3",
    "logvol.target_block": "2",
    "logvol.step_cap": "25",
    "logvol.x0_pair": "0.5, -1",
    "sde.drift": "saturating(1.0, 3.0)",
    "sde.kernel": "exponential(2.0)",
    "sde.rho": "0.2",
    "sde.dt": "0.03125",
    "sde.horizon": "3",
    "sde.burn_in": "12",
    "sde.l0": "-1, 2",
    "sde.checkpoints": "0.5, 2",
    "sde.increment_base": "0.5",
    "sde.increment_lags": "0.25",
}

_EXEMPT = {
    # names the experiment that the other keys configure: another value is another run
    "experiment",
    # a deployment path: it says where the artifacts go, not what they hold
    "output.dir",
}
# the bound is exact, so ar1-bound draws nothing from its seed
_EXEMPT_FOR = {"ar1-bound": {"seed"}}


def _outcome(text: str):
    report = run(load_config_text(text))
    return report.config, (report.results, report.flags, report.table_rows.tolist())


def test_every_echoed_value_moves_its_run():
    missing, dead, echoed_anywhere = [], [], set()
    for experiment, text in _BASES.items():
        echoed, base = _outcome(text)
        keys = sorted(set(echoed) - _EXEMPT - _EXEMPT_FOR.get(experiment, set()))
        echoed_anywhere.update(keys)
        missing += [f"{experiment}: {key}" for key in keys if key not in _VARIANTS]
        dead += [f"{experiment}: {key}" for key in keys if key in _VARIANTS
                 and _outcome(text + f"{key} = {_VARIANTS[key]}\n")[1] == base]
    assert not missing + dead, f"no variant: {missing}; moves nothing: {dead}"
    assert echoed_anywhere == set(_VARIANTS)  # no variant outlives its key
