"""Workload definitions: the configs each workload runs, made from a seed.

The config texts are copies of the files in ``configs/`` as they were when
the benchmark was defined, so a later edit to ``configs/`` does not change
what the benchmark measures.  Two configs are new: a terminating MCRE
(Markov chain in a random environment) coupling for ``logvol`` and a
fractional-kernel SDE for ``sde-frac``.  Only the ``seed`` line varies with
the benchmark seed.

Stdlib only: run.py imports this without numpy.
"""

from __future__ import annotations

# Benchmark seeds map onto this many program seeds per config.  The digests
# of every artifact are pinned for each of them (see digests.json), so any
# benchmark seed can be compared against the seed commit.
SEED_POOL = 16

_AR1_BOUND = """\
# Two-term total-variation bound vs the exact Gaussian distance.
experiment = ar1-bound
seed = {seed}
ar1.gamma = 0.5
ar1.beta = 0.3
ar1.x0 = 0.0
ar1.eta = 0.1
ar1.t_grid = 10, 100, 1000, 10000
output.dir = runs/ar1-bound
"""

_AR1_COUPLE = """\
# Backward coupling of the depth-50 and depth-100 orbits on shared uniforms.
experiment = ar1-couple
seed = {seed}
replicas = 10000
ar1.gamma = 0.5
ar1.x0 = 1.0
couple.n = 3
couple.s = 50
couple.t = 100
output.dir = runs/ar1-couple
"""

_LOGVOL_SIM = """\
# Uniform second-moment bound for the log-volatility chain.
experiment = logvol-sim
seed = {seed}
replicas = 10000
logvol.gamma = 0.5
logvol.rho = 0.3
logvol.ma = geometric(0.5, 512)
logvol.checkpoints = 10, 100
output.dir = runs/logvol-sim
"""

_LOGVOL_COUPLE = """\
# Block-scheduled coupling of two chains sharing environment and uniforms.
# With Gaussian innovations the scheduled minorization weights underflow,
# so the schedule flag reports the failure honestly (exit code 1).
experiment = logvol-couple
seed = {seed}
replicas = 10000
logvol.gamma = 0.5
logvol.rho = 0.3
logvol.ma = geometric(0.5, 512)
logvol.m_max = 4
logvol.target_block = 3
logvol.step_cap = 20000
output.dir = runs/logvol-couple
"""

# A schedule that terminates (alpha ~ 4e-58), so the MCRE engine runs for
# 200 steps with a kernel rebuilt per step.  Regeneration essentially never
# fires here, yet every replica "couples" by floating-point merging: the
# known defect stays visible in kernels.regen_frac vs coupling.coupled_frac.
_LOGVOL_MCRE = """\
# Terminating block schedule: MCRE coupling over a capped horizon.
experiment = logvol-couple
seed = {seed}
replicas = 2000
logvol.gamma = 0.5
logvol.rho = 0.3
logvol.ma = 0.1
logvol.m_max = 1
logvol.target_block = 1
logvol.step_cap = 200
output.dir = runs/logvol-mcre
"""

_SDE_SIM = """\
# Initialization forgetting and increment bounds for the volatility SDE.
experiment = sde-sim
seed = {seed}
replicas = {replicas}
sde.drift = linear(1.0)
sde.kernel = {kernel}
sde.rho = 0.3
sde.dt = 0.00390625
sde.horizon = 20.0
sde.burn_in = 10.0
sde.l0 = -2, 2
sde.checkpoints = 5, 10, 20
sde.increment_base = 10.0
sde.increment_lags = 0.1, 0.01
output.dir = runs/sde-sim
"""

# Flags that are exact or oracle checks and must hold on every run.  Flags
# left out (coupled_fraction_above_bound, coupled_by_target_at_least_half)
# are statistical claims whose value the benchmark only requires to agree
# with the exit code.
_SDE_FLAGS = ("tv_final_below_threshold", "tv_nonincreasing",
              "increment_bound_h=0.1", "increment_bound_h=0.01")


class Config:
    """One generated config: its text template, base seed and expectations.

    ``must_hold`` maps flag names to the value each must have.  The shipped
    ``logvol-couple`` config is expected to fail its schedule (exit 1, as
    the README documents); that outcome is correct, not a failure.
    """

    def __init__(self, name, template, base_seed, must_hold, **fill):
        self.name = name
        self.template = template
        self.base_seed = base_seed
        self.must_hold = must_hold
        self.fill = fill

    def text(self, bench_seed: int) -> str:
        seed = self.base_seed + bench_seed % SEED_POOL
        return self.template.format(seed=seed, **self.fill)


WORKLOADS = {
    "ar1": [
        Config("ar1-bound", _AR1_BOUND, 2024, {"dominates_all": True}),
        Config("ar1-couple", _AR1_COUPLE, 41, {"tv_sandwich": True}),
    ],
    "logvol": [
        Config("logvol-sim", _LOGVOL_SIM, 700, {"moment_bounded_all": True}),
        Config("logvol-couple", _LOGVOL_COUPLE, 800, {"schedule_terminates": False}),
        Config("logvol-mcre", _LOGVOL_MCRE, 801, {"schedule_terminates": True}),
    ],
    "sde-exp": [
        Config("sde-sim", _SDE_SIM, 8080, dict.fromkeys(_SDE_FLAGS, True),
               replicas=10000, kernel="exponential(1.0)"),
    ],
    "sde-frac": [
        Config("sde-frac", _SDE_SIM, 8080, dict.fromkeys(_SDE_FLAGS, True),
               replicas=2000, kernel="fractional(0.1)"),
    ],
}
