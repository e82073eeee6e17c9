"""Split-kernel couplings, convergence-rate bounds, and their verification.

The package realizes minorized transition kernels as deterministic maps of
uniform pairs, couples backward compositions of those maps (for plain chains
and for chains in a random environment), evaluates explicit total-variation
rate bounds, and checks everything against exact oracles and Monte Carlo on
three concrete models: a stable AR(1) chain, a discrete log-volatility chain
in a moving-average Gaussian environment, and an Euler-discretized
stochastic-volatility SDE.

The names below load their module on first use, so ``import splitcouple``
loads no submodule, and the SDE names (``fracvol``) load numpy but no scipy.
"""

import importlib

_EXPORTS = {
    "ar1": ("Ar1Params", "ar1_alpha", "ar1_lyapunov_constant", "ar1_marginal",
            "ar1_n_schedule", "ar1_split_kernel", "ar1_stationary"),
    "coupling": ("BlockSchedule", "block_schedule", "coupled_pair_batch",
                 "coupling_lower_bound", "mcre_coupled_chains_batch", "tv_upper_from_coupling"),
    "errors": ("CertificationError", "ConfigError", "RunError", "ScheduleError"),
    "fracvol": ("DriftSpec", "SdeParams", "VolatilityKernel", "dissipativity_check",
                "euler_step", "increment_moment_check", "linear_drift", "saturating_drift",
                "simulate_ensemble"),
    "kernels": ("SmallSetLadder", "SplitKernel", "split_apply_batch"),
    "logvol": ("LogvolParams", "geometric_ma", "fractional_ma",
               "logvol_alpha", "logvol_dn", "logvol_moment_bound", "logvol_tail"),
    "metrics": ("tv_empirical", "tv_gaussian"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
