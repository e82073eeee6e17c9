"""Split-kernel couplings, convergence-rate bounds, and their verification.

The package realizes minorized transition kernels as deterministic maps of
uniform pairs, couples backward compositions of those maps (for plain chains
and for chains in a random environment), evaluates explicit total-variation
rate bounds, and checks everything against exact oracles and Monte Carlo on
three concrete models: a stable AR(1) chain, a discrete log-volatility chain
in a moving-average Gaussian environment, and an Euler-discretized
stochastic-volatility SDE.

Each name lives in its module (``from splitcouple import kernels``), and
``import splitcouple`` loads no submodule.
"""
