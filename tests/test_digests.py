"""Pinned sha256 digests of the artifacts of small runs.

Every experiment promises byte-identical artifacts for a given config and
seed, so a refactor or a speed-up must leave every byte as it was.  A change
that alters an artifact on purpose re-pins the digest and says so in
CHANGES.md.
"""

import hashlib

import pytest

from splitcouple.config import load_config_text
from splitcouple.harness import run, write_report

_SDE = """
experiment = sde-sim
seed = {seed}
replicas = 1540
sde.drift = linear(1.0)
sde.kernel = {kernel}
sde.rho = 0.3
sde.dt = 0.015625
sde.horizon = 3.0
sde.burn_in = {burn_in}
sde.l0 = -2, 2
sde.checkpoints = 1, 2, 3
sde.increment_base = 2.0
sde.increment_lags = 0.1, 0.01
"""

CONFIGS = {
    # 1,540 replicas step as two chunks of 770.
    "sde-exp": _SDE.format(seed=8080, kernel="exponential(1.0)", burn_in=10.0),
    "sde-frac": _SDE.format(seed=8081, kernel="fractional(0.1)", burn_in=2.0),
    "ar1-couple": """
experiment = ar1-couple
seed = 41
replicas = 300
ar1.gamma = 0.5
ar1.x0 = 1.0
couple.n = 3
couple.s = 40
couple.t = 80
""",
    "ar1-bound": """
experiment = ar1-bound
seed = 2024
ar1.gamma = 0.5
ar1.beta = 0.3
ar1.t_grid = 10, 100, 1000, 10000
""",
    "logvol-sim": """
experiment = logvol-sim
seed = 700
replicas = 500
logvol.gamma = 0.5
logvol.rho = 0.3
logvol.ma = geometric(0.5, 64)
logvol.checkpoints = 10, 50
""",
    # Scan blocks of 19 steps (1 / -log 0.95), so the geometric moving
    # average's recursion runs across multi-step blocks.
    "logvol-sim-geometric-0.95": """
experiment = logvol-sim
seed = 701
replicas = 500
logvol.gamma = 0.5
logvol.rho = 0.3
logvol.ma = geometric(0.95, 64)
logvol.checkpoints = 10, 50
""",
    # A block schedule that terminates, so the MCRE coupling engine runs.
    "logvol-couple": """
experiment = logvol-couple
seed = 801
replicas = 300
logvol.gamma = 0.5
logvol.rho = 0.3
logvol.ma = 0.1
logvol.m_max = 1
logvol.target_block = 1
logvol.step_cap = 200
""",
    # Minorization weights underflow: the ScheduleError path ends the run.
    "logvol-couple-schedule-error": """
experiment = logvol-couple
seed = 800
replicas = 100
logvol.gamma = 0.5
logvol.rho = 0.3
logvol.ma = geometric(0.5, 64)
logvol.m_max = 4
logvol.target_block = 3
logvol.step_cap = 2000
""",
}

DIGESTS = {
    "ar1-bound": {
        "csv": "dd5f10af28b6d51dfacf032686594d5bee2dcbee6b87a22dd5ea1137c9e58f38",
        "report": "d7c97cc0dd3c8f12298ce90c245abedf3700da9ed9a1a9b7978a3897ab7eceb1",
    },
    "ar1-couple": {
        "csv": "780c5764a6966ef82f3681e0b70da71d3e503d8ec66d8dcdded2426cc70cd0c7",
        "report": "903d22482be2a84272b5fb7a33c266c7ffc80b7a2a578306094c67f7f5d74497",
    },
    "logvol-couple": {
        "csv": "c21bb1eb717e291c23ec4087f4f43bbd3199a7aa35f21c91ccc9d011e305f384",
        "report": "899b7d562b7e58f52aaa31138410c0fc683520ee75421256059d1b2385195ac8",
    },
    "logvol-couple-schedule-error": {
        "csv": "46e8c7c748d89fa6bdb1c03e39c1647dfb194a12a74ba3afc2dbf6f8d36ac134",
        "report": "90043418635b095fe154fc6c78e13aabf814fba16492ba27a84a6998f8c08d2f",
    },
    "logvol-sim": {
        "csv": "19420198d8e13d58d20a1500f57c69d59cead32e329a5b8fcd7a302979ca8efe",
        "report": "ed6c278b71a51316d7eb87d0fbcf3dce3a5e73448fe4e3491969612bceca4656",
    },
    "logvol-sim-geometric-0.95": {
        "csv": "501dd74e4bdf970f57f67903d84dc641d8f5e46c38f2cd81fc3c7820f6ba6f9b",
        "report": "923e8b33f5368cace96649e2ab5656fe840cbaca771abaa86e1e3b64af6739f2",
    },
    "sde-exp": {
        "csv": "9d224f177272490a5ef17ef105124451c19eaa10350eeb87380bc5342401c125",
        "report": "72a3268e04b15fe653908a10d601c4a41af780198a1bdd6680395c0ce6738abc",
    },
    "sde-frac": {
        "csv": "5c46ea6f89cc4849e9b45f6197822f0a5abfc497c53367c679f28d2a0f14dcf6",
        "report": "0f8bf242a25236ba5433a0b1f5db75be1a001367d13a86ffa35318fba519716f",
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifact_digests_pinned(name, tmp_path):
    report = run(load_config_text(CONFIGS[name]))
    csv_path, json_path = write_report(report, str(tmp_path))
    got = {}
    for label, path in (("csv", csv_path), ("report", json_path)):
        with open(path, "rb") as fh:
            got[label] = hashlib.sha256(fh.read()).hexdigest()
    assert got == DIGESTS[name]
