import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from oracles import SHIPPED_CONFIGS
from splitcouple.cli import main as cli_main
from splitcouple.config import (
    MEMORY_CAP_BYTES, load_config, load_config_text, parse_config_text,
)
import splitcouple
from splitcouple import fracvol, harness, logvol
from splitcouple.errors import CertificationError, ConfigError, RunError
from splitcouple.fracvol import RESOURCE_CAP, simulate_ensemble
from splitcouple.harness import emit_csv, run, write_report

AR1_BOUND_CFG = """
# total variation bound dominance
experiment = ar1-bound
seed = 2024
ar1.gamma = 0.5
ar1.beta = 0.3
ar1.x0 = 0.0
ar1.t_grid = 10, 100, 1000, 10000
"""

AR1_COUPLE_CFG = """
experiment = ar1-couple
seed = 77
replicas = 300
ar1.gamma = 0.5
ar1.x0 = 1.0
couple.n = 3
couple.s = 40
couple.t = 80
"""

LOGVOL_SIM_CFG = """
experiment = logvol-sim
seed = 5150
replicas = 2000
logvol.gamma = 0.5
logvol.rho = 0.3
logvol.ma = geometric(0.5, 128)
logvol.checkpoints = 10, 50
"""

SDE_SIM_CFG = """
experiment = sde-sim
seed = 31
replicas = 400
sde.drift = linear(1.0)
sde.kernel = exponential(1.0)
sde.rho = 0.3
sde.dt = 0.0078125
sde.horizon = 6.0
sde.burn_in = 10.0
sde.l0 = -2, 2
sde.checkpoints = 2, 4, 6
sde.increment_base = 4.0
sde.increment_lags = 0.1, 0.01
"""


def test_parse_config_text_rules():
    raw = parse_config_text("a.b = 1 # comment\n\n# full comment\nc = x\n")
    assert raw == {"a.b": "1", "c": "x"}
    with pytest.raises(ConfigError):
        parse_config_text("not a pair\n")
    with pytest.raises(ConfigError):
        parse_config_text("BAD.Key = 1\n")


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="experiment"):
        load_config_text("experiment = nonsense\n")
    with pytest.raises(ConfigError, match="replicas"):
        load_config_text("experiment = ar1-couple\nreplicas = 0\n")
    with pytest.raises(ConfigError, match="^ar1.gamma: "):
        load_config_text("experiment = ar1-bound\nar1.gamma = 1.5\n")
    with pytest.raises(ConfigError, match="unknown field"):
        load_config_text("experiment = ar1-bound\nsde.rho = 0.1\n")
    with pytest.raises(ConfigError, match="logvol.ma"):
        load_config_text("experiment = logvol-sim\nlogvol.ma = cauchy(1)\n")


def test_config_defaults_are_echoed():
    cfg = load_config_text("experiment = ar1-bound\n")
    assert cfg.resolved["ar1.gamma"] == 0.5
    assert cfg.resolved["ar1.eta"] == 0.1
    assert cfg.resolved["seed"] == 12345
    assert cfg.resolved["ar1.t_grid"] == (10, 100, 1000, 10000)


def test_logvol_ma_spellings():
    cfg = load_config_text("experiment = logvol-sim\nlogvol.ma = 1.0, 0.5, 0.25\n")
    assert cfg.model.ma_coeffs == (1.0, 0.5, 0.25)
    cfg = load_config_text("experiment = logvol-sim\nlogvol.ma = fractional(0.2, 64)\n")
    assert len(cfg.model.ma_coeffs) == 65


def test_ar1_bound_run_and_schema():
    report = run(load_config_text(AR1_BOUND_CFG))
    assert report.flags == {"dominates_all": True}
    assert report.table_rows.dtype.names == (
        "t", "n", "bound_term1", "bound_term2", "bound_total", "tv_exact", "dominates",
    )
    assert len(report.table_rows) == 4


def test_ar1_couple_run():
    report = run(load_config_text(AR1_COUPLE_CFG))
    assert report.flags["coupled_fraction_above_bound"]
    assert report.flags["tv_sandwich"]
    assert len(report.table_rows) == 300


def test_logvol_sim_run():
    report = run(load_config_text(LOGVOL_SIM_CFG))
    assert report.flags["moment_bounded_all"]


def test_logvol_couple_schedule_fails_honestly():
    cfg = load_config_text(
        "experiment = logvol-couple\nreplicas = 100\nlogvol.ma = geometric(0.5, 128)\n"
    )
    report = run(cfg)
    assert report.flags["schedule_terminates"] is False
    assert "alpha" in report.results["schedule_error"]


def test_sde_sim_run():
    report = run(load_config_text(SDE_SIM_CFG))
    assert report.flags["tv_nonincreasing"]
    assert report.flags["increment_bound_h=0.1"]
    assert report.flags["increment_bound_h=0.01"]
    assert report.table_rows.dtype.names == (
        "initial_state_id", "checkpoint_time", "replica_id", "L_value",
    )


def test_sde_sim_records_each_grid_step_once():
    # Checkpoint 2.1 and the increment endpoint 2 + 0.1 both snap to step 134
    # of dt = 1/64; the driver recorded that step twice (2,400 CSV rows for
    # 2,000 keys, 12 moments) and reported checkpoint 2.1 for a TV measured
    # at 2.09375.
    cfg = load_config_text(
        "experiment = sde-sim\nreplicas = 200\nsde.dt = 0.015625\nsde.horizon = 3\n"
        "sde.checkpoints = 1, 2.1, 3\nsde.increment_base = 2\nsde.increment_lags = 0.1, 0.01\n"
    )
    steps = [64, 128, 129, 134, 192]
    assert cfg.options["record_steps"] == steps
    report = run(cfg)
    table = report.table_rows
    assert len(table) == 2 * len(steps) * 200
    keys = set(zip(table.initial_state_id.tolist(), table.checkpoint_time.tolist(),
                   table.replica_id.tolist()))
    assert len(keys) == len(table)
    assert sorted(set(table.checkpoint_time.tolist())) == [k / 64 for k in steps]
    assert report.results["checkpoints"] == [1.0, 2.09375, 3.0]
    moments = report.results["moments"]
    assert [(m["initial_state"], m["checkpoint_time"]) for m in moments] == [
        (l0, k / 64) for l0 in (-2.0, 2.0) for k in steps
    ]
    assert [inc["h_actual"] for inc in report.results["increments"]] == [6 / 64, 1 / 64]


def test_byte_identical_reruns(tmp_path):
    cfg = load_config_text(AR1_COUPLE_CFG)
    paths = []
    for sub in ("a", "b"):
        report = run(cfg)
        paths.append(write_report(report, str(tmp_path / sub)))
    for one, two in zip(*paths):
        with open(one, "rb") as f1, open(two, "rb") as f2:
            assert f1.read() == f2.read()


def _csv_text(tmp_path, table) -> str:
    from splitcouple.harness import RunReport

    report = RunReport(
        experiment="ar1-bound", config={}, results={}, flags={}, replicas=1,
        wall_clock_s=0.0, table_rows=table,
    )
    path = str(tmp_path / "f.csv")
    emit_csv(report, path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read()


def test_emit_csv_formats_each_column_by_its_dtype_kind(tmp_path):
    table = np.rec.fromarrays(
        [
            np.array([True, False, True, False, True]),
            np.array([0, -7, 2**63 - 1, -(2**63), 1], dtype=np.int64),
            np.array([0, 1, 128, 255, 2], dtype=np.uint8),
            np.array([-0.0, 1e-300, np.inf, np.nan, 2.0 / 3.0]),
            np.array([0.1, -0.0, -np.inf, np.nan, 3.0], dtype=np.float32),
            np.array([10**57, -(10**57), 0, 2**64, 1], dtype=object),
        ],
        names="b,i,u,f,g,o",
    )
    assert _csv_text(tmp_path, table) == (
        "b,i,u,f,g,o\n"
        "true,0,0,-0,0.10000000149011612,1000000000000000000000000000000000000000000000000000000000\n"
        "false,-7,1,1e-300,-0,-1000000000000000000000000000000000000000000000000000000000\n"
        "true,9223372036854775807,128,inf,-inf,0\n"
        "false,-9223372036854775808,255,nan,nan,18446744073709551616\n"
        "true,1,2,0.66666666666666663,3,1\n"
    )
    empty = np.rec.fromrecords([], dtype=[("a", np.int64), ("b", np.float64), ("c", object)])
    assert _csv_text(tmp_path, empty) == "a,b,c\n"


def test_cli_round_trip(tmp_path, capsys):
    cfg_path = str(tmp_path / "exp.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(AR1_BOUND_CFG + f"output.dir = {tmp_path}/run\n")
    assert cli_main(["validate", cfg_path]) == 0
    assert cli_main(["run", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "flag dominates_all: PASS" in out
    report_path = os.path.join(str(tmp_path), "run", "report.json")
    with open(report_path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["flags"] == {"dominates_all": True}
    assert "wall_clock" not in json.dumps(payload)
    assert cli_main(["report", f"{tmp_path}/run"]) == 0


def test_cli_error_exit_codes(tmp_path, capsys):
    bad_cfg = str(tmp_path / "bad.cfg")
    with open(bad_cfg, "w", encoding="utf-8") as fh:
        fh.write("experiment = ar1-couple\nreplicas = 3\n")
    assert cli_main(["run", bad_cfg]) == 2
    assert "replicas" in capsys.readouterr().err
    assert cli_main(["report", str(tmp_path / "missing")]) == 2


def test_cli_failing_flag_exit_code(tmp_path, capsys):
    cfg_path = str(tmp_path / "lvc.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(
            "experiment = logvol-couple\nreplicas = 100\n"
            f"logvol.ma = geometric(0.5, 128)\noutput.dir = {tmp_path}/lvc\n"
        )
    assert cli_main(["run", cfg_path]) == 1
    assert cli_main(["report", f"{tmp_path}/lvc"]) == 1


@pytest.mark.parametrize("experiment", ["logvol-sim", "logvol-couple"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_overflowing_ma_coefficients(tmp_path, capsys, experiment, command):
    # exp(2 * 30^2) overflows a double, so the moment bound cannot be formed.
    cfg_path = str(tmp_path / "ma.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(
            f"experiment = {experiment}\nreplicas = 100\n"
            f"logvol.ma = 30.0\noutput.dir = {tmp_path}/run\n"
        )
    assert cli_main([command, cfg_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: logvol.ma: ma_coeffs")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("experiment, line", [
    ("sde-sim", "sde.tv_threshold = inf"),
    ("sde-sim", "sde.tv_threshold = nan"),
    ("sde-sim", "sde.checkpoints = 5.0, -inf"),
    ("sde-sim", "sde.kernel = exponential(inf)"),
    ("ar1-bound", "ar1.x0 = -inf"),
    ("logvol-sim", "logvol.ma = 0.5, nan"),
    # read inside the SdeParams refusal, these came out as "sde: sde.dt: ..."
    ("sde-sim", "sde.dt = nan"),
    ("sde-sim", "sde.rho = nan"),
])
def test_cli_validate_rejects_non_finite_numbers(tmp_path, capsys, experiment, line):
    key = line.split(" = ")[0]
    cfg_path = str(tmp_path / "exp.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(f"experiment = {experiment}\nreplicas = 100\n{line}\noutput.dir = {tmp_path}/run\n")
    assert cli_main(["validate", cfg_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {key}: ") and "is not a finite number" in captured.err
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("experiment", ["ar1-bound", "ar1-couple", "sde-sim"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_rejects_a_negative_seed(tmp_path, capsys, experiment, command):
    # numpy would refuse the seed only inside the run, without naming the field.
    cfg_path = str(tmp_path / "exp.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(f"experiment = {experiment}\nseed = -1\noutput.dir = {tmp_path}/run\n")
    assert cli_main([command, cfg_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed: must be a non-negative integer, got -1\n"
    assert not (tmp_path / "run").exists()
    assert load_config_text(f"experiment = {experiment}\nseed = 0\n").seed == 0


# The one-tap logvol-couple config whose schedule terminates, so that a run
# gets as far as the coupling.
_MCRE_TEXT = "experiment = logvol-couple\nreplicas = 100\nlogvol.ma = 0.1\nlogvol.m_max = 1\n"


@pytest.mark.parametrize("text, key", [
    # one start: the sde-sim run indexed a second state that is not there
    ("experiment = sde-sim\nreplicas = 100\nsde.l0 = 1.0\n", "sde.l0"),
    # equal starts ran and passed every flag with TV 0: nothing to forget
    ("experiment = sde-sim\nreplicas = 100\nsde.l0 = 2, 2\n", "sde.l0"),
    # overflows: an OverflowError naming no field, a non-finite report field, or a
    # growth certificate that passed on NaN
    ("experiment = ar1-couple\nreplicas = 100\nar1.x0 = 1e300\n", "ar1.x0"),
    ("experiment = ar1-bound\nar1.x0 = 1e200\n", "ar1.x0"),
    ("experiment = sde-sim\nreplicas = 100\nsde.drift = linear(1e200)\n", "sde.drift"),
    ("experiment = sde-sim\nreplicas = 100\nsde.drift = linear(1e154)\n", "sde.drift"),
    # the coupling was asked for zero steps
    (_MCRE_TEXT + "logvol.target_block = 1\nlogvol.step_cap = 0\n", "logvol.step_cap"),
    (_MCRE_TEXT + "logvol.target_block = 0\n", "logvol.target_block"),
    # a negative m_max passed as covering the target and failed without a field name
    ("experiment = logvol-couple\nlogvol.m_max = -1\nlogvol.target_block = -2\n",
     "logvol.target_block"),
    # a fractional lag ran at its integer part while the report echoed the text
    ("experiment = logvol-sim\nreplicas = 100\nlogvol.ma = geometric(0.5, 2.5)\n", "logvol.ma"),
    # a negative lag failed as "logvol: ma_coeffs must be nonempty"
    ("experiment = logvol-sim\nreplicas = 100\nlogvol.ma = geometric(0.5, -3)\n", "logvol.ma"),
    # a family's own refusal of its first argument came out without the field
    ("experiment = logvol-sim\nreplicas = 100\nlogvol.ma = geometric(1.5, 10)\n", "logvol.ma"),
    ("experiment = logvol-sim\nreplicas = 100\nlogvol.ma = fractional(1.5, 10)\n", "logvol.ma"),
    # a lag at or below zero ran as one grid step under the flag of its own name
    ("experiment = sde-sim\nreplicas = 100\nsde.increment_lags = -0.5, 0.01\n",
     "sde.increment_lags"),
    ("experiment = sde-sim\nreplicas = 100\nsde.increment_lags = 0.1, 0\n", "sde.increment_lags"),
    # a lag under half a step (dt = 1/256) ran as one full step under its own name
    ("experiment = sde-sim\nreplicas = 100\nsde.increment_lags = 0.001, 0.1\n",
     "sde.increment_lags"),
    # an Euler step past its stable range (Lipschitz constant times dt = 2.34)
    # validated, then overflowed into a non-finite report field
    ("experiment = sde-sim\nreplicas = 100\nsde.drift = linear(600)\n", "sde.drift"),
    ("experiment = sde-sim\nreplicas = 100\nsde.drift = saturating(400, 200)\n", "sde.drift"),
    # a model's own invariants were refused under its section alone ("ar1: gamma ...")
    ("experiment = ar1-bound\nar1.gamma = 1.5\n", "ar1.gamma"),
    ("experiment = logvol-sim\nreplicas = 100\nlogvol.gamma = 1.5\n", "logvol.gamma"),
    ("experiment = logvol-sim\nreplicas = 100\nlogvol.rho = 1.0\n", "logvol.rho"),
    # these two named no field at all: "sde: need dt > 0, horizon >= dt, burn_in > 0"
    ("experiment = sde-sim\nreplicas = 100\nsde.dt = -0.1\n", "sde.dt"),
    ("experiment = sde-sim\nreplicas = 100\nsde.horizon = 0.001\n", "sde.horizon"),
    ("experiment = sde-sim\nreplicas = 100\nsde.burn_in = 0.5\n", "sde.burn_in"),
    ("experiment = sde-sim\nreplicas = 100\nsde.rho = 1.0\n", "sde.rho"),
    # the window reads 193 of 193 steps, but base 189.5 and lag 3.5 snap to
    # steps 190 and 4, so the run recorded a step past the horizon
    ("experiment = sde-sim\nreplicas = 100\nsde.dt = 0.015625\nsde.horizon = 3.015625\n"
     "sde.checkpoints = 1\nsde.increment_base = 2.9609375\nsde.increment_lags = 0.0546875\n",
     "sde.increment_base"),
], ids=["one-start", "equal-starts", "ar1-couple-x0-overflow", "ar1-bound-x0-overflow",
        "drift-overflow", "drift-grid-overflow", "step-cap-0", "target-block-0", "negative-m-max",
        "fractional-ma-lag", "negative-ma-lag", "geometric-ma-ratio", "fractional-ma-h", "negative-increment-lag", "zero-increment-lag",
        "sub-step-increment-lag", "unstable-euler-linear", "unstable-euler-saturating",
        "ar1-gamma", "logvol-gamma", "logvol-rho", "sde-dt", "sde-horizon", "sde-burn-in",
        "sde-rho", "increment-window-past-the-horizon-step"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_refuses_configs_a_run_cannot_run(tmp_path, capsys, text, key, command):
    cfg_path = str(tmp_path / "exp.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(text + f"output.dir = {tmp_path}/run\n")
    assert cli_main([command, cfg_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {key}: ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_cli_runs_a_stiff_drift_inside_the_euler_step_s_stable_range(tmp_path, capsys):
    # kappa dt = 500/256 = 1.95: each step multiplies the state by -0.95, so
    # the paths oscillate but decay, and every reported statistic is finite.
    cfg_path = str(tmp_path / "stiff.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write("experiment = sde-sim\nreplicas = 200\nsde.drift = linear(500)\n"
                 f"sde.horizon = 12\nsde.checkpoints = 5, 10, 12\noutput.dir = {tmp_path}/run\n")
    assert cli_main(["validate", cfg_path]) == 0
    assert cli_main(["run", cfg_path]) in (0, 1)
    with open(tmp_path / "run" / "report.json", encoding="utf-8") as fh:
        moments = json.load(fh)["results"]["moments"]
    assert moments and all(np.isfinite([m["mean"], m["variance"]]).all() for m in moments)


def _three_taps_at_most(build):
    def guarded(arg, lag):
        if lag > 2:  # config may build three taps to learn the plan, never the list
            raise AssertionError("the coefficients must not be built")
        return build(arg, lag)
    return guarded


@pytest.mark.parametrize("family, lag, longest", [
    # the smallest run, 100 replicas for one step, at the longest lag holds
    # just under 4 GiB: a scan for a geometric MA, a transform for another
    ("geometric", 3_000_000, 2_684_159),
    ("fractional", 2_000_000, 1_062_880),
], ids=["geometric", "fractional"])
def test_validate_refuses_an_oversized_ma_lag_before_building_it(tmp_path, capsys, monkeypatch,
                                                                 family, lag, longest):
    # 2e6 lags would take about a second and 100 MiB to build, only for the
    # memory estimate to refuse the run and blame replicas.
    monkeypatch.setattr(logvol, "geometric_ma", _three_taps_at_most(logvol.geometric_ma))
    monkeypatch.setattr(logvol, "fractional_ma", _three_taps_at_most(logvol.fractional_ma))
    cfg_path = str(tmp_path / "lag.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(f"experiment = logvol-sim\nreplicas = 100\nlogvol.ma = {family}(0.5, {lag})\n")
    assert cli_main(["validate", cfg_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: logvol.ma: lag {lag} is over ")
    assert captured.err.count("\n") == 1
    # the longest lag passes the check and reaches the family function
    with pytest.raises(AssertionError, match="must not be built"):
        load_config_text(f"experiment = logvol-sim\nlogvol.ma = {family}(0.5, {longest})\n")
    with pytest.raises(ConfigError, match=f"lag {longest + 1} is over"):
        load_config_text(f"experiment = logvol-sim\nlogvol.ma = {family}(0.5, {longest + 1})\n")


def test_an_ma_lag_written_as_a_whole_float_is_its_integer():
    cfg = load_config_text("experiment = logvol-sim\nlogvol.ma = geometric(0.5, 1e3)\n")
    assert cfg.model.lag == 1000
    assert cfg.resolved["logvol.ma"] == "geometric(0.5, 1e3)"


@pytest.mark.parametrize("payload", [
    {"replicas": 3, "flags": {"ok": True}},
    {"experiment": "ar1-bound", "flags": {"ok": True}},
    ["not", "a", "report"],
    # a flag that is not a boolean: the string "false" printed PASS and exited 0,
    # and a list of flags failed as "AttributeError: 'list' object has no attribute 'items'"
    {"experiment": "ar1-bound", "replicas": 3, "flags": {"ok": "false"}},
    {"experiment": "ar1-bound", "replicas": 3, "flags": ["a"]},
    "{not json",
])
def test_cli_report_on_malformed_report(tmp_path, capsys, payload):
    with open(tmp_path / "report.json", "w", encoding="utf-8") as fh:
        fh.write(payload if isinstance(payload, str) else json.dumps(payload))
    assert cli_main(["report", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {tmp_path / 'report.json'}: ")
    assert captured.err.count("\n") == 1


def test_cli_certification_error_exit_code(tmp_path, capsys, monkeypatch):
    import splitcouple.cli as cli

    def refuted(cfg):
        raise CertificationError("minorization weight for n=1 fails grid certification")

    monkeypatch.setattr(cli, "run_experiment", refuted)
    cfg_path = str(tmp_path / "exp.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(AR1_BOUND_CFG + f"output.dir = {tmp_path}/run\n")
    assert cli_main(["run", cfg_path]) == 2
    assert capsys.readouterr().err == (
        "error: minorization weight for n=1 fails grid certification\n"
    )


@pytest.mark.parametrize("exc", [KeyError("sde.kernel"), MemoryError()])
def test_cli_unexpected_error_exit_code(tmp_path, capsys, monkeypatch, exc):
    # An exception outside the documented ones exits 2 with one line, not a
    # traceback with exit 1 (which would read as "a flag was false").
    import splitcouple.cli as cli

    def broken(cfg):
        raise exc

    monkeypatch.setattr(cli, "run_experiment", broken)
    cfg_path = str(tmp_path / "exp.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(AR1_BOUND_CFG + f"output.dir = {tmp_path}/run\n")
    assert cli_main(["run", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {type(exc).__name__}: {exc}\n"


def _tiny_report(results=None):
    from splitcouple.harness import RunReport

    return RunReport(
        experiment="ar1-bound", config={"seed": 1}, results=results or {"x": 1.0},
        flags={"ok": True}, replicas=1, wall_clock_s=0.0,
        table_rows=np.rec.fromrecords([(1.0,)], names="a"),
    )


@pytest.mark.parametrize("emit", ["csv", "json"])
def test_emit_replaces_file_atomically(tmp_path, monkeypatch, emit):
    import splitcouple.harness as harness

    writer = harness.emit_csv if emit == "csv" else harness.emit_json
    path = tmp_path / f"out.{emit}"
    path.write_text("old contents\n", encoding="utf-8")

    synced = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        synced.append(fd)
        real_fsync(fd)

    def interrupted(src, dst):
        # the new text is complete and synced beside the target, which is untouched
        assert os.path.dirname(src) == os.path.dirname(dst)
        assert synced
        assert path.read_text(encoding="utf-8") == "old contents\n"
        raise OSError("interrupted before the rename")

    monkeypatch.setattr(harness.os, "fsync", recording_fsync)
    monkeypatch.setattr(harness.os, "replace", interrupted)
    with pytest.raises(OSError):
        writer(_tiny_report(), str(path))
    assert path.read_text(encoding="utf-8") == "old contents\n"
    assert os.listdir(tmp_path) == [path.name]  # no temporary file left behind
    monkeypatch.undo()
    writer(_tiny_report(), str(path))
    assert path.read_text(encoding="utf-8") != "old contents\n"
    assert os.listdir(tmp_path) == [path.name]


@pytest.mark.parametrize("results, field", [
    ({"tv_exact": float("nan"), "bounds": [1.0]}, "results.tv_exact"),
    ({"tv_exact": 0.5, "bounds": [1.0, float("inf")]}, "results.bounds[1]"),
    ({"nested": {"x": np.float64("-inf")}}, "results.nested.x"),
])
def test_emit_json_rejects_non_finite(tmp_path, results, field):
    from splitcouple.errors import RunError
    from splitcouple.harness import emit_json

    path = tmp_path / "report.json"
    with pytest.raises(RunError, match=r"^report field " + re.escape(field) + " is not"):
        emit_json(_tiny_report(results), str(path))
    assert not path.exists()


def test_cli_non_finite_report_exit_code(tmp_path, capsys, monkeypatch):
    import splitcouple.cli as cli

    monkeypatch.setattr(cli, "run_experiment", lambda cfg: _tiny_report({"tv": float("nan")}))
    cfg_path = str(tmp_path / "exp.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(AR1_BOUND_CFG + f"output.dir = {tmp_path}/run\n")
    assert cli_main(["run", cfg_path]) == 2
    assert capsys.readouterr().err == "error: report field results.tv is not a finite number\n"
    assert os.listdir(tmp_path / "run") == []  # refused before any file was written


def test_shipped_configs_validate_under_the_memory_cap(capsys):
    assert len(SHIPPED_CONFIGS) == 5
    for path in SHIPPED_CONFIGS:
        assert cli_main(["validate", path]) == 0
        assert capsys.readouterr().out.endswith("config ok\n")
        assert load_config(path).peak_bytes < 100 * 2**20


@pytest.mark.parametrize("text", [
    "experiment = ar1-couple\nreplicas = 100000000\ncouple.t = 100000\n",  # 160 TB of uniforms
    "experiment = sde-sim\nreplicas = 100000000\n",
])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_refuses_configs_over_the_memory_cap(tmp_path, capsys, text, command):
    cfg_path = str(tmp_path / "big.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(text + f"output.dir = {tmp_path}/run\n")
    assert cli_main([command, cfg_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: replicas: ") and "GiB cap" in captured.err
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_refuses_sde_ensembles_over_the_replica_step_cap(tmp_path, capsys, monkeypatch, command):
    # A million replicas of the shipped sde-sim plan 1.6 GiB, under the
    # memory cap, but need 7.68e9 replica-steps, over RESOURCE_CAP.
    def no_compute(*args, **kwargs):
        raise AssertionError("the ensemble must not start")

    monkeypatch.setattr(harness, "simulate_ensemble", no_compute)
    shipped = [path for path in SHIPPED_CONFIGS if path.endswith("sde-sim.cfg")]
    with open(shipped[0], encoding="utf-8") as fh:
        text = fh.read()
    cfg_path = str(tmp_path / "sde-million.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(text + f"replicas = 1000000\noutput.dir = {tmp_path}/run\n")
    assert cli_main([command, cfg_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: replicas: the ensemble needs 7.68e+09 replica-steps, over the cap 2e+09\n"
    )
    assert not (tmp_path / "run").exists()


def test_validate_and_run_share_the_replica_step_cap():
    # 7,680 steps a replica: 260,416 replicas fit under 2e9, one more does not,
    # and the library entry point refuses the same count before any compute.
    text = "experiment = sde-sim\nreplicas = {}\n"
    assert 260_416 * 7_680 <= RESOURCE_CAP < 260_417 * 7_680
    cfg = load_config_text(text.format(260_416))
    assert cfg.replicas == 260_416
    with pytest.raises(ConfigError, match="^replicas: .* replica-steps"):
        load_config_text(text.format(260_417))
    with pytest.raises(RunError, match="replica-steps"):
        simulate_ensemble(cfg.model, [0.0], 260_417, [256], seed=1)


def test_logvol_sim_estimate_is_one_block_plus_outputs():
    # Ten million replicas fit: only the two checkpoint outputs grow with them.
    base = "experiment = logvol-sim\nlogvol.checkpoints = 10, 100\n"
    small = load_config_text(base + "replicas = 100000\n").peak_bytes
    large = load_config_text(base + "replicas = 10000000\n").peak_bytes
    assert large - small == 2 * 8 * (10_000_000 - 100_000)
    assert large < MEMORY_CAP_BYTES


@pytest.mark.parametrize("ma, block_rows", [
    ("geometric(0.5, 512)", None),
    ("fractional(0.1, 512)", None),
    ("geometric(0.5, 512)", 256),
    ("fractional(0.1, 512)", 256),
], ids=["geometric", "fractional", "geometric-block-256", "fractional-block-256"])
def test_logvol_sim_estimate_covers_the_simulation_s_traced_peak(monkeypatch, ma, block_rows):
    # 1,500 replicas span one full block and a partial one, or six blocks of
    # 256 rows: the estimate reads the simulation's live block size.  The
    # block's draws and its plan's scratch dominate: the recursive scan's for
    # a geometric MA, about a third of the transform's for a fractional one.
    if block_rows is not None:
        monkeypatch.setattr(logvol, "_BLOCK_ROWS", block_rows)
    cfg = load_config_text(f"experiment = logvol-sim\nreplicas = 1500\nlogvol.ma = {ma}\n")
    assert logvol._BLOCK_ROWS < cfg.replicas < 2 * logvol._BLOCK_ROWS or block_rows
    checkpoints = cfg.options["checkpoints"]
    tracemalloc.start()
    try:
        logvol.simulate_logvol_batch(cfg.model, max(checkpoints), cfg.replicas, cfg.seed,
                                     checkpoints)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= cfg.peak_bytes < 1.5 * peak


@pytest.mark.parametrize("kernel, chunk", [
    ("exponential(1.0)", None),
    ("fractional(0.1)", None),
    ("exponential(1.0)", 400),
], ids=["exponential", "fractional", "exponential-chunk-400"])
def test_sde_sim_estimate_covers_the_ensemble_s_traced_peak(monkeypatch, kernel, chunk):
    # 1,600 replicas step as two chunks of 800, or four of 400 under a cap of
    # 400: the estimate reads the ensemble's live chunk size.  The chunk's q
    # series, one float a replica-step, dominates what the ensemble holds; an
    # estimate that kept three floats a replica-step would be over twice it.
    # One checkpoint keeps the output rows from covering the block scratch,
    # which is the recursive scan's for an exponential kernel and the FFT's
    # for a fractional one.
    if chunk is not None:
        monkeypatch.setattr(fracvol, "_DEFAULT_CHUNK", chunk)
    text = ("experiment = sde-sim\nreplicas = 1600\nsde.dt = 0.015625\nsde.checkpoints = 20\n"
            f"sde.kernel = {kernel}\n")
    cfg = load_config_text(text)
    assert fracvol._DEFAULT_CHUNK < cfg.replicas < 2 * fracvol._DEFAULT_CHUNK or chunk
    opt = cfg.options
    tracemalloc.start()
    try:
        simulate_ensemble(cfg.model, opt["l0"], cfg.replicas, opt["record_steps"], cfg.seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= cfg.peak_bytes < 1.5 * peak


_PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def test_perfbench_tracer_still_binds_and_keeps_every_artifact(tmp_path):
    # The benchmark's tracer rebinds split_apply_batch with the signature
    # (kernel, n, x, u1, u2, in_set=None), replaces a kernel's cdf through
    # dataclasses.replace, and wraps the coupling engines, block_schedule and
    # logvol_kernel by name.  In a fresh process, a small ar1-couple run and a
    # small terminating logvol-couple run are written untraced, then traced;
    # the artifacts must match byte for byte and the traced layers must fire.
    code = (
        "import json, sys\n"
        "from splitcouple import config, harness\n"
        "cfgs = [config.load_config_text(t) for t in json.loads(sys.stdin.read())]\n"
        "for i, cfg in enumerate(cfgs):\n"
        "    harness.write_report(harness.run(cfg), f'{sys.argv[1]}/plain/{i}')\n"
        "sys.path.insert(0, sys.argv[2])\n"
        "import tracer\n"
        "tr = tracer.install()\n"
        "for i, cfg in enumerate(cfgs):\n"
        "    harness.write_report(harness.run(cfg), f'{sys.argv[1]}/traced/{i}')\n"
        "print(json.dumps({**tr.layers(0.0), **tr.calls}))\n"
    )
    texts = [AR1_COUPLE_CFG.replace("replicas = 300", "replicas = 1000"),
             _MCRE_TEXT.replace("replicas = 100", "replicas = 300")
             + "logvol.target_block = 1\nlogvol.step_cap = 60\n"]
    src = os.path.dirname(os.path.dirname(splitcouple.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path), _PERFBENCH],
                         input=json.dumps(texts), env=env, capture_output=True, text=True,
                         check=True)
    layers = json.loads(out.stdout.strip().splitlines()[-1])
    assert layers["kernels.element_steps"] > 0
    for span in ("coupling.pair", "coupling.mcre", "coupling.schedule", "logvol.kernel"):
        assert layers[span] > 0, span
    for i, name in enumerate(["ar1-couple", "logvol-couple"]):
        for artifact in ("report.json", f"{name}.csv"):
            plain = (tmp_path / "plain" / str(i) / artifact).read_bytes()
            assert (tmp_path / "traced" / str(i) / artifact).read_bytes() == plain, artifact
