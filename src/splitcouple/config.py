"""Flat key-value experiment configs with dotted section names.

The format is one ``key = value`` pair per line, ``#`` comments, keys like
``ar1.gamma``.  Lists are comma separated; model families use a call-like
value such as ``geometric(0.5, 512)`` or ``exponential(1.0)``.  Every field
is validated against the target module's invariants before any computation,
and the fully resolved config (defaults included) is echoed into the run
report so a run is reproducible from its artifacts alone.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Any

from .errors import ConfigError, ScheduleError
from .fracvol import (
    RESOURCE_CAP,
    SdeParams,
    VolatilityKernel,
    ensemble_working_bytes,
    linear_drift,
    saturating_drift,
)

EXPERIMENTS = ("ar1-bound", "ar1-couple", "logvol-sim", "logvol-couple", "sde-sim")
MEMORY_CAP_BYTES = 4 * 2**30  # the most a run may plan to hold at once
_MIN_REPLICAS = 100  # the fewest a Monte Carlo experiment may run
_CSV_ROW_BYTES = 256  # one table record, plus its cell objects and CSV line made at write time

_CALL_RE = re.compile(r"^([a-z_]+)\(([^)]*)\)$")


def parse_config_text(text: str) -> dict[str, str]:
    """Raw key -> value strings; later duplicates override earlier ones."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not re.fullmatch(r"[a-z0-9_]+(\.[a-z0-9_]+)*", key):
            raise ConfigError(f"line {lineno}: malformed key {key!r}")
        out[key] = value.strip()
    return out


class _Fields:
    """Typed accessor over raw key/value strings that records what it reads."""

    def __init__(self, raw: dict[str, str]):
        self.raw = dict(raw)
        self.resolved: dict[str, Any] = {}
        self.read: set[str] = set()

    def _get(self, key: str, default):
        self.read.add(key)
        if key in self.raw:
            return self.raw[key]
        if default is _REQUIRED:
            raise ConfigError(f"{key}: required field is missing")
        return default

    def str_(self, key: str, default=None) -> str:
        val = self._get(key, default)
        self.resolved[key] = val
        return val

    def int_(self, key: str, default=None) -> int:
        val = self._get(key, default)
        try:
            out = int(str(val))
        except ValueError:
            raise ConfigError(f"{key}: expected integer, got {val!r}") from None
        self.resolved[key] = out
        return out

    def float_(self, key: str, default=None) -> float:
        val = self._get(key, default)
        try:
            out = float(str(val))
        except ValueError:
            raise ConfigError(f"{key}: expected number, got {val!r}") from None
        _require_finite(key, (out,))
        self.resolved[key] = out
        return out

    def float_list(self, key: str, default=None) -> tuple[float, ...]:
        val = self._get(key, default)
        if isinstance(val, tuple):
            out = val
        else:
            try:
                out = tuple(float(v) for v in str(val).split(",") if v.strip())
            except ValueError:
                raise ConfigError(f"{key}: expected comma-separated numbers, got {val!r}") from None
        if not out:
            raise ConfigError(f"{key}: list must be nonempty")
        _require_finite(key, out)
        self.resolved[key] = out
        return out

    def int_list(self, key: str, default=None) -> tuple[int, ...]:
        vals = self.float_list(key, default)
        out = tuple(int(v) for v in vals)
        if any(float(i) != v for i, v in zip(out, vals)):
            raise ConfigError(f"{key}: expected integers")
        self.resolved[key] = out
        return out

    def unused_keys(self) -> list[str]:
        return sorted(k for k in self.raw if k not in self.read)


_REQUIRED = object()


def _require_finite(key: str, values) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ConfigError(f"{key}: {v!r} is not a finite number")


def _parse_call(key: str, text: str, families: dict[str, int]) -> tuple[str, list[float]]:
    m = _CALL_RE.match(text.strip())
    if not m:
        raise ConfigError(f"{key}: expected one of {sorted(families)} with arguments, got {text!r}")
    name, argtext = m.group(1), m.group(2)
    if name not in families:
        raise ConfigError(f"{key}: unknown family {name!r}; expected one of {sorted(families)}")
    try:
        args = [float(a) for a in argtext.split(",")] if argtext.strip() else []
    except ValueError:
        raise ConfigError(f"{key}: malformed arguments in {text!r}") from None
    _require_finite(key, args)
    if len(args) not in (families[name], families[name] - 1):
        raise ConfigError(f"{key}: {name} takes up to {families[name]} numeric arguments")
    return name, args


def _ma_coeffs(fields: _Fields) -> tuple[float, ...]:
    from .logvol import LogvolParams, block_working_bytes, fractional_ma, geometric_ma
    text = fields.str_("logvol.ma", "geometric(0.5, 512)")
    if "(" in text:
        name, args = _parse_call("logvol.ma", text, {"geometric": 2, "fractional": 2})
        lag = args[1] if len(args) > 1 else 512
        if lag < 0 or lag != int(lag):
            raise ConfigError(f"logvol.ma: lag must be a non-negative integer, got {lag:g}")
        lag = int(lag)
        family = geometric_ma if name == "geometric" else fractional_ma
        # Refused before the coefficients are built when the smallest run, one
        # step of logvol-sim, cannot hold them.  Whether the MA runs as a scan
        # is the same at every lag from 2 on, so three taps decide the rate.
        try:
            head = family(args[0], min(lag, 2))
        except ValueError as exc:
            raise ConfigError(f"logvol.ma: {exc}") from None
        rate = LogvolParams(gamma=0.5, rho=0.0, ma_coeffs=head).ma_rate
        need = block_working_bytes(lag, rate, 1, _MIN_REPLICAS)
        if need > MEMORY_CAP_BYTES:
            raise ConfigError(
                f"logvol.ma: lag {lag} is over the longest a run can hold under the "
                f"{MEMORY_CAP_BYTES / 2**30:g} GiB memory cap ({_MIN_REPLICAS} replicas for "
                f"one step would hold {need / 2**30:.3g} GiB)"
            )
        return family(args[0], lag)
    try:
        coeffs = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise ConfigError(f"logvol.ma: malformed coefficient list {text!r}") from None
    if not coeffs:
        raise ConfigError("logvol.ma: coefficient list must be nonempty")
    _require_finite("logvol.ma", coeffs)
    return coeffs


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int
    replicas: int
    output_dir: str
    model: Any
    options: dict[str, Any]
    resolved: dict[str, Any] = field(repr=False, default_factory=dict)
    peak_bytes: int = 0  # estimate, see _estimate_peak_bytes


_CONFIG_NAMES = {"ma_coeffs": "ma", "zeta": "drift"}  # model fields keyed under another name


def _wrap_invariant(section: str, exc: Exception) -> ConfigError:
    """A model's refusal under its config key: each refusal's message starts
    with the model field it refuses (``gamma must lie ...`` is ``ar1.gamma``)."""
    name = str(exc).split(" ", 1)[0]
    return ConfigError(f"{section}.{_CONFIG_NAMES.get(name, name)}: {exc}")


def _estimate_peak_bytes(experiment: str, replicas: int, model, options: dict) -> int:
    """Bytes a run holds at once, by arithmetic before any compute: the
    per-replica arrays its driver keeps (8 bytes a float) and CSV rows, plus
    the working set its simulator states (``fracvol.ensemble_working_bytes``,
    ``logvol.block_working_bytes``)."""
    r = replicas
    if experiment == "ar1-bound":
        return 0
    if experiment == "ar1-couple":  # uniform pairs and an int8 event code per step
        return r * (17 * options["t"] + _CSV_ROW_BYTES)
    if experiment == "sde-sim":  # each state's samples and CSV rows
        per_state = 8 * len(options["record_steps"]) + _CSV_ROW_BYTES * len(options["checkpoints"])
        return ensemble_working_bytes(model, r) + len(options["l0"]) * r * per_state
    from .logvol import block_working_bytes, logvol_schedule
    if experiment == "logvol-sim":  # the checkpoint samples
        steps = max(options["checkpoints"])
        return (r * 8 * len(set(options["checkpoints"]))
                + block_working_bytes(model.lag, model.ma_rate, steps, r))
    try:
        schedule = logvol_schedule(model, options["m_max"])
    except ScheduleError:
        return 0  # the run stops once the schedule fails
    # logvol-couple: draws, uniform pairs, environment and codes per replica
    steps = min(schedule.M_of_m[options["target_block"]], options["step_cap"])
    per_replica = 8 * (model.lag + steps + 2) + 33 * steps + 18
    return r * per_replica + block_working_bytes(model.lag, model.ma_rate, steps, r, draws=False)


def load_config_text(text: str) -> ExperimentConfig:
    raw = parse_config_text(text)
    fields = _Fields(raw)
    experiment = fields.str_("experiment", _REQUIRED)
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment: unknown kind {experiment!r}; expected one of {EXPERIMENTS}")
    seed = fields.int_("seed", 12345)
    if seed < 0:
        raise ConfigError(f"seed: must be a non-negative integer, got {seed}")
    output_dir = fields.str_("output.dir", f"runs/{experiment}")

    options: dict[str, Any] = {}
    replicas = 1
    # ar1 and logvol load scipy.special, so each is imported by its own configs only
    if experiment in ("ar1-bound", "ar1-couple"):
        from .ar1 import Ar1Params, ar1_lyapunov_constant
        bound = experiment == "ar1-bound"
        gamma = fields.float_("ar1.gamma", 0.5)
        beta = fields.float_("ar1.beta", 0.4 * (1.0 - gamma**2))
        x0 = fields.float_("ar1.x0", 0.0 if bound else 1.0)
        eta = {"eta": fields.float_("ar1.eta", 0.1)} if bound else {}  # a bound-schedule knob
        try:
            model = Ar1Params(gamma=gamma, beta=beta, x0=x0, **eta)
        except ValueError as exc:
            raise _wrap_invariant("ar1", exc) from None
        # The run's Lyapunov term: the bound's 4 sup_t E[exp(beta X_t^2)], or
        # x0^2 in the coupling's sup_t E[X_t^2].
        lyapunov = 4.0 * ar1_lyapunov_constant(model) if bound else x0 * x0
        if not math.isfinite(lyapunov):
            raise ConfigError(f"ar1.x0: {x0:g} overflows the run's Lyapunov term")
    if experiment == "ar1-bound":
        options["t_grid"] = fields.int_list("ar1.t_grid", (10, 100, 1000, 10000))
        if min(options["t_grid"]) < 2:
            raise ConfigError("ar1.t_grid: horizons must be at least 2")
    elif experiment == "ar1-couple":
        from . import coupling  # the run's engine, loaded here so that the run imports none
        options["n"] = fields.int_("couple.n", 3)
        options["s"] = fields.int_("couple.s", 50)
        options["t"] = fields.int_("couple.t", 100)
        if not 1 <= options["s"] <= options["t"]:
            raise ConfigError("couple.s: need 1 <= s <= t")
        if options["n"] < 0:
            raise ConfigError("couple.n: ladder index must be nonnegative")
        replicas = fields.int_("replicas", 10000)
    elif experiment in ("logvol-sim", "logvol-couple"):
        from .logvol import LogvolParams
        gamma = fields.float_("logvol.gamma", 0.5)
        rho = fields.float_("logvol.rho", 0.3)
        x0 = fields.float_("logvol.x0", 0.0)
        coeffs = _ma_coeffs(fields)
        try:
            model = LogvolParams(gamma=gamma, rho=rho, ma_coeffs=coeffs, x0=x0)
        except ValueError as exc:
            raise _wrap_invariant("logvol", exc) from None
        if experiment == "logvol-sim":
            options["checkpoints"] = fields.int_list("logvol.checkpoints", (10, 100))
            if min(options["checkpoints"]) < 1:
                raise ConfigError("logvol.checkpoints: horizons must be at least 1")
        else:
            options["m_max"] = fields.int_("logvol.m_max", 4)
            options["target_block"] = fields.int_("logvol.target_block", 3)
            options["step_cap"] = fields.int_("logvol.step_cap", 20000)
            options["x0_pair"] = fields.float_list("logvol.x0_pair", (1.0, -1.0))
            for key in ("target_block", "step_cap"):
                if options[key] < 1:
                    raise ConfigError(f"logvol.{key}: must be at least 1")
            if options["m_max"] < options["target_block"]:
                raise ConfigError("logvol.m_max: must cover the target block")
            if len(options["x0_pair"]) != 2:
                raise ConfigError("logvol.x0_pair: need exactly two starts")
        replicas = fields.int_("replicas", 10000)
    else:  # sde-sim
        drift_text = fields.str_("sde.drift", "linear(1.0)")
        name, args = _parse_call("sde.drift", drift_text, {"linear": 1, "saturating": 2})
        try:
            drift = linear_drift(*args) if name == "linear" else saturating_drift(*args)
        except OverflowError:  # a parameter squared past the largest double
            raise ConfigError(f"sde.drift: {drift_text}: the growth constant overflows") from None
        except ValueError as exc:
            raise ConfigError(f"sde.drift: {exc}") from None
        kern_text = fields.str_("sde.kernel", "exponential(1.0)")
        kname, kargs = _parse_call("sde.kernel", kern_text, {"exponential": 1, "fractional": 1})
        param, default = ("lam", 1.0) if kname == "exponential" else ("h", 0.1)
        try:
            kernel = VolatilityKernel(kind=kname, **{param: kargs[0] if kargs else default})
        except ValueError as exc:
            raise ConfigError(f"sde.kernel: {exc}") from None
        # read before the try, which would key their own refusals a second time
        rho = fields.float_("sde.rho", 0.3)
        dt = fields.float_("sde.dt", 1.0 / 256.0)
        horizon = fields.float_("sde.horizon", 20.0)
        burn_in = fields.float_("sde.burn_in", 10.0)
        try:
            model = SdeParams(zeta=drift, kernel=kernel, rho=rho, dt=dt, horizon=horizon,
                              burn_in=burn_in)
        except ValueError as exc:
            raise _wrap_invariant("sde", exc) from None
        # at lipschitz * dt >= 2 an explicit Euler step of a linear drift multiplies
        # the state by 1 - kappa dt <= -1: the paths oscillate without decay or overflow
        if drift.lipschitz * dt >= 2.0:
            raise ConfigError(
                f"sde.drift: {drift_text}: its Lipschitz constant {drift.lipschitz:g} times "
                f"sde.dt = {dt:g} is {drift.lipschitz * dt:.3g}, at or past 2, where the "
                f"explicit Euler step is unstable"
            )
        options["l0"] = fields.float_list("sde.l0", (-2.0, 2.0))
        if len(options["l0"]) < 2:
            raise ConfigError("sde.l0: need at least two initial states to compare")
        if len(set(options["l0"])) < len(options["l0"]):
            raise ConfigError("sde.l0: initial states must be distinct; equal starts "
                              "forget nothing")
        options["checkpoints"] = fields.float_list("sde.checkpoints", (5.0, 10.0, 20.0))
        options["increment_lags"] = fields.float_list("sde.increment_lags", (0.1, 0.01))
        if min(model.step_of(h) for h in options["increment_lags"]) < 1:
            raise ConfigError(f"sde.increment_lags: lags must be at least half a grid step "
                              f"(sde.dt = {model.dt:g})")
        options["increment_base"] = fields.float_("sde.increment_base", 10.0)
        options["tv_threshold"] = fields.float_("sde.tv_threshold", 0.1)
        for t in options["checkpoints"]:
            if not 0.0 <= t <= model.horizon:
                raise ConfigError(f"sde.checkpoints: {t} outside [0, horizon]")
        # the increment window is checked on the grid it runs on, base step plus lag steps
        base = model.step_of(options["increment_base"])
        reach = base + model.step_of(max(options["increment_lags"]))
        if options["increment_base"] < 0.0 or reach > model.horizon_steps:
            raise ConfigError("sde.increment_base: increment window leaves [0, horizon]")
        # the distinct grid steps a run records: each checkpoint, the base and the base plus each lag
        options["record_steps"] = sorted(
            {model.step_of(t) for t in options["checkpoints"]}
            | {base} | {base + model.step_of(h) for h in options["increment_lags"]}
        )
        replicas = fields.int_("replicas", 10000)

    if experiment != "ar1-bound" and replicas < _MIN_REPLICAS:
        raise ConfigError(f"replicas: a Monte Carlo experiment needs {_MIN_REPLICAS} or more")

    unused = fields.unused_keys()
    if unused:
        raise ConfigError(f"{unused[0]}: unknown field for experiment {experiment!r}")
    peak = _estimate_peak_bytes(experiment, replicas, model, options)
    if peak > MEMORY_CAP_BYTES:
        raise ConfigError(
            f"replicas: the run would hold about {peak / 2**30:.3g} GiB at once, "
            f"over the {MEMORY_CAP_BYTES / 2**30:g} GiB cap"
        )
    if experiment == "sde-sim":  # the replica-step cap simulate_ensemble enforces
        steps = replicas * (model.burn_steps + model.horizon_steps)
        if steps > RESOURCE_CAP:
            raise ConfigError(
                f"replicas: the ensemble needs {steps:.3g} replica-steps, "
                f"over the cap {RESOURCE_CAP:.3g}"
            )

    resolved = dict(fields.resolved)
    resolved["experiment"] = experiment
    return ExperimentConfig(
        experiment=experiment,
        seed=seed,
        replicas=replicas,
        output_dir=output_dir,
        model=model,
        options=options,
        resolved=resolved,
        peak_bytes=peak,
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return load_config_text(fh.read())
