import os
import pickle
import signal
import tracemalloc

import numpy as np
import pytest

from oracles import SHIPPED_CONFIGS
from splitcouple import harness, parallel
from splitcouple.cli import main as cli_main
from splitcouple.config import (
    MEMORY_CAP_BYTES, _estimate_peak_bytes, load_config, load_config_text,
)
from splitcouple.errors import CertificationError, ConfigError, RunError
from splitcouple.harness import run

# Short runs of the four drivers that hand run_parts a part function.
_SPLIT_TEXTS = {
    "ar1-couple": "experiment = ar1-couple\nseed = 7\ncouple.s = 10\ncouple.t = 20\n",
    "logvol-sim": ("experiment = logvol-sim\nseed = 7\nlogvol.ma = geometric(0.5, 64)\n"
                   "logvol.checkpoints = 1, 40\n"),
    "logvol-couple": ("experiment = logvol-couple\nseed = 7\nlogvol.ma = 0.1\nlogvol.m_max = 1\n"
                      "logvol.target_block = 1\nlogvol.step_cap = 50\n"),
    "sde-sim": ("experiment = sde-sim\nseed = 7\nsde.dt = 0.0625\nsde.horizon = 2\n"
                "sde.checkpoints = 1, 2\nsde.increment_base = 1\nsde.increment_lags = 0.125\n"),
}


class _Sized(Exception):
    pass


def _replica_steps(cfg) -> int:
    """The steps a replica of ``cfg`` runs, as its driver hands them to run_parts."""
    def stop(part, replicas, steps):
        raise _Sized(steps)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "run_parts", stop)
        with pytest.raises(_Sized) as sized:
            run(cfg)
    return sized.value.args[0]


def _fewest_split(experiment: str) -> int:
    """The fewest replicas of ``_SPLIT_TEXTS[experiment]`` that are cut into parts."""
    steps = _replica_steps(load_config_text(_SPLIT_TEXTS[experiment]))
    return -(-parallel.WORKERS * parallel.MIN_PART // steps)


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_part_ranges_cut_at_the_minimum_part():
    m = parallel.MIN_PART
    assert parallel.part_ranges(2 * m - 1, 1) == [range(2 * m - 1)]
    assert parallel.part_ranges(2 * m, 1) == [range(m), range(m, 2 * m)]
    assert parallel.part_ranges(2 * m + 1, 1) == [range(m), range(m, 2 * m + 1)]
    # two replicas of m - 1, m and m + 1 steps: a part of that many replica-steps
    assert parallel.part_ranges(2, m - 1) == [range(2)]
    assert parallel.part_ranges(2, m) == parallel.part_ranges(2, m + 1) == [range(1), range(1, 2)]


_PERFBENCH_SDE_FRAC = ("experiment = sde-sim\nreplicas = 2000\nsde.kernel = fractional(0.1)\n"
                       "sde.dt = 0.00390625\n")
_PERFBENCH_LOGVOL_MCRE = ("experiment = logvol-couple\nreplicas = 2000\nlogvol.ma = 0.1\n"
                          "logvol.m_max = 1\nlogvol.target_block = 1\nlogvol.step_cap = 200\n")


@pytest.mark.parametrize("text, steps, parts", [
    (_PERFBENCH_SDE_FRAC, 7680, 2),  # 2,560 burn-in and 5,120 horizon steps
    (_PERFBENCH_LOGVOL_MCRE, 200, 2),
    ("experiment = ar1-couple\nreplicas = 1500\ncouple.s = 1\ncouple.t = 1\n", 1, 1),
], ids=["sde-frac", "logvol-mcre", "ar1-couple-one-step"])
def test_drivers_size_their_parts_by_replica_steps(text, steps, parts):
    # perfbench's 2,000-replica sde-frac and logvol-mcre runs split; a
    # one-step ar1-couple run of 1,500 replicas stays in one process.
    cfg = load_config_text(text)
    assert _replica_steps(cfg) == steps
    assert len(parallel.part_ranges(cfg.replicas, steps)) == parts


def test_part_ranges_keep_one_process_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert parallel.part_ranges(10 * parallel.MIN_PART, 1) == [range(10 * parallel.MIN_PART)]


@pytest.mark.parametrize("experiment", sorted(_SPLIT_TEXTS))
@pytest.mark.parametrize("workers, offset", [(2, -1), (2, 0), (2, 1), (3, 0)],
                         ids=["2-below", "2-at", "2-above", "3-at"])
def test_a_split_run_matches_its_part_over_every_replica_bit_for_bit(monkeypatch, experiment,
                                                                     workers, offset):
    # One replica fewer than the fewest whose parts hold the minimum part stays
    # in one process; at it and one above, every part but the first runs in a
    # forked child.  The reference calls the driver's part function once over
    # every replica.  The joined records or samples, the table and the results
    # must all agree bit for bit.
    monkeypatch.setattr(parallel, "WORKERS", workers)
    replicas = _fewest_split(experiment) + offset
    cfg = load_config_text(_SPLIT_TEXTS[experiment] + f"replicas = {replicas}\n")
    assert len(parallel.part_ranges(replicas, _replica_steps(cfg))) == (
        1 if offset < 0 else workers)
    joined = []

    def keep(how):
        def run_parts(part, n, steps):
            joined.append(how(part, n, steps))
            return joined[-1]
        return run_parts

    monkeypatch.setattr(harness, "run_parts", keep(parallel.run_parts))
    split = run(cfg)
    monkeypatch.setattr(harness, "run_parts", keep(lambda part, n, steps: part(range(n))))
    whole = run(cfg)
    assert _no_child_left()
    if experiment == "logvol-sim":
        assert list(joined[0]) == list(joined[1])
        assert all(joined[0][t].tobytes() == joined[1][t].tobytes() for t in joined[1])
    else:
        assert type(joined[0]) is type(joined[1]) and joined[0].dtype == joined[1].dtype
        assert joined[0].shape == joined[1].shape
        assert joined[0].tobytes() == joined[1].tobytes()
    assert split.results == whole.results and split.flags == whole.flags
    assert split.table_rows.dtype == whole.table_rows.dtype
    assert split.table_rows.tolist() == whole.table_rows.tolist()  # logvol-couple's holds ints


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                    reason="needs a process that may run on two CPUs")
def test_each_part_starts_on_a_cpu_of_its_own_and_keeps_every_cpu(monkeypatch):
    # This process moves to the first CPU it may use, the child to the
    # second; then each may again run on every CPU it could before, and each
    # part returns the CPUs its process may run on while it runs.
    before = sorted(os.sched_getaffinity(0))
    moves = []
    real = os.sched_setaffinity

    def record(pid, cpus):
        moves.append((os.getpid(), sorted(cpus)))
        real(pid, cpus)

    monkeypatch.setattr(os, "sched_setaffinity", record)
    cpus = parallel.run_parts(lambda rows: np.array([sorted(os.sched_getaffinity(0))]).T,
                              2, parallel.MIN_PART)
    assert cpus.T.tolist() == [before, before]
    # the child's moves are recorded in its own copy of the list
    assert moves == [(os.getpid(), [before[0]]), (os.getpid(), before)]
    assert sorted(os.sched_getaffinity(0)) == before
    assert _no_child_left()


@pytest.mark.parametrize("block", ["missing", "refused"])
def test_a_run_goes_on_where_a_process_may_not_choose_its_cpu(monkeypatch, block):
    if block == "missing":
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    else:
        def refuse(pid, cpus):
            raise PermissionError("not allowed")
        monkeypatch.setattr(os, "sched_setaffinity", refuse)
    out = parallel.run_parts(lambda rows: np.arange(rows.start, rows.stop),
                             2 * parallel.MIN_PART, 1)
    assert out.tolist() == list(range(2 * parallel.MIN_PART))
    assert _no_child_left()


class _TwoArgs(Exception):
    # pickles as _TwoArgs(message), which does not unpickle
    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


def _raise(exc):
    def fail():
        raise exc
    return fail


def _unpicklable():
    exc = RuntimeError("holds a lambda")
    exc.hook = lambda: None
    raise exc


_KILLED = ("error: {upper}: the forked process ended without a result "
           f"(killed by signal {int(signal.SIGKILL)})")
# The call of each driver's part function that the planted failure replaces,
# and the position of its replica range.
_PLANTED = {"ar1-couple": ("replica_uniform_pairs", 1), "sde-sim": ("simulate_ensemble", 2)}


@pytest.mark.parametrize("experiment, where, fail, message", [
    ("ar1-couple", "upper", _raise(CertificationError("upper part refused")),
     "error: upper part refused"),
    ("ar1-couple", "lower", _raise(CertificationError("lower part refused")),
     "error: lower part refused"),
    ("ar1-couple", "upper", lambda: os.kill(os.getpid(), signal.SIGKILL), _KILLED),
    ("ar1-couple", "upper", _raise(_TwoArgs("no", "unpickle")),
     "error: {upper}: _TwoArgs: no unpickle"),
    ("ar1-couple", "upper", _unpicklable, "error: {upper}: RuntimeError: holds a lambda"),
    ("sde-sim", "upper", _raise(RunError("upper ensemble failed")),
     "error: upper ensemble failed"),
    ("sde-sim", "lower", _raise(RunError("lower ensemble failed")),
     "error: lower ensemble failed"),
    ("sde-sim", "upper", lambda: os.kill(os.getpid(), signal.SIGKILL), _KILLED),
], ids=["upper-raises", "lower-raises", "upper-killed", "upper-does-not-unpickle",
        "upper-does-not-pickle", "sde-upper-raises", "sde-lower-raises", "sde-upper-killed"])
def test_a_failed_part_exits_2_with_one_line_and_leaves_no_child(tmp_path, capsys, monkeypatch,
                                                                  experiment, where, fail,
                                                                  message):
    # The ar1-couple part draws its uniforms first and the sde-sim part runs
    # its ensemble; the planted failure fires there in the child's upper half
    # or in this process's lower half, which fails while the child still runs.
    name, at = _PLANTED[experiment]
    real = getattr(harness, name)

    def planted(*args):
        if (args[at].start > 0) == (where == "upper"):
            fail()
        return real(*args)

    monkeypatch.setattr(harness, name, planted)
    replicas = _fewest_split(experiment)
    cfg_path = tmp_path / "split.cfg"
    cfg_path.write_text(_SPLIT_TEXTS[experiment] + f"replicas = {replicas}\n", encoding="utf-8")
    assert cli_main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    upper = f"replicas {replicas // 2}-{replicas - 1}"
    assert capsys.readouterr().err == message.format(upper=upper) + "\n"
    assert not (tmp_path / "out").exists()
    assert _no_child_left()


def _shipped(name):
    return load_config([path for path in SHIPPED_CONFIGS if path.endswith(name)][0])


@pytest.mark.parametrize("make", [
    lambda: _shipped("ar1-couple.cfg"),
    lambda: _shipped("logvol-sim.cfg"),
    lambda: load_config_text(_SPLIT_TEXTS["logvol-couple"].replace("step_cap = 50", "step_cap = 1")
                             + "replicas = 5000\n"),
], ids=["ar1-couple-shipped", "logvol-sim-shipped", "logvol-couple-one-step"])
def test_the_estimate_covers_the_upper_part_traced_in_process(monkeypatch, make):
    # The forked child holds its part's draws and working set, then its
    # result beside the pickled payload; traced in this process, that peak
    # must sit under the one-process estimate and above two thirds of it.
    # A minimum part of 1,024 replica-steps splits the one-step run.
    monkeypatch.setattr(parallel, "MIN_PART", 1024)
    cfg = make()
    upper = parallel.part_ranges(cfg.replicas, _replica_steps(cfg))[-1]
    assert len(upper) < cfg.replicas
    peaks = []

    def upper_part(part, replicas, steps):
        tracemalloc.start()
        try:
            out = part(upper)
            pickle.dumps((True, out), pickle.HIGHEST_PROTOCOL)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(harness, "run_parts", upper_part)
    run(cfg)
    (peak,) = peaks
    assert peak <= cfg.peak_bytes < 1.5 * peak


def _first_process_peaks(monkeypatch, cfg) -> list[int]:
    """Traced peaks of the first process of ``cfg``'s split run, its child
    forked: over its own part, then over the join."""
    peaks = []

    def first_process(part, replicas, steps):
        def traced(rows):
            out = part(rows)
            if rows.start == 0:  # this process's part is done: the join follows
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
            return out

        assert len(parallel.part_ranges(replicas, steps)) == 2
        tracemalloc.start()
        try:
            joined = parallel.run_parts(traced, replicas, steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return joined

    monkeypatch.setattr(harness, "run_parts", first_process)
    run(cfg)
    assert _no_child_left()
    assert len(peaks) == 2
    return peaks


def test_the_estimate_covers_the_first_process_s_join_traced_in_process(monkeypatch):
    # The first process runs its part, then joins: the joined samples beside
    # its own part, then beside the child's payload and the part unpickled
    # from it.  Traced here, with the child forked, each phase's peak must sit
    # under the one-process estimate and the larger above two thirds of it.
    # One checkpoint keeps the CSV rows under the ensemble's buffers.
    cfg = load_config_text("experiment = sde-sim\nreplicas = 1600\nsde.dt = 0.015625\n"
                           "sde.checkpoints = 20\n")
    peaks = _first_process_peaks(monkeypatch, cfg)
    assert max(peaks) <= cfg.peak_bytes < 1.5 * max(peaks)


@pytest.mark.parametrize("text", [
    "replicas = 7000\nlogvol.checkpoints = " + ", ".join(str(t) for t in range(1, 41)) + "\n",
    "replicas = 60000\nlogvol.checkpoints = 1, 6\n",
], ids=["7000-replicas-40-checkpoints", "60000-replicas-2-checkpoints"])
def test_the_estimate_covers_a_join_that_outweighs_the_parts(monkeypatch, text):
    # Where the joined outputs outweigh a part's working set, the join is the
    # first process's peak, and the arrays it holds are not all of it: each
    # output array's objects (about 1 KiB) and what the finished part leaves
    # allocated (12-30 KiB) put the traced peak 1.0% and 0.7% over an
    # estimate that counted the arrays alone.  The second row stands for
    # 400,000 replicas at checkpoints 1 and 2 (0.2% over), which took 28 s
    # traced: tracemalloc slows each replica's stream set-up about twelvefold.
    cfg = load_config_text("experiment = logvol-sim\nlogvol.ma = geometric(0.5, 16)\n" + text)
    own, join = _first_process_peaks(monkeypatch, cfg)
    assert own < join <= cfg.peak_bytes < 1.5 * join


def test_the_memory_cap_reads_the_bytes_of_every_process():
    # 2.5M ar1-couple replicas would hold about 3 GiB a process, 5.6 GiB in all
    cfg = load_config_text("experiment = ar1-couple\nreplicas = 1000\n")
    one, total = _estimate_peak_bytes("ar1-couple", 2_500_000, cfg.model, cfg.options)
    assert one < MEMORY_CAP_BYTES < total
    with pytest.raises(ConfigError, match=r"^replicas: the run would hold about 5\.\d+ GiB"):
        load_config_text("experiment = ar1-couple\nreplicas = 2500000\n")
