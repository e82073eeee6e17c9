import ast
import glob
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import splitcouple
from oracles import direct_valid_sum
from splitcouple import streams
from splitcouple.errors import RunError
from splitcouple.fracvol import VolatilityKernel, _kernel_taps
from splitcouple.logvol import geometric_ma
from splitcouple.streams import (
    ConvPlan,
    ScanPlan,
    _fast_len,
    _pcg64_states,
    ma_plan,
    ma_plan_row_bytes,
    replica_blocks,
    replica_rng,
    replica_uniform_pairs,
    stream_state_bytes,
)


@pytest.mark.parametrize("rows,n_in,n_taps", [
    (10_000, 614, 513),  # the shipped logvol-sim environment
    (300, 524, 513),
    (2_000, 203, 1),  # the one-tap MCRE config (logvol.ma = 0.1)
    (1, 700, 513),
    (5, 3, 2),
])
def test_conv_plan_matches_fftconvolve(rows, n_in, n_taps):
    from scipy.signal import fftconvolve

    x = replica_rng(17, n_taps).standard_normal((rows, n_in))
    taps = np.asarray(geometric_ma(0.1 if n_taps == 1 else 0.9, n_taps - 1))
    want = fftconvolve(x, taps[None, :], mode="valid", axes=1)
    plan = ConvPlan(taps, rows, n_in)
    assert np.array_equal(plan(x), want)
    # a partial block refills the same buffers and still matches
    assert np.array_equal(plan(x[: rows // 2 + 1]), want[: rows // 2 + 1])


def test_import_leaves_slow_scipy_modules_out():
    # scipy.signal alone costs a fresh process about 0.9 s; a later stray
    # module-level import of it (or of scipy.optimize or scipy.stats) would
    # bring that back into every CLI run.
    code = (
        "import sys, splitcouple, splitcouple.cli, splitcouple.harness\n"
        "print(*[m for m in ('scipy.signal', 'scipy.optimize', 'scipy.stats') if m in sys.modules])"
    )
    src = os.path.dirname(os.path.dirname(splitcouple.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == ""


_TINY_SDE = """\
experiment = sde-sim
seed = 5
replicas = 100
sde.kernel = exponential(10.0)
sde.horizon = 1.0
sde.burn_in = 1.0
sde.dt = 0.015625
sde.checkpoints = 0.25, 1.0
sde.increment_base = 0.5
sde.increment_lags = 0.125, 0.03125
"""


def test_sde_path_loads_no_scipy_and_ar1_configs_load_it_at_config_time(tmp_path):
    # Importing the package loads no submodule.  Importing it with the CLI,
    # then loading and running an sde-sim config, must leave scipy out of a
    # fresh process, and the run must import nothing that set-up did not
    # (numpy loads some submodules on first use); an ar1 config loads
    # scipy.special in load_config, so that cost stays out of the run.
    sde_cfg = tmp_path / "sde.cfg"
    sde_cfg.write_text(_TINY_SDE, encoding="utf-8")
    ar1_cfg = os.path.join(os.path.dirname(__file__), "..", "configs", "ar1-couple.cfg")
    code = (
        "import json, sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "import splitcouple\n"
        "seen = {'bare': sorted(m for m in sys.modules if m.startswith('splitcouple.'))}\n"
        "import splitcouple.cli, splitcouple.harness\n"
        "seen['import'] = scipy_modules()\n"
        "splitcouple.cli.main(['validate', sys.argv[1]])\n"
        "before = set(sys.modules)\n"
        "rc = splitcouple.cli.main(['run', sys.argv[1], '--out', sys.argv[2]])\n"
        "seen['run'] = scipy_modules()\n"
        "seen['run_imports'] = sorted(set(sys.modules) - before)\n"
        "from splitcouple.config import load_config\n"
        "load_config(sys.argv[3])\n"
        "seen['ar1'] = scipy_modules()\n"
        "print(json.dumps({'rc': rc, **seen}))\n"
    )
    src = os.path.dirname(os.path.dirname(splitcouple.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code, str(sde_cfg), str(tmp_path / "out"), ar1_cfg],
        env=env, capture_output=True, text=True, check=True,
    )
    seen = json.loads(out.stdout.strip().splitlines()[-1])
    assert seen["rc"] in (0, 1) and (tmp_path / "out" / "sde-sim.csv").is_file()
    assert seen["bare"] == []
    assert seen["import"] == []
    assert seen["run"] == []
    assert seen["run_imports"] == []
    assert "scipy.special" in seen["ar1"]


_CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


@pytest.mark.parametrize("name", sorted(os.listdir(_CONFIGS)))
def test_a_run_imports_no_module(name, tmp_path):
    # Whatever a run needs is imported by the package or by load_config, so
    # that set-up pays for it: in a fresh process, harness.run and
    # write_report on each shipped config, cut to 100 replicas, load no
    # module that load_config had not.
    with open(os.path.join(_CONFIGS, name), encoding="utf-8") as fh:
        text = fh.read()
    if "experiment = ar1-bound" not in text:
        text += "replicas = 100\n"
    code = (
        "import json, sys\n"
        "from splitcouple import config, harness\n"
        "cfg = config.load_config_text(sys.stdin.read())\n"
        "before = set(sys.modules)\n"
        "harness.write_report(harness.run(cfg), sys.argv[1])\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    src = os.path.dirname(os.path.dirname(splitcouple.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")], input=text,
                         env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.strip().splitlines()[-1]) == []


def test_fast_len_is_scipy_s_real_transform_length():
    from scipy.fft import next_fast_len

    for n in [*range(1, 20_001), 2**20 + 1, 3**13, 10**6 + 1, 7**9, 2**31 - 1]:
        assert _fast_len(n) == next_fast_len(n, True), n


def test_every_public_function_and_class_is_named_by_another_src_line():
    # src/ holds what a run reaches: each public module-level function and
    # class is named on a line of the package other than its definition.
    # What only tests and the acceptance criteria call lives in
    # tests/oracles.py.
    lines, defs = [], []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(splitcouple.__file__), "*.py"))):
        name = os.path.basename(path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        lines += [(name, i, line) for i, line in enumerate(text.splitlines(), 1)]
        defs += [(name, node.lineno, node.name) for node in ast.parse(text, path).body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and not node.name.startswith("_")]
    unnamed = [f"{name}: {defined}" for name, lineno, defined in defs
               if not any(re.search(rf"\b{defined}\b", line)
                          for other, i, line in lines if (other, i) != (name, lineno))]
    assert unnamed == []


def test_no_module_imports_another_module_s_private_name():
    # What one module needs of another, such as the sizes a memory estimate
    # reads, the other states under a public name; an underscore name stays
    # in its module, so changing it cannot leave a stale copy elsewhere.
    found = []
    for path in sorted(glob.glob(os.path.join(os.path.dirname(splitcouple.__file__), "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        name = os.path.basename(path)
        siblings = set()  # names bound to the package's modules
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if not (node.level or (node.module or "").startswith("splitcouple")):
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{name}: from {node.module} import {alias.name}")
                if node.module in (None, "splitcouple"):
                    siblings.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in siblings and node.attr.startswith("_")):
                found.append(f"{name}: {node.value.id}.{node.attr}")
    assert found == []


def test_replica_rng_is_called_in_streams_only():
    # Each replica's stream layout is drawn in one place (streams.replica_blocks).
    # No module starts a thread: a run spreads over processes (parallel), whose
    # number is a constant of the code, never read from the environment.
    for path in glob.glob(os.path.join(os.path.dirname(splitcouple.__file__), "*.py")):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        name = os.path.basename(path)
        if name != "streams.py":
            assert "replica_rng(" not in text, name
        assert "SPLITCOUPLE_WORKERS" not in text, name
        assert "ThreadPoolExecutor" not in text and "threading" not in text, name
        assert "os.environ" not in text and "getenv" not in text, name


@settings(max_examples=60, deadline=None)
@given(
    start=st.integers(1, 50),
    count=st.integers(0, 30),
    rows=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
)
def test_replica_blocks_concatenate_to_each_replica_s_direct_draws(start, count, rows, seed):
    gen = np.random.Generator
    layout = [(gen.standard_normal, (3,)), (gen.random, (4, 2)), (gen.standard_normal, (2, 3))]
    replicas = range(start, start + count)
    starts, got = [], []
    for lo, hi, draws in replica_blocks(seed, replicas, rows, layout):
        assert 0 < hi - lo <= rows and all(len(d) == hi - lo for d in draws)
        starts.append(lo)
        got.append([d.copy() for d in draws])  # the next block refills these buffers
    assert starts == list(range(start, start + count, rows))
    direct = []
    for k in replicas:
        rng = replica_rng(seed, k)
        direct.append([draw(rng, shape) for draw, shape in layout])
    for j, (_, shape) in enumerate(layout):
        want = np.array([d[j] for d in direct]).reshape(count, *shape)
        whole = np.concatenate([g[j] for g in got] or [np.empty((0, *shape))])
        assert np.array_equal(whole, want)


def test_uniform_pairs_of_a_replica_range_are_rows_of_the_whole_table():
    whole = replica_uniform_pairs(23, range(9), 5)
    assert whole.shape == (9, 5, 2)
    assert np.array_equal(replica_uniform_pairs(23, range(4, 7), 5), whole[4:7])
    assert np.array_equal(whole[6], replica_rng(23, 6).random((5, 2)))
    assert replica_uniform_pairs(23, range(3, 3), 5).shape == (0, 5, 2)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1, 2**100 + 3]),
    start=st.integers(0, 2**32 - 1),
    count=st.integers(0, 25),
    rows=st.integers(1, 7),
    state_slice=st.integers(1, 9),
)
def test_worked_out_states_and_draws_are_each_replica_s_own(seed, start, count, rows,
                                                            state_slice):
    # Seeds of one to four words (zero-padded to SeedSequence's pool) and
    # more, replica indices up to 2^32 - 1, and state slices that cut across
    # blocks: every replica's state and draws are replica_rng's.
    replicas = range(start, min(start + count, 2**32))
    direct = [replica_rng(seed, k) for k in replicas]
    states = [rng.bit_generator.state for rng in direct]
    assert all(s["has_uint32"] == s["uinteger"] == 0 for s in states)
    assert list(_pcg64_states(seed, replicas)) == [
        (s["state"]["state"], s["state"]["inc"]) for s in states]
    gen = np.random.Generator
    layout = [(gen.standard_normal, (3,)), (gen.random, (2, 2))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(streams, "_STATE_SLICE", state_slice)
        blocks = [[d.copy() for d in draws]
                  for _, _, draws in replica_blocks(seed, replicas, rows, layout)]
    for j, (draw, shape) in enumerate(layout):
        got = np.concatenate([b[j] for b in blocks] or [np.empty((0, *shape))])
        want = np.array([draw(rng, shape) for rng in direct]).reshape(len(replicas), *shape)
        assert np.array_equal(got, want)


def test_replica_indices_past_one_word_and_negative_seeds_are_refused():
    layout = [(np.random.Generator.random, (2,))]
    with pytest.raises(ValueError, match="replica indices"):
        next(replica_blocks(1, range(2**32 - 2, 2**32 + 1), 8, layout))
    with pytest.raises(ValueError, match="replica indices"):
        next(_pcg64_states(1, range(2**32, 2**32 + 1)))
    with pytest.raises(ValueError, match="non-negative"):
        next(_pcg64_states(-1, range(3)))


def test_a_block_whose_worked_out_state_differs_from_replica_rng_s_is_refused(monkeypatch):
    monkeypatch.setattr(streams, "_PCG_MULT", streams._PCG_MULT + 2)
    with pytest.raises(RunError, match="replica 5"):
        next(replica_blocks(7, range(5, 9), 4, [(np.random.Generator.random, (2,))]))


@pytest.mark.parametrize("lam,dt,burn_in,steps,scale", [
    (1.0, 1 / 256, 10.0, 5120, 1.0),  # the shipped sde-sim: 20 blocks of 256 steps
    (1.0, 0.35, 10.0, 40, 1.0),  # the last tap, at 10.15 > burn_in, is cut to 0
    (2.0, 0.7, 10.0, 33, 1.0),  # lam dt >= 1: one step a block
    (1.0, 1 / 64, 10.0, 300, 1.0),  # 300 steps in blocks of 64
    (1.0, 1 / 64, 10.0, 300, 0.5),  # the same taps halved
    (5.0, 1 / 64, 2.0, 77, 1.0),  # blocks of 12
    (1e6, 1 / 64, 10.0, 100, 1.0),  # lam dt > 745: every tap underflows to 0, so J = 0
])
def test_scan_plan_matches_a_direct_sum_and_conv_plan(lam, dt, burn_in, steps, scale):
    # ScanPlan takes geometric taps of any first value: the kernel's, times scale
    taps = scale * _kernel_taps(VolatilityKernel(kind="exponential", lam=lam), dt, burn_in)
    n_in = taps.size + steps
    x = replica_rng(29, steps).standard_normal((16, n_in)) * math.sqrt(dt)
    plan = ScanPlan(taps, lam * dt, 16, n_in)
    got = plan(x).copy()
    assert got.shape == (16, steps + 1)
    rows = 4 if steps > 1000 else 16  # the long-double sum is slow
    assert np.max(np.abs(got[:rows] - direct_valid_sum(x[:rows], taps))) <= 1e-13
    assert np.max(np.abs(got - ConvPlan(taps, 16, n_in)(x))) <= 1e-13
    if lam * dt > 745.0:
        assert plan.m == 0 and np.all(got == 0.0)
    # a row's result does not depend on the rows around it
    alone = ScanPlan(taps, lam * dt, 1, n_in)
    for i in (0, 7, 15):
        assert np.array_equal(alone(x[i : i + 1])[0], got[i])
    assert np.array_equal(plan(x[3:8]), got[3:8])  # a partial block refills the buffers


@pytest.mark.parametrize("n_taps, n_in, rate", [
    (513, 614, None),  # the shipped logvol-sim environment by transform
    (513, 614, math.log(2.0)),  # and by scan, one step a block
    (65, 166, -math.log(0.95)),  # scan blocks of 19 steps
    (640, 1920, 1.0 / 64.0),  # an sde-sim exponential kernel at dt = 1/64
    (640, 1920, None),  # and a fractional one
    (1, 203, None),  # one tap: the product the plan returns
    (2, 5, None),
])
def test_ma_plan_row_bytes_are_what_a_row_of_the_plan_holds(n_taps, n_in, rate):
    rows = 3
    plan = ma_plan(0.9 ** np.arange(n_taps), rows, n_in, rate)
    if rate is not None:
        held = plan.out.nbytes + plan.work.nbytes + plan.starts.nbytes
    elif n_taps > 1:
        held = plan.spec.nbytes + plan.full.nbytes
    else:
        held = plan(np.ones((rows, n_in))).nbytes
    assert rows * ma_plan_row_bytes(n_taps, n_in, rate) == held


@pytest.mark.parametrize("replicas, rows", [(1, 1), (16, 1), (1023, 64), (1025, 1024), (3000, 16)])
def test_stream_state_bytes_cover_what_replica_blocks_holds_beside_its_buffers(replicas, rows):
    gen = np.random.Generator
    layout = [(gen.standard_normal, (40,)), (gen.random, (10, 2))]
    tracemalloc.start()
    try:
        for _ in replica_blocks(2**70 + 5, range(9, 9 + replicas), rows, layout):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = peak - min(rows, replicas) * 8 * (40 + 20)  # beside the draw buffers
    assert held <= stream_state_bytes(replicas)
    if replicas > 1000:  # where the states, not the generator, dominate
        assert stream_state_bytes(replicas) < 1.5 * held
