import os
import subprocess
import sys

import numpy as np
import pytest

import splitcouple
from splitcouple.logvol import geometric_ma
from splitcouple.streams import ConvPlan, replica_rng, replica_uniform_pairs


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


def test_uniform_pairs_of_a_replica_range_are_rows_of_the_whole_table():
    whole = replica_uniform_pairs(23, range(9), 5)
    assert whole.shape == (9, 5, 2)
    assert np.array_equal(replica_uniform_pairs(23, range(4, 7), 5), whole[4:7])
    assert np.array_equal(whole[6], replica_rng(23, 6).random((5, 2)))
    assert replica_uniform_pairs(23, range(3, 3), 5).shape == (0, 5, 2)
