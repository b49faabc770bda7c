"""Pin BLAS to one thread for the whole test session.

Gates 01 and 06 bound ``time.process_time()``, which counts the CPU time of
every thread of the process. With BLAS on one thread those bounds mean the
same on a 2-core and a 64-core machine. BLAS reads these variables once,
when numpy loads, so this file must run before anything imports numpy.

Where at least two CPUs are usable, ``training``'s worker process runs the
second half of every batch of two or more utterances (in ``evaluate``,
``pseudo_label``, ``frame_error`` and every adaptation step) and each of
``fit``'s eval steps but a phase's last, and ``process_time()`` does not
count the worker's CPU time. Gate 01 neither evaluates nor fits. Gate 06's
fit of 800 steps evaluates its 32 utterances, in 8 batches of 4, at steps
400 and 800. Its bound counts neither the eval at step 400 and that
step's checkpoint writes, which run on the worker, nor the last 2
utterances of each batch of the eval at step 800, which splits: 12
batches' worth of forward work beside 800 training steps. Gate 07, which
adapts, bounds no CPU time.

Each test starts and ends with no worker, so the first call that can use
one forks it after the test's monkeypatches, which it then inherits, and
no worker outlives its test.
"""

import os
import sys

import pytest

if "numpy" in sys.modules:
    raise RuntimeError(
        "numpy was imported before tests/conftest.py could pin BLAS to one "
        "thread, so the CPU-time bounds of the gates would count every BLAS "
        "thread; run the tests with `python -m pytest` from the repository "
        "root, without a plugin or startup file that imports numpy")

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


@pytest.fixture(autouse=True)
def no_worker_across_tests():
    from ucam import training
    training.close_worker()
    yield
    training.close_worker()
