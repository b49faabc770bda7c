"""Pin BLAS to one thread for the whole test session.

Gates 01 and 06 bound ``time.process_time()``, which counts the CPU time of
every thread of the process. With BLAS on one thread those bounds mean the
same on a 2-core and a 64-core machine. BLAS reads these variables once,
when numpy loads, so this file must run before anything imports numpy.

``training.posteriors`` scores the second half of a long eval batch on an
executor's worker thread, whose CPU time ``process_time()`` counts too.
Neither gate crosses its floor of ``SPLIT_FRAMES`` padded frames a half:
gate 01 runs no eval, and gate 06 evaluates batches of 4 utterances of
T <= 35, at most 70 padded frames a half, so both still count one thread.

``adaptation.adapt_speaker`` runs the second half of every batch on a
worker process that it forks, and ``process_time()`` does not count that
process's CPU time. Gates 01 and 06 never adapt, and gate 07, which does,
bounds no CPU time.

``training.fit`` forks a child for each eval step but a phase's last, which
runs the dev eval and writes the log row and checkpoints, and
``process_time()`` does not count that child's CPU time either. Gate 01
does not fit. Gate 06's fit of 800 steps evaluates its 32 utterances at
steps 400 and 800, so its bound no longer counts the eval at step 400 and
that step's checkpoint writes, 8 forward batches beside 800 training steps.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError(
        "numpy was imported before tests/conftest.py could pin BLAS to one "
        "thread, so the CPU-time bounds of the gates would count every BLAS "
        "thread; run the tests with `python -m pytest` from the repository "
        "root, without a plugin or startup file that imports numpy")

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
