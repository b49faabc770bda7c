"""The benchmark's contract with the library.

``perfbench`` times ucam by rebinding library attributes (``spans.Tracer``)
and drives it through the calls in ``perfbench/workloads.py``. Its own tests
sit outside this suite's ``testpaths``, so these tests catch, in the suite,
a renamed attribute or a changed signature that would break the benchmark.
They pin names and signatures only: whether an operation's output is right
stays with the benchmark's own checks.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_tracer_install_rebinds_and_uninstall_restores_every_attribute():
    tracer = spans.Tracer()
    tracer.install()
    try:
        saved = list(tracer._saved)
        assert saved
        for obj, attr, original in saved:
            assert getattr(obj, attr) is not original, attr
    finally:
        tracer.uninstall()
    for obj, attr, original in saved:
        assert getattr(obj, attr) is original, attr


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_prepares_and_runs_one_operation(tmp_path, name):
    wl = workloads.WORKLOADS[name](1, str(tmp_path))
    wl.prepare()
    seconds, frames, _ = wl.run_op(0)
    assert seconds > 0 and frames > 0
