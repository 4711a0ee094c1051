"""The benchmark's own output checks, run on one warm-up pass of each workload.

perfbench/run.py compares a warm-up pass with brute-force references before
it measures anything, and a run whose outputs fail those checks measures
nothing. Running the same checks here catches such a change in the tier-1
tests, without a benchmark run.
"""

from __future__ import annotations

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import run  # noqa: E402 - perfbench/run.py, found through the path set above


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_warmup_pass_passes_the_benchmark_output_checks(tmp_path, monkeypatch, name):
    monkeypatch.setattr(run, "sg", run.import_package())
    s = run.Setup(run.WORKLOADS[name], 1, tmp_path / name, None, "smoke")
    try:
        out = tmp_path / "out"
        first = run.run_pass(s, out, None, "warmup", {})
        assert run.check_outputs(s, first, out) == []
    finally:
        s.close()
