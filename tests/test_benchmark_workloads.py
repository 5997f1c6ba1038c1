"""The benchmark's workloads, run once each against this checkout.

perfbench/run.py times the workloads of BENCHMARK.json; here each one is
built in its small mode, warmed up, called once and checked, the way a
benchmark worker does, so that a change to mcni that breaks the benchmark
fails here too. The run happens in a temporary directory with ``datasets/``
linked in, so the workloads' output directory never lands in the checkout.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
NAMES = [w["name"] for w in
         json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture
def workloads(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("workloads", "checks"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    (tmp_path / "datasets").symlink_to(ROOT / "datasets")
    monkeypatch.chdir(tmp_path)
    import workloads
    return workloads


@pytest.mark.parametrize("name", NAMES)
def test_small_workload_runs_clean(workloads, name):
    wl = workloads.WORKLOADS[name](7, True)
    wl.warmup()
    assert wl.check(0, wl.call(0)) == []
    assert wl.final_checks() == []
    if name == "fit_grid":
        # a repeat of the call reproduces its manifest digest
        assert wl.repeat_check(*wl.first_digest) == []
