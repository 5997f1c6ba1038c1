"""The perfbench tracer's hold on mcni: the names and shapes it patches.

perfbench/tracer.py wraps mcni's public functions from outside, swaps the
runners in ``cli.COMMANDS`` and counts the bytes that ``runio.write_csv``
and ``runio.write_json`` leave at their first argument. A change that
breaks one of these is caught here, not only when the benchmark runs.
"""

import sys
from pathlib import Path

from mcni import cli, experiments, runio

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_spans_a_riskcov_run_and_uninstalls(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    from tracer import Tracer

    (tmp_path / "pred.csv").write_text("pred,target\n1.0,1.0\n2.0,2.5\n")
    (tmp_path / "unc.csv").write_text("uncertainty\n0.1\n0.2\n")
    before = dict(cli.COMMANDS)
    originals = (experiments.run_riskcov, runio.write_csv, runio.write_json)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.COMMANDS["riskcov"][1] is not before["riskcov"][1]
        code = cli.main(["riskcov", "--pred-file", str(tmp_path / "pred.csv"),
                         "--unc-file", str(tmp_path / "unc.csv"),
                         "--outdir", str(tmp_path / "rc")])
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK
    totals = tracer.totals()
    for name in ("experiments.run_riskcov", "runio.write_csv", "runio.write_json"):
        assert totals[name][0] >= 1, name
    assert tracer.bytes_written > 0
    assert cli.COMMANDS == before
    assert (experiments.run_riskcov, runio.write_csv, runio.write_json) == originals
