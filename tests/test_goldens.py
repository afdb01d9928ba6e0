"""Every benchmark job still gives its golden verdict.

`perfbench/run.py` checks each job's exit code, `--report` digest and, for
the Weyl mutant, its witness line against `perfbench/goldens.json`, but only
when the benchmark runs.  This runs every job of the three workloads once,
through the benchmark's own `workload`, `run_pass` and `check`, in a scratch
directory laid out like the repository root: report names embed the input
paths, so the seed-0 rank-3 inputs are written at the relative path the
goldens were recorded with, and the fixtures are copied alongside.
"""

import importlib.util
import json
import pathlib
import shutil
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


run = _load_run()
GOLDENS = json.loads(run.GOLDENS.read_text())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_matches_its_goldens(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    shutil.copytree(ROOT / "tests" / "fixtures", tmp_path / "tests" / "fixtures")
    jobs, files, _ = run.workload(name, 0)
    (run.WORK / "reports").mkdir(parents=True)
    for path, text in files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    _, _, outcomes = run.run_pass(jobs)
    failures, _ = run.check(jobs, outcomes, GOLDENS)
    assert failures == []


def test_the_weyl_mutant_is_checked_for_its_witness():
    jobs, _, _ = run.workload("validate-rank3-moufang", 0)
    assert [job.id for job in jobs if job.witness is not None] == ["g2_weyl_mutated"]
