"""The benchmark's tracer can still find every function it instruments.

`perfbench/tracing.py` patches named functions and methods of rgdkit, and
its probes read cache attributes inside them; a rename or deletion of one of
them would otherwise surface only when the benchmark runs.  One traced pass
over every benchmark job pins which of them no job reaches, so a per-layer
metric cannot drop to 0 unnoticed.
"""

import importlib.util
import json
import pathlib
import shutil

from tests.test_goldens import run
from tests.test_no_test_only_code import TRACER_ONLY

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
# spans that no benchmark job reaches besides the tracer-only names: the
# `roots` command's `phi_w` and `depth` (by `reflection_word`), and `act`,
# which only the rank-3 conjugation check of `appendix` calls
UNREACHED = {"reflection_word", "act", "phi_w"}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_cleanly():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracing.leftover_wrappers() == []


def test_traced_command_reaches_every_probe(capsys):
    from rgdkit import cli

    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        code = cli.main(["--builtin", "rank2:m3", "chambers", "-s", "1", "-t", "2"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    for key in (("coxeter", "nf_append"), ("galleries", "get_gallery"),
                ("blueprints", "pair_value")):
        assert tracer.spans[key][0] > 0, key


COMMAND_ARGV = {
    "validate": ["--radius", "2", "validate"],
    "group": ["group", "1.2"],
    "residue": ["residue", "-s", "1"],
    "chambers": ["chambers", "-s", "1", "-t", "2"],
    "appendix": ["appendix", "-s", "1", "-t", "2"],
}


def test_each_traced_command_runs_through_its_span(capsys):
    # `main` reaches each command through the name the tracer rebinds, so a
    # dispatch that captured the functions before `install` counts 0 calls
    from rgdkit import cli

    tracing = _load_tracing()
    assert set(tracing.COMMANDS) == set(COMMAND_ARGV)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        codes = [cli.main(["--builtin", "rank2:m3", *COMMAND_ARGV[name]])
                 for name in tracing.COMMANDS]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(tracing.COMMANDS)
    assert tracer.spans[("cli", "main")][0] == len(tracing.COMMANDS)
    for name in tracing.COMMANDS:
        assert tracer.spans[("cli", f"cmd_{name}")][0] == 1, name


def test_one_traced_pass_reaches_every_span_a_job_can(tmp_path, monkeypatch, capsys):
    # every job of the three workloads once under the tracer, in a temporary
    # directory laid out as `tests/test_goldens.py` lays it out: exactly the
    # tracer-only names and `UNREACHED` read 0 calls, so a refactor that
    # stops a job from reaching an instrumented function, and zeroes a
    # per-layer metric, fails here
    monkeypatch.chdir(tmp_path)
    shutil.copytree(ROOT / "tests" / "fixtures", tmp_path / "tests" / "fixtures")
    jobs = []
    for name in run.WORKLOADS:
        more, files, _ = run.workload(name, 0)
        for path, text in files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        jobs += more
    (run.WORK / "reports").mkdir(parents=True, exist_ok=True)
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        _, _, outcomes = run.run_pass(jobs)
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert run.check(jobs, outcomes, json.loads(run.GOLDENS.read_text()))[0] == []
    assert len(jobs) == 16
    zero = {fn for (_, fn), rec in tracer.spans.items() if rec[0] == 0}
    assert zero == TRACER_ONLY | UNREACHED
