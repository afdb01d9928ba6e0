"""The benchmark's tracer can still find every function it instruments.

`perfbench/tracing.py` patches named functions and methods of rgdkit, and
its probes read cache attributes inside them; a rename or deletion of one of
them would otherwise surface only when the benchmark runs.
"""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
