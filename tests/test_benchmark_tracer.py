"""The benchmark's tracer (``perfbench/tracing.py``) still installs on the package.

It looks up every public name it wraps, so deleting or renaming one of them
(``ops.conv_transpose2d`` among them) fails this test, not only the traced
benchmark runs.
"""

import importlib.util
import pathlib

import demosaick
import demosaick.cli  # loads every module the tracer wraps (imageio among them)
from demosaick import ops

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_benchmark_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = ops.conv_transpose2d
    tracer = tracing.Tracer()
    try:
        tracer.install(demosaick)
        assert ops.conv_transpose2d.__wrapped__ is before
    finally:
        tracer.uninstall()
    assert ops.conv_transpose2d is before
