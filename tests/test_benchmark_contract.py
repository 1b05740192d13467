"""What the benchmark under perfbench/ reads of the program, checked without running it.

The tracer (perfbench/spans.py) looks up each name in its LAYERS table in
the module pwenum.<layer>; a missing name crashes every traced run.  The
worker (perfbench/worker.py) counts every op of a run as failed unless the
stdout of `pwenum paper-examples` hashes to its PAPER_EXAMPLES_SHA256.
Both are read as text, so that nothing of the benchmark is imported.
"""

import ast
import hashlib
import importlib
import io
from contextlib import redirect_stdout
from pathlib import Path

from pwenum.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _constant(path, name):
    """The literal assigned to a module-level name, read from the source text."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def test_every_traced_layer_name_resolves():
    layers = _constant(PERFBENCH / "spans.py", "LAYERS")
    assert layers
    for layer, names in layers.items():
        module = importlib.import_module(f"pwenum.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"pwenum.{layer}.{name}"


def test_paper_examples_output_matches_the_benchmark_digest():
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["paper-examples"]) == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == _constant(PERFBENCH / "worker.py", "PAPER_EXAMPLES_SHA256")
