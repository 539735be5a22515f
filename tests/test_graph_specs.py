"""The graph step invariants are written in the annotation language and
parsed when ``unfold.graphs`` is imported: their renderings are pinned by a
golden file, and each import order that runs into the graphs/dsl cycle is
exercised in a fresh interpreter (``python -m unfold.cli demo`` is run by
``test_cli.TestDemo``)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from unfold.dsl import render_term
from unfold.graphs import GRAPH_PREDICATES

GOLDEN = Path(__file__).parent / "golden" / "graph_predicates.golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def test_renderings_match_golden():
    lines = [f"{name}: {render_term(pred.lam)}\n"
             for name, pred in GRAPH_PREDICATES.items()]
    assert "".join(lines) == GOLDEN.read_text(encoding="utf-8")


def python(*args):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("code", [
    "import unfold.graphs",
    "import unfold.dsl.scenario",
    "from unfold.dsl import run_scenario, Report, desugar\n"
    "import inspect\n"
    "assert inspect.isfunction(desugar), desugar\n"
    "assert run_scenario.__module__ == Report.__module__ == 'unfold.dsl.scenario'",
])
def test_import_order_in_fresh_interpreter(code):
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
