"""Import-graph guards: a run loads neither scipy nor networkx, and no
module under ``src/`` imports either, or a deserialiser of code.

A count, not a timing: each run case starts a fresh interpreter, does one
thing and reports which of the two heavy libraries ended up in
``sys.modules``.  Neither is a runtime dependency: scipy is used nowhere
and networkx is a test oracle, so a static walk of ``src/repro`` finds no
import of either.  A run directory crosses a trust boundary, so what it
holds is plain data: the same walk finds no import of ``pickle``,
``marshal`` or ``shelve``.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.fastpath

_SRC = Path(__file__).resolve().parents[2] / "src"

_HEAVY = """
import sys
def heavy():
    return sorted({name.split(".")[0] for name in sys.modules} & {"scipy", "networkx"})
"""

def _fresh_interpreter(body: str) -> dict:
    """Run ``body`` (which must set ``report``) in a new process."""
    code = _HEAVY + body + "\nimport json\nprint(json.dumps(report))\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(_SRC), env.get("PYTHONPATH")) if part
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "body",
    [
        "import repro",
        "from repro.cli import build_parser\nbuild_parser()",
        "from repro.core.config import PAPER_CONFIG\n"
        "from repro.sim.runner import ExperimentSpec, run_experiment\n"
        "result = run_experiment(ExperimentSpec(\n"
        "    node_count=6, config=PAPER_CONFIG, seed=1, duration_minutes=2))\n"
        "assert result.metrics.chain_height() >= 1",
    ],
    ids=["import_repro", "cli_parser", "six_node_run"],
)
def test_run_path_loads_neither_scipy_nor_networkx(body):
    assert _fresh_interpreter(body + "\nreport = heavy()") == []


def _imports_under_src(roots):
    """``"<path>:<line> imports <name>"`` for every absolute import under
    ``src/repro`` whose top-level package is in ``roots``."""
    found = []
    for path in sorted((_SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            found += [
                f"{path.relative_to(_SRC)}:{node.lineno} imports {name}"
                for name in names
                if name.split(".")[0] in roots
            ]
    return found


def test_no_module_imports_scipy_or_networkx():
    assert _imports_under_src(("scipy", "networkx")) == []


#: Standard modules that load arbitrary objects (and so code) from bytes.
_CODE_LOADERS = ("pickle", "marshal", "shelve")


def test_no_module_imports_a_code_loader():
    assert _imports_under_src(_CODE_LOADERS) == []
