"""The runner of the workflow's console-script steps, ``scripts/ci_console.py``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import fermitree

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "ci_console.py"
_SPEC = importlib.util.spec_from_file_location("ci_console", _PATH)
ci_console = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ci_console)


def test_the_workflow_has_two_console_script_blocks():
    blocks = ci_console.run_blocks(ci_console.WORKFLOW.read_text(encoding="utf-8"))
    assert len(blocks) == 2
    assert blocks[0].startswith("fermitree map --modes 13 --output m.json")
    assert "fermitree tomograph --fermionic --modes 10" in blocks[1]
    # the one-line steps (installs, pytest) are not blocks, and no line keeps its YAML indent
    assert not any("pip install" in block or "pytest -q" in block for block in blocks)
    assert not any(line.startswith(" ") for block in blocks for line in block.splitlines())


def test_run_blocks_keeps_blank_lines_and_stops_at_the_next_key():
    text = "steps:\n  - name: a\n    run: |\n      echo 1\n\n      echo 2\n  - name: b\n    run: echo 3\n"
    assert ci_console.run_blocks(text) == ["echo 1\n\necho 2\n"]


def test_run_stops_at_the_first_failing_line(tmp_path, capfd):
    blocks = ["touch a\n", "touch b\nfalse\ntouch c\n", "touch d\n"]
    assert ci_console.run(blocks, tmp_path) == 1
    assert sorted(p.name for p in tmp_path.iterdir() if p.is_file()) == ["a", "b"]
    err = capfd.readouterr().err
    assert "line 2 failed: false" in err and "run block 2 of 3 failed with status 1" in err


def test_run_puts_a_fermitree_shim_on_path(tmp_path):
    # a status set with || does not stop the block, as in the workflow's exit-code checks
    block = "fermitree --version > v.txt\ncode=0; fermitree stats --modes-to 1 --kinds nope || code=$?\ntest \"$code\" -eq 2\n"
    assert ci_console.run([block], tmp_path) == 0
    assert (tmp_path / "v.txt").read_text() == fermitree.__version__ + "\n"
