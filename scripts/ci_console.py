"""Run the console-script steps of the tier-1 workflow without installing.

Usage, from any directory:

    python scripts/ci_console.py

Every multi-line ``run: |`` block of ``.github/workflows/tier1.yml`` (the
console-script steps; the one-line steps install packages and run pytest)
runs in workflow order, all in one fresh temporary directory, each under
``bash --noprofile --norc -eo pipefail`` as GitHub Actions runs a step.
A ``fermitree`` shim on PATH calls ``python -m fermitree``, a ``python``
shim calls this interpreter, and the repository's ``src/`` leads
PYTHONPATH, so the checkout's own code runs.  The script stops at the
first failing line, names it on stderr, and exits with its status.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"

# bash runs a block as one script: -e stops it at the first failing line,
# whose number (less this line's) the ERR trap reports
_TRAP = """trap 'echo "line $((LINENO - 1)) failed: $BASH_COMMAND" >&2' ERR\n"""


def run_blocks(workflow_text: str) -> list[str]:
    """The dedented body of every ``run: |`` block of a workflow, in order."""
    lines = workflow_text.splitlines()
    blocks = []
    for i, line in enumerate(lines):
        if line.rstrip().endswith("run: |"):
            indent = len(line) - len(line.lstrip())
            body = []
            for inner in lines[i + 1:]:
                if inner.strip() and len(inner) - len(inner.lstrip()) <= indent:
                    break
                body.append(inner)
            blocks.append(textwrap.dedent("\n".join(body)).strip("\n") + "\n")
    return blocks


def run(blocks: list[str], workdir: Path) -> int:
    """Run ``blocks`` in order in ``workdir``; the status of the first
    failing block, or 0."""
    shims = workdir / ".shims"
    shims.mkdir()
    for name, command in (("fermitree", f'"{sys.executable}" -m fermitree'),
                          ("python", f'"{sys.executable}"')):
        shim = shims / name
        shim.write_text(f'#!/bin/sh\nexec {command} "$@"\n')
        shim.chmod(0o755)
    env = dict(os.environ, PATH=f"{shims}{os.pathsep}{os.environ.get('PATH', '')}")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    for number, block in enumerate(blocks, 1):
        status = subprocess.run(["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", _TRAP + block],
                                cwd=workdir, env=env).returncode
        if status:
            print(f"run block {number} of {len(blocks)} failed with status {status}", file=sys.stderr)
            return status
    return 0


def main() -> int:
    blocks = run_blocks(WORKFLOW.read_text(encoding="utf-8"))
    if not blocks:
        print(f"no run: | blocks in {WORKFLOW}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as workdir:
        status = run(blocks, Path(workdir))
    if not status:
        print(f"{len(blocks)} run blocks passed")
    return status


if __name__ == "__main__":
    sys.exit(main())
