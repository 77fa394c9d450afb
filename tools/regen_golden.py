"""Regenerate the golden artifacts in tests/golden/.

Runs each command of tests/golden_artifacts.py's JOBS in-process and
writes its files' golden text (generated_at masked, every 64th trace
row) under tests/golden/<command>/, replacing what was there.  Run it
only in a commit that changes an artifact on purpose, and say which in
CHANGES.md; the diff of tests/golden/ then shows the change.

Usage:
    PYTHONPATH=src python3 tools/regen_golden.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from golden_artifacts import GOLDEN, JOBS, artifact_text  # noqa: E402


def main() -> int:
    for command in JOBS:
        files = artifact_text(command)
        folder = GOLDEN / command
        folder.mkdir(parents=True, exist_ok=True)
        for stale in folder.iterdir():
            if stale.name not in files:
                stale.unlink()
        for name, text in files.items():
            (folder / name).write_text(text)
        print(f"{folder.relative_to(GOLDEN.parent.parent)}: "
              f"{', '.join(files)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
