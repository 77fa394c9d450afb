"""tools/mutants_equivalent.json names only code the package still has."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_equivalent_mutant_names_a_line_of_its_file():
    # tools/mutants.py matches a survivor to an entry by the stripped
    # source line, so an entry whose line is gone can never match again.
    entries = json.loads((ROOT / "tools" / "mutants_equivalent.json").read_text())
    package = ROOT / "src" / "mcchannel"
    stale = [f"{entry['file']}: {entry['code']}" for entry in entries
             if entry["code"] not in {line.strip() for line in
                                      (package / entry["file"]).read_text()
                                      .splitlines()}]
    assert stale == []
