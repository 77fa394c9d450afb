"""Every command's artifacts against the golden text in tests/golden/.

The rule is in golden_artifacts.py.  A PR that changes an artifact on
purpose regenerates the goldens (python3 tools/regen_golden.py) in the
same commit, so the change shows as a diff of text.
"""

import pytest

from golden_artifacts import GOLDEN, JOBS, artifact_text, differences


@pytest.mark.parametrize("command", sorted(JOBS))
def test_artifacts_match_the_golden_text(command):
    fresh = artifact_text(command)
    golden = {path.name: path.read_text()
              for path in sorted((GOLDEN / command).iterdir())}
    found = [f"{name}: missing, golden has it" for name in golden
             if name not in fresh]
    found += [f"{name}: written, golden has no such file" for name in fresh
              if name not in golden]
    for name in golden.keys() & fresh.keys():
        found += differences(name, golden[name], fresh[name])
    assert not found, (f"{len(found)} differences from tests/golden/{command}:\n"
                       + "\n".join(found))
