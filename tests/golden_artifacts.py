"""Golden artifacts: each command's files as text, and the rule that
compares a fresh run with them.

Each command in JOBS runs in-process on a shipped file.  A file's text
has the JSON `generated_at` value masked, and a trace CSV keeps only
every TRACE_STRIDE-th data row.  tools/regen_golden.py writes that text
under tests/golden/<command>/; tests/test_golden.py compares a fresh run
with it.

The rule, fixed before the first comparison and never widened to pass:

* a CSV cell matches as text, or both cells are nonzero floats of one
  sign that are equal or adjacent on the 9-significant-digit grid of
  %.9g (one unit in the 9th digit of the smaller);
* a JSON value (a whole .json file, or the `# parameters:` line of a
  CSV) has the golden's keys in the golden's order, and the same strings,
  booleans, nulls and ints; a float lies within JSON_ULPS ulps of the
  golden's, and a golden 0.0 must stay 0.0;
* any other line matches as text.

Identity across machines is not claimed: numpy picks SIMD kernels for
log10, arctan and exp by CPU, so a run elsewhere may move a cell by a
last bit.  The rule admits that at 9 digits, and at the JSON floats'
full precision within JSON_ULPS.
"""

from __future__ import annotations

import json
import math
import re
import tempfile
from decimal import Decimal, InvalidOperation
from pathlib import Path

from mcchannel import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# command -> the shipped file it runs on, with default options.
JOBS = {
    "analyze": "scenarios/baseline.yaml",
    "design": "scenarios/baseline.yaml",
    "sweep": "scenarios/baseline.yaml",
    "simulate": "scenarios/baseline.yaml",
    "table": "scenarios/species.yaml",
}

TRACE_STRIDE = 64
JSON_ULPS = 16

_GENERATED_AT = re.compile(r'"generated_at": "[^"]*"')
_PARAMETERS = "# parameters: "


def artifact_text(command: str) -> dict[str, str]:
    """Each file command writes, by name, as golden text."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / command
        code = cli.main([command, "--config", str(ROOT / JOBS[command]),
                         "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"{command} exited {code}")
        return {path.name: _golden_text(path.name, path.read_text())
                for path in sorted(out.iterdir())}


def _golden_text(name: str, text: str) -> str:
    text = _GENERATED_AT.sub('"generated_at": "<masked>"', text)
    if not name.startswith("trace_"):
        return text
    lines = text.splitlines(keepends=True)
    # A route line and the column header precede the data rows.
    return "".join(lines[:2] + lines[2::TRACE_STRIDE])


def differences(name: str, golden: str, fresh: str) -> list[str]:
    """Every place where fresh breaks the rule against golden."""
    if name.endswith(".json"):
        return _json_differences(name, json.loads(golden), json.loads(fresh))
    found = []
    golden_lines, fresh_lines = golden.splitlines(), fresh.splitlines()
    if len(golden_lines) != len(fresh_lines):
        found.append(f"{name}: {len(fresh_lines)} lines, golden has "
                     f"{len(golden_lines)}")
    for number, (want, got) in enumerate(zip(golden_lines, fresh_lines), 1):
        where = f"{name}:{number}"
        if want.startswith(_PARAMETERS) and got.startswith(_PARAMETERS):
            found += _json_differences(
                where, json.loads(want[len(_PARAMETERS):]),
                json.loads(got[len(_PARAMETERS):]))
        elif want.startswith("#") or got.startswith("#"):
            if want != got:
                found.append(f"{where}: {got!r}, golden {want!r}")
        else:
            found += _csv_differences(where, want.split(","), got.split(","))
    return found


def _csv_differences(where: str, want: list[str], got: list[str]) -> list[str]:
    if len(want) != len(got):
        return [f"{where}: {len(got)} cells, golden has {len(want)}"]
    return [f"{where}:{column}: {b!r}, golden {a!r}"
            for column, (a, b) in enumerate(zip(want, got), 1)
            if a != b and not _adjacent_at_9_digits(a, b)]


def _adjacent_at_9_digits(a: str, b: str) -> bool:
    try:
        x, y = Decimal(a), Decimal(b)
    except InvalidOperation:
        return False
    if not (x.is_finite() and y.is_finite()) or x.is_zero() or y.is_zero():
        return False
    if x.is_signed() != y.is_signed():
        return False
    unit = Decimal(1).scaleb(min(x.adjusted(), y.adjusted()) - 8)
    return abs(x - y) <= unit


def _json_differences(where: str, want, got) -> list[str]:
    if isinstance(want, dict) and isinstance(got, dict):
        if list(want) != list(got):
            return [f"{where}: keys {list(got)}, golden {list(want)}"]
        return [line for key in want
                for line in _json_differences(f"{where}.{key}", want[key],
                                              got[key])]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{where}: {len(got)} items, golden has {len(want)}"]
        return [line for i, (a, b) in enumerate(zip(want, got))
                for line in _json_differences(f"{where}[{i}]", a, b)]
    if type(want) is float and type(got) is float:
        if _within_ulps(want, got):
            return []
    elif type(want) is type(got) and want == got:
        return []
    return [f"{where}: {got!r}, golden {want!r}"]


def _within_ulps(want: float, got: float) -> bool:
    if repr(want) == repr(got):     # also nan, inf and the sign of zero
        return True
    return (want != 0.0 and math.isfinite(want) and math.isfinite(got)
            and abs(got - want) <= JSON_ULPS * math.ulp(want))
