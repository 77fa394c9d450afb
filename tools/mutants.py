"""Mutation sampler: find checks in src/mcchannel that no tier-1 test notices.

Each mutant is one small edit of one site in the package:

* flip    a boundary flip, ``<`` <-> ``<=`` or ``>`` <-> ``>=``;
* delete  a ``_require(...)`` call or a ``raise`` statement replaced by
          ``pass``.

The edit is made in a temporary copy of the repository's src/, tests/,
scenarios/, perfbench/ and .github/ (tests/test_ci.py reads the CI
workflow), never in the checkout, and tier-1 runs on the copy
(``python -m pytest -q -x --hypothesis-seed=0``) with the copy's src/
first on PYTHONPATH.  Tier-1 there leaves out
tests/test_mutants_equivalent.py, which checks this tool's list against
the checkout: any mutant of a listed line would fail it.  A mutant that
tier-1 passes survives: the edited line is either untested or not
needed.  Survivors that
tools/mutants_equivalent.json lists (matched by file, edit and source
line, and by occurrence where one line holds the same edit twice, so the
list outlives line shifts) are reported apart, with the reason given
there.

Usage:
    python3 tools/mutants.py [--seed N] [--sample K] [--operators flip,delete]
                             [--out survivors.json]

--sample 0 runs every site.  A mutant costs one tier-1 run, up to about
20 s (less when -x stops at an early failure), so a sample of 20 takes a
few minutes and every site about half an hour.  Each mutant's run is
limited to TIMEOUT_FACTOR times the unmutated copy's tier-1 time, measured
first; a run that takes longer (a search that never ends) counts as
killed.  Exit status: 0 when every survivor is listed as equivalent, 1
otherwise, 2 when tier-1 fails on the unmutated copy.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "mcchannel"
COPIED = ("src", "tests", "scenarios", "perfbench", ".github",
          "pyproject.toml")
EQUIVALENT = Path(__file__).resolve().with_name("mutants_equivalent.json")
FLIPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">"}
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", "--ignore=tests/test_mutants_equivalent.py"]
TIMEOUT_FACTOR = 4  # a mutant's time limit, in unmutated tier-1 runs


def _offsets(text: str) -> list[int]:
    """Character offset of the start of each line, 1-based by index."""
    starts, total = [0, 0], 0
    for line in text.splitlines(keepends=True):
        total += len(line)
        starts.append(total)
    return starts


def _char(text: str, starts: list[int], line: int, col_bytes: int) -> int:
    """Character offset of an ast (line, utf-8 byte column) position."""
    begin = starts[line]
    prefix = text[begin:].encode("utf-8")[:col_bytes].decode("utf-8")
    return begin + len(prefix)


def _sites(name: str, text: str, operators: set[str]) -> list[dict]:
    """Every mutation site of one source file, in source order."""
    starts, lines = _offsets(text), text.splitlines()
    sites = []
    if "flip" in operators:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for tok in tokens:
            if tok.type == tokenize.OP and tok.string in FLIPS:
                (line, col), (_, end) = tok.start, tok.end
                start = starts[line] + col
                sites.append({"operator": "flip", "line": line,
                              "span": (start, starts[line] + end),
                              "edit": f"{tok.string} -> {FLIPS[tok.string]}",
                              "new": FLIPS[tok.string]})
    if "delete" in operators:
        for node in ast.walk(ast.parse(text)):
            call = isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
            if isinstance(node, ast.Raise) or (
                    call and isinstance(node.value.func, ast.Name)
                    and node.value.func.id == "_require"):
                start = _char(text, starts, node.lineno, node.col_offset)
                end = _char(text, starts, node.end_lineno, node.end_col_offset)
                what = "raise" if isinstance(node, ast.Raise) else "_require"
                # Blank lines keep every later line where it was.
                sites.append({"operator": "delete", "line": node.lineno,
                              "span": (start, end), "edit": f"{what} -> pass",
                              "new": "pass" + "\n" * text.count("\n", start, end)})
    sites.sort(key=lambda s: (s["line"], s["span"]))
    seen: dict[tuple, int] = {}
    for site in sites:
        # The same edit twice on a line: occurrence tells them apart.
        where = (site["line"], site["edit"])
        seen[where] = seen.get(where, -1) + 1
        site.update(file=name, code=lines[site["line"] - 1].strip(),
                    occurrence=seen[where])
    return sites


def _tier1(copy: Path, timeout: float | None = None) -> tuple[str, float]:
    """Run tier-1 in the copy: ("passed" | "failed" | "timeout", seconds)."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    try:
        done = subprocess.run(TIER1, cwd=copy, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    return ("passed" if done.returncode == 0 else "failed",
            time.perf_counter() - start)


def _key(site: dict) -> tuple:
    return site["file"], site["edit"], site["code"], site["occurrence"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sample", type=int, default=20,
                        help="sites to run, drawn with --seed; 0: all")
    parser.add_argument("--operators", default="flip,delete",
                        help="comma-separated subset of flip,delete")
    parser.add_argument("--out", help="write the JSON report here, not stdout")
    args = parser.parse_args(argv)

    operators = set(args.operators.split(","))
    sources = {path.name: path.read_text()
               for path in sorted((ROOT / PACKAGE).glob("*.py"))}
    sites = [site for name, text in sources.items()
             for site in _sites(name, text, operators)]
    if 0 < args.sample < len(sites):
        chosen = random.Random(args.seed).sample(range(len(sites)), args.sample)
        sites = [sites[i] for i in sorted(chosen)]
    equivalent = {_key(entry): entry["reason"]
                  for entry in json.loads(EQUIVALENT.read_text())}

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache", ".work"))
            else:
                shutil.copy2(source, copy / name)
        outcome, seconds = _tier1(copy)
        if outcome != "passed":
            print(f"tier-1 {outcome} on the unmutated copy", file=sys.stderr)
            return 2
        timeout = TIMEOUT_FACTOR * seconds
        print(f"tier-1 took {seconds:.1f} s unmutated; each mutant is "
              f"stopped after {timeout:.1f} s", file=sys.stderr)
        results = []
        for i, site in enumerate(sites, 1):
            target, text = copy / PACKAGE / site["file"], sources[site["file"]]
            start, end = site["span"]
            target.write_text(text[:start] + site["new"] + text[end:])
            outcome, seconds = _tier1(copy, timeout)
            target.write_text(text)
            print(f"[{i}/{len(sites)}] {site['file']}:{site['line']} "
                  f"{site['edit']}: {outcome} ({seconds:.1f} s)", file=sys.stderr)
            results.append({**{k: site[k] for k in (
                "file", "line", "operator", "edit", "occurrence", "code")},
                "outcome": outcome})

    survivors = [r for r in results if r["outcome"] == "passed"]
    report = {
        "seed": args.seed, "operators": sorted(operators),
        "sites_run": len(results),
        "killed": len(results) - len(survivors),
        "survivors": [r for r in survivors if _key(r) not in equivalent],
        "equivalent": [{**r, "reason": equivalent[_key(r)]}
                       for r in survivors if _key(r) in equivalent],
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 1 if report["survivors"] else 0


if __name__ == "__main__":
    sys.exit(main())
