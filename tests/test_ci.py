"""The runtime-only CI job runs every test module that needs only pytest."""

import ast
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"
EXTRAS = {"scipy", "hypothesis", "mpmath"}    # the test extra beyond pytest


def _imports(path: Path) -> set[str]:
    """The top-level names of the modules path imports, anywhere in it,
    and those of the helper modules in tests/ that it imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    for name in list(names):
        if (TESTS / f"{name}.py").exists():
            names |= _imports(TESTS / f"{name}.py")
    return names


def test_runtime_only_job_runs_exactly_the_modules_that_need_only_pytest():
    workflow = yaml.safe_load(
        (ROOT / ".github" / "workflows" / "tests.yml").read_text())
    [run] = [step["run"] for step in workflow["jobs"]["runtime-only"]["steps"]
             if "-m pytest" in step.get("run", "")]
    listed = [word for word in run.split() if word.startswith("tests/")]
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(
        f"tests/{path.name}" for path in TESTS.glob("test_*.py")
        if not _imports(path) & EXTRAS)
