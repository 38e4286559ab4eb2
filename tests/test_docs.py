"""The README stays in step with the source tree."""

import importlib
import re
import textwrap
from pathlib import Path

from qmv import expr, verify

ROOT = Path(__file__).resolve().parent.parent


def _readme() -> str:
    return (ROOT / "README.md").read_text(encoding="utf-8")


def _fenced_block(heading: str) -> str:
    match = re.search(rf"## {heading}\s+```\n(.*?)```", _readme(), re.DOTALL)
    assert match, f"README.md has no fenced {heading} block"
    return match.group(1)


def test_readme_layout_names_every_module():
    # package plumbing (__init__, __main__) aside, each module gets a line
    listed = set(re.findall(r"^\s+(\w+\.py)\s", _fenced_block("Layout"), re.MULTILINE))
    modules = {p.name for p in (ROOT / "src" / "qmv").glob("*.py") if not p.name.startswith("__")}
    assert modules <= listed, f"missing from the README Layout block: {sorted(modules - listed)}"
    assert listed <= modules, f"named in the README Layout block but absent: {sorted(listed - modules)}"


def test_readme_suite_catalog_names_every_suite():
    # the first column of each table row under "Suite catalog" names a suite
    match = re.search(r"## Suite catalog\s+((?:\|.*\n)+)", _readme())
    assert match, "README.md has no Suite catalog table"
    listed = set(re.findall(r"^\| `([\w-]+)`", match.group(1), re.MULTILINE))
    suites = set(verify.SUITES)
    assert suites <= listed, f"missing from the README Suite catalog: {sorted(suites - listed)}"
    assert listed <= suites, f"named in the README Suite catalog but not run: {sorted(listed - suites)}"


def test_readme_grammar_is_the_parser_docstring_grammar():
    # the indented block after "Grammar:" in the expr module's docstring
    match = re.search(r"Grammar:\n\n(.*?)\n\n", expr.__doc__, re.DOTALL)
    assert match, "the expr module docstring has no Grammar block"
    documented = _fenced_block("Expression language").splitlines()
    assert textwrap.dedent(match.group(1)).splitlines() == documented


def test_readme_lists_every_zero_test_count():
    # the backquoted names of the sentence that lists the counts under timings;
    # straighten_cache_added, which every suite reports, has its own paragraph
    match = re.search(r"report counts under `timings`:(.*?)\.\s", _readme(), re.DOTALL)
    assert match, "README.md lists no zero-test counts under timings"
    listed = set(re.findall(r"`(\w+)`", match.group(1)))
    reported = set(verify.run_suite("thm25", n=3).counts) - {"straighten_cache_added"}
    assert listed == reported, f"README lists {sorted(listed)}, the suite reports {sorted(reported)}"


def test_readme_module_qualified_names_resolve():
    # `minors.flat`, `qmv.localize.combined`, `laws.exponent(family, indices)`:
    # a backquoted name that starts with a module of the package is an
    # attribute of that module
    modules = {p.stem for p in (ROOT / "src" / "qmv").glob("*.py") if not p.name.startswith("__")}
    named = re.findall(r"`(?:qmv\.)?(\w+)((?:\.\w+)+)", _readme())
    missing = []
    for module, path in named:
        if module not in modules:
            continue
        obj = importlib.import_module(f"qmv.{module}")
        for attr in path.split(".")[1:]:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(module + path)
    assert named and not missing, f"README names what the package does not define: {missing}"
