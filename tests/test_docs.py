"""The README stays in step with the source tree."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _layout_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"## Layout\s+```\n(.*?)```", readme, re.DOTALL)
    assert match, "README.md has no fenced Layout block"
    return match.group(1)


def test_readme_layout_names_every_module():
    # package plumbing (__init__, __main__) aside, each module gets a line
    listed = set(re.findall(r"^\s+(\w+\.py)\s", _layout_block(), re.MULTILINE))
    modules = {p.name for p in (ROOT / "src" / "qmv").glob("*.py") if not p.name.startswith("__")}
    assert modules <= listed, f"missing from the README Layout block: {sorted(modules - listed)}"
    assert listed <= modules, f"named in the README Layout block but absent: {sorted(listed - modules)}"
