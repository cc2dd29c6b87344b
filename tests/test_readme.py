"""The README's library quick start runs, and prints the values it claims."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_lines() -> list[str]:
    text = README.read_text()
    section = text[text.index("## Library quick start") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1).splitlines()


def claimed_value(comment: str):
    """The literal a comment starts with ("0, exact integer" claims 0), or
    None when it starts with prose."""
    for text in (comment, comment.split(",")[0]):
        try:
            return ast.literal_eval(text.strip())
        except (SyntaxError, ValueError):
            pass
    return None


def test_readme_quick_start_runs_and_matches_its_comments():
    namespace: dict = {}
    checked = 0
    for line in quick_start_lines():
        code, _, comment = line.partition("#")
        claimed = claimed_value(comment)
        if claimed is None:
            exec(code, namespace)
        else:
            assert eval(code, namespace) == claimed, line
            checked += 1
    assert checked == 5
