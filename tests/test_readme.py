"""The README's library quick start runs, and each ``# -> value`` comment in
it is the repr of what its statement returns."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_values():
    source = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    # a comment on its own line annotates the statement above it
    want = {}
    last_code = 0
    for number, line in enumerate(source.splitlines(), 1):
        code, _, comment = line.partition("#")
        if code.strip():
            last_code = number
        shown = re.fullmatch(r"\s*-> (.*?)(?:\s+\(.*\))?\s*", comment)
        if shown:
            want[last_code] = shown.group(1)
    assert list(want.values()) == ["2", "2", "MultiPartition([[6, 1], [4, 3]])"]
    namespace: dict = {}
    got = {}
    for stmt in ast.parse(source).body:
        if stmt.end_lineno in want:
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            got[stmt.end_lineno] = repr(value)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert got == want
