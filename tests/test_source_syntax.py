"""Every source file parses under the oldest Python that pyproject.toml declares.

`requires-python = ">=3.10"`, but a suite run on a newer interpreter accepts
syntax that 3.10 rejects, such as `except*` (3.11) or type parameter lists
(3.12), and nothing else here would notice. `ast.parse` with
`feature_version` refuses such syntax on the interpreter running the suite.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FLOOR = (3, 10)


def test_sources_parse_at_the_declared_floor():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert any(p.name == "diffusion.py" for p in paths)
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not failures, failures
