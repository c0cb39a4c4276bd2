"""Print the three size counts of the package's design.

    python3 tools/design_size.py [ROOT]

ROOT is a source checkout (default: the one holding this script).  The
counts, one per line:

- ``src/parosc lines``: newlines in the package's ``.py`` files, as
  ``wc -l`` counts them;
- ``config keys``: the keys of ``parosc.config.FIELDS``;
- ``defaulted options``: parameters with a default in every function and
  lambda, plus the fields of every dataclass that have a default.

The source is parsed, not imported, so only the standard library is needed.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (isinstance(target, ast.Name) and target.id == "dataclass") or (
            isinstance(target, ast.Attribute) and target.attr == "dataclass"
        ):
            return True
    return False


def defaulted_options(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(
                isinstance(stmt, ast.AnnAssign) and stmt.value is not None for stmt in node.body
            )
    return count


def config_keys(tree: ast.AST) -> int:
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "FIELDS" for t in targets):
                return len(node.value.keys)
    raise SystemExit("config.py assigns no FIELDS dict")


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    package = root / "src" / "parosc"
    files = sorted(package.glob("*.py"))
    lines = sum(path.read_bytes().count(b"\n") for path in files)
    options = sum(defaulted_options(ast.parse(path.read_text(encoding="utf-8"))) for path in files)
    keys = config_keys(ast.parse((package / "config.py").read_text(encoding="utf-8")))
    print(f"src/parosc lines: {lines}")
    print(f"config keys: {keys}")
    print(f"defaulted options: {options}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
