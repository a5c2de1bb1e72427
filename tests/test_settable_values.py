"""A ratchet on the library's settable values: each parameter with a default
and each dataclass field with a value (``field(...)`` included) in ``src/``
counts once.  A change that adds an option raises the count and must raise
``MAX_SETTABLE`` with it; a change that removes options lowers the number."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MAX_SETTABLE = 33


def _is_dataclass(node):
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def settable_values(root=SRC):
    count = 0
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                count += sum(isinstance(st, ast.AnnAssign) and st.value is not None
                             for st in node.body)
    return count


def test_settable_values_do_not_grow():
    assert settable_values() <= MAX_SETTABLE


def test_rule_counts_defaults_and_fields(tmp_path):
    (tmp_path / "m.py").write_text(
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, *, c=2, d): pass\n"
        "g = lambda x=0: x\n"
        "@dataclass\n"
        "class C:\n"
        "    u: int\n"
        "    v: int = 3\n"
        "    w: object = field(repr=False)\n"
        "class D:\n"
        "    z: int = 4\n")
    assert settable_values(tmp_path) == 5
