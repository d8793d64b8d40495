"""Every name `fed3cr` exports is used by the program itself: by another
part of `src/`, by a demo or by the benchmark. A name that only its own
test reads is not part of the program's API."""

import ast
from pathlib import Path

import fed3cr

ROOT = Path(__file__).resolve().parents[1]
# The reload API, which a resumed run will call; nothing reads a checkpoint back yet.
UNREFERENCED = {"load_client_state", "load_server_state"}


class References(ast.NodeVisitor):
    """The names a module uses: loads, attribute names and string constants
    that are identifiers (the benchmark wraps functions by name), but not
    imports and not a name inside its own definition."""

    def __init__(self):
        self.names: set[str] = set()
        self.enclosing: list[str] = []

    def use(self, name):
        if name not in self.enclosing:
            self.names.add(name)

    def visit_FunctionDef(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Name(self, node):
        self.use(node.id)

    def visit_Attribute(self, node):
        self.use(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self.use(node.value)


def program_references() -> set[str]:
    refs = References()
    for tree in ("src", "demos", "perfbench"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            if path != ROOT / "src" / "fed3cr" / "__init__.py":
                refs.visit(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    return refs.names


def test_every_exported_name_is_used_by_the_program():
    used = program_references()
    assert UNREFERENCED <= set(fed3cr.__all__)
    assert sorted(set(fed3cr.__all__) - used - UNREFERENCED) == []
    # Once the reload API has a caller, it leaves the exception list.
    assert sorted(UNREFERENCED & used) == []
