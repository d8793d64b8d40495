"""Every name `fed3cr` exports is used by the program itself: by another
part of `src/`, by a demo or by the benchmark. A name that only its own
test reads is not part of the program's API. The same holds for each
defaulted parameter of an exported callable: a value that no program call
sets is a constant, not a parameter."""

import ast
import inspect
from pathlib import Path

import fed3cr

ROOT = Path(__file__).resolve().parents[1]
# The reload API, which a resumed run will call; nothing reads a checkpoint back yet.
UNREFERENCED = {"load_client_state", "load_server_state"}
# Defaulted parameters that no program call passes, each with its reason.
UNPASSED = {
    ("grad_check", "eps"): "the finite-difference oracle's step, which tests tighten",
    ("grad_check", "rtol"): "the finite-difference oracle's tolerance, which tests tighten",
    ("top_one_distribution", "mode"): "eq. 12's literal reading, which ROADMAP item 10 decides after items 1 and 5",
}
POSITIONAL = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)


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


class Calls(ast.NodeVisitor):
    """The (callee, parameter) pairs a module's calls pass. A call names its
    callee as `f(...)` or `x.f(...)`, and `cls(...)` calls the enclosing
    class. A keyword passes its parameter and a positional argument the
    next positional slot; `*` unpacking may fill every positional slot,
    and `**` unpacking every parameter."""

    def __init__(self, signatures: dict[str, list[inspect.Parameter]]):
        self.signatures = signatures
        self.passed: set[tuple[str, str]] = set()
        self.classes: list[str] = []

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "cls" and self.classes:
            name = self.classes[-1]
        if name in self.signatures:
            params = self.signatures[name]
            slots = [p.name for p in params if p.kind in POSITIONAL]
            if not any(isinstance(arg, ast.Starred) for arg in node.args):
                slots = slots[: len(node.args)]
            passed = slots + [k.arg for k in node.keywords if k.arg is not None]
            if any(k.arg is None for k in node.keywords):
                passed = [p.name for p in params]
            self.passed.update((name, param) for param in passed)
        self.generic_visit(node)


def program_trees():
    for tree in ("src", "demos", "perfbench"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            if path != ROOT / "src" / "fed3cr" / "__init__.py":
                yield ast.parse(path.read_text(encoding="utf-8"), str(path))


def program_references() -> set[str]:
    refs = References()
    for tree in program_trees():
        refs.visit(tree)
    return refs.names


def exported_signatures() -> dict[str, list[inspect.Parameter]]:
    """Each exported callable's parameters; a class's are its constructor's."""
    return {name: list(inspect.signature(getattr(fed3cr, name)).parameters.values()) for name in fed3cr.__all__}


def program_passes(signatures) -> set[tuple[str, str]]:
    calls = Calls(signatures)
    for tree in program_trees():
        calls.visit(tree)
    return calls.passed


def test_every_exported_name_is_used_by_the_program():
    used = program_references()
    assert UNREFERENCED <= set(fed3cr.__all__)
    assert sorted(set(fed3cr.__all__) - used - UNREFERENCED) == []
    # Once the reload API has a caller, it leaves the exception list.
    assert sorted(UNREFERENCED & used) == []


def test_every_defaulted_exported_parameter_is_passed_by_the_program():
    signatures = exported_signatures()
    defaulted = {(name, p.name) for name, params in signatures.items() for p in params if p.default is not p.empty}
    passed = program_passes(signatures)
    assert set(UNPASSED) <= defaulted
    assert sorted(defaulted - passed - set(UNPASSED)) == []
    # Once a program call sets one of them, it leaves the exception list.
    assert sorted(set(UNPASSED) & passed) == []
