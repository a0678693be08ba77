"""Names the documentation points at must exist: every `module.name` in a
README code span and every :func:, :class: or :meth: reference in a
kernelcg docstring resolves to an object of the package."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import kernelcg

ROOT = Path(__file__).parents[1]
MODULES = {info.name: importlib.import_module(f"kernelcg.{info.name}") for info in pkgutil.iter_modules(kernelcg.__path__)}
_MISSING = object()


def _resolves(dotted, *scopes) -> bool:
    """Whether `dotted`, less any leading "kernelcg.", names an attribute chain of one of the scopes."""
    parts = dotted.removeprefix("kernelcg.").split(".")
    for scope in scopes:
        obj = scope
        for part in parts:
            obj = getattr(obj, part, _MISSING)
            if obj is _MISSING:
                break
        else:
            return True
    return False


def _readme_references() -> list[str]:
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    name = re.compile(r"(?<![\w.])(?:kernelcg\.)?(?:%s)\.\w+(?:\.\w+)*" % "|".join(MODULES))
    return [match.group() for span in re.findall(r"`([^`\n]+)`", text) for match in name.finditer(span)]


def _docstring_references() -> list[tuple]:
    """(module, owning class or None, target) for every role reference in a docstring."""
    role = re.compile(r":(?:func|class|meth):`~?([\w.]+)`")
    out = []
    for module in MODULES.values():
        def visit(node, owner):
            out.extend((module, owner, target) for target in role.findall(ast.get_docstring(node) or ""))
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, getattr(owner or module, child.name, None))
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, owner)

        visit(ast.parse(inspect.getsource(module)), None)
    return out


def test_readme_module_references_resolve():
    references = _readme_references()
    assert len(references) >= 15
    stale = [ref for ref in references if not _resolves(ref, kernelcg)]
    assert not stale, f"README names that no longer exist: {stale}"


def test_docstring_role_references_resolve():
    references = _docstring_references()
    assert len(references) >= 30
    stale = [f"{module.__name__}: {target}" for module, owner, target in references
             if not _resolves(target, *([owner] if owner else []), module, kernelcg)]
    assert not stale, f"docstring references that no longer exist: {stale}"
