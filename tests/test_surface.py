"""The package's public surface: ``isobench`` exports only names that its
callers use, meaning the CLI, the scripts, the benchmark harness and the
acceptance suite, so a name that only unit tests reach does not creep
back into ``__init__``; and nothing public in a module, neither a
function or class nor a method or property of a public class, is reached
only by unit tests."""

import ast
import types
from pathlib import Path

import isobench

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "isobench").glob("*.py"))
CALLERS = (
    ROOT / "src" / "isobench" / "cli.py",
    ROOT / "tests" / "test_acceptance.py",
    *sorted((ROOT / "scripts").rglob("*.py")),
    *sorted((ROOT / "benchmark").rglob("*.py")),
)


def identifiers(path: Path) -> set[str]:
    """Every name, attribute and imported name in the file's code (not in
    its strings or comments)."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
    return out


def exports() -> set[str]:
    """The public names of the package namespace, its submodules aside."""
    return {
        name
        for name, value in vars(isobench).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def test_every_export_has_a_caller():
    used = set().union(*map(identifiers, CALLERS))
    assert sorted(exports() - used) == []


def test_all_lists_every_export():
    assert sorted(isobench.__all__) == sorted(exports())


def definitions(path: Path):
    """(qualified name, name) of each public function and class of the
    module, and of each public method and property of its public classes."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{item.name}", item.name


def test_every_public_definition_has_a_caller():
    used = set().union(*map(identifiers, (*MODULES, *CALLERS)))
    unused = {qualified for path in MODULES for qualified, name in definitions(path) if name not in used}
    assert sorted(unused) == []


# document formats with conditional keys, and the count report whose
# per-edge bitmasks print as vertex lists; every other report is a plain
# dataclass that ``isobench.cli`` renders from its fields
SERIALIZERS = {"Hypergraph", "Objective", "ObjectiveStrategy", "CountReport"}


def test_only_document_formats_define_to_json_dict():
    defining = {
        node.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(item, ast.FunctionDef) and item.name == "to_json_dict"
            for item in node.body
        )
    }
    assert sorted(defining) == sorted(SERIALIZERS)
