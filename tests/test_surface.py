"""The package's public surface: ``isobench`` exports only names that its
callers use, meaning the CLI, the scripts, the benchmark harness and the
acceptance suite, so a name that only unit tests reach does not creep
back into ``__init__``; nothing public in a module, neither a function
or class nor a method or property of a public class, is reached only by
unit tests; and no defaulted parameter of one is set only by them.
Also the layering rules between modules: ``verify`` does not import the
sampler module ``search``, nor ``counting._plan``."""

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


def defaulted(path: Path):
    """(qualified name, name, defaulted parameters) of each public function
    of the module and each public method of its public classes; a
    parameter is (its position in a call, or None when keyword-only, its
    name), the position counted past ``self`` or ``cls``."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        owner = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        for fn in node.body if owner else (node,):
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
            bound = 1 if owner and not static else 0
            first = len(positional) - len(args.defaults)
            params = [(i - bound, a.arg) for i, a in enumerate(positional) if i >= first]
            params += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            if params:
                yield f"{path.stem}.{owner}{fn.name}", fn.name, params


def callee(node: ast.expr) -> set[str]:
    """The names a callee expression may be: a name or an attribute, or
    either branch of a conditional expression of them."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.IfExp):
        return callee(node.body) | callee(node.orelse)
    return set()


def passed(path: Path):
    """(callee name, positions passed, keywords passed) of each call in the
    file; a position or keyword set of None stands for every one, passed
    through ``*`` or an unresolved ``**``.  One level of local aliases is
    resolved: a call through ``run = cli.main`` is a call to ``main``, and
    ``**flags`` after ``flags = {...}`` passes the dictionary's keys."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases, dicts = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name, value = node.targets[0].id, node.value
            if callee(value):
                aliases.setdefault(name, set()).update(callee(value))
            elif isinstance(value, ast.Dict) and all(isinstance(k, ast.Constant) for k in value.keys):
                dicts[name] = {k.value for k in value.keys}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        positions = None if starred else len(node.args)
        keywords = set()
        for kw in node.keywords:
            if kw.arg is not None:
                keywords.add(kw.arg)
            elif isinstance(kw.value, ast.Name) and kw.value.id in dicts:
                keywords |= dicts[kw.value.id]
            else:
                keywords = None
                break
        for name in callee(node.func):
            for target in aliases.get(name, set()) | {name}:
                yield target, positions, keywords


def test_every_defaulted_parameter_has_a_caller():
    """Some call outside the unit tests passes each defaulted parameter of
    each public function or method, by keyword, by position, or through
    ``*`` or ``**``; a parameter only the unit tests set is a constant."""
    calls: dict[str, list] = {}
    for path in dict.fromkeys((*MODULES, *CALLERS)):
        for name, positions, keywords in passed(path):
            calls.setdefault(name, []).append((positions, keywords))
    unset = [
        f"{qualified}({param})"
        for path in MODULES
        for qualified, name, params in defaulted(path)
        for at, param in params
        if not any(
            keywords is None
            or param in keywords
            or (at is not None and (positions is None or at < positions))
            for positions, keywords in calls.get(name, ())
        )
    ]
    assert sorted(unset) == []


def imported_modules(path: Path) -> set[str]:
    """The dotted name of every module the file imports, and of every name
    it imports from one (which may be a submodule)."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            out |= {module} | {f"{module}.{alias.name}" for alias in node.names}
    return out


def test_verify_does_not_import_search():
    """``verify`` reads the grid from ``counting``, next to the refusals,
    not from the sampler module."""
    imported = imported_modules(ROOT / "src" / "isobench" / "verify.py")
    assert sorted(name for name in imported if "search" in name.split(".")) == []


def test_verify_does_not_import_the_plan():
    """``verify`` reads each walk's plan off the walk that ``counting._grid``
    built, so it neither imports ``counting._plan`` nor looks it up."""
    assert "_plan" not in identifiers(ROOT / "src" / "isobench" / "verify.py")
