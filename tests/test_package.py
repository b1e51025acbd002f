"""The package's public surface: every exported name resolves, every
module's error type can be caught from the package itself, and every
function the benchmark wraps by name still exists."""
import ast
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from collections import Counter
from pathlib import Path

import fvstream

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_exported_name_resolves():
    assert len(set(fvstream.__all__)) == len(fvstream.__all__)
    missing = [n for n in fvstream.__all__ if not hasattr(fvstream, n)]
    assert missing == []


def test_every_module_error_type_is_exported():
    errors = {}
    for info in pkgutil.iter_modules(fvstream.__path__):
        mod = importlib.import_module(f"fvstream.{info.name}")
        for name, obj in inspect.getmembers(mod, inspect.isclass):
            if obj.__module__ == mod.__name__ and issubclass(obj, ValueError):
                errors[name] = obj
    assert {"ChannelError", "PlaneError", "SceneSpecError"} <= set(errors)
    unexported = [n for n, cls in errors.items()
                  if n not in fvstream.__all__ or getattr(fvstream, n) is not cls]
    assert unexported == []


def test_perfbench_hooks_resolve(monkeypatch):
    # the traced benchmark wraps these by name; a rename would break it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    hooks = layers.LAYERS + layers.CONTEXT_SPANS
    assert len(hooks) > 0
    unresolved = []
    for _, module, attr in hooks:
        holder = importlib.import_module(module)
        for part in attr.split("."):
            holder = getattr(holder, part, None)
        if not (module.startswith("fvstream.") and callable(holder)):
            unresolved.append(f"{module}:{attr}")
    assert unresolved == []


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    root = Path(__file__).resolve().parents[1]
    paths = [p for p in sorted((root / "src" / "fvstream").glob("*.py"))
             if p.name != "__init__.py"] + sorted((root / "tests").glob("*.py"))
    assert [u for p in paths for u in _unused_imports(p)] == []


#: methods that change a list, dict or set in place
MUTATORS = {"append", "update", "setdefault", "clear", "pop", "add"}


def _bound_names(func: ast.AST) -> set[str]:
    """Names a function (or lambda) binds: its parameters and every name
    stored inside it."""
    a = func.args
    params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
    return ({p.arg for p in params if p is not None}
            | {n.id for n in ast.walk(func)
               if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)})


def _module_state_mutations(path: Path) -> list[str]:
    """Where a function declares global/nonlocal, or changes a name bound
    at module level (and not shadowed by its own or an enclosing scope).
    Imported modules are not state: np.append builds a new array."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    module = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            module.add(node.name)
        elif isinstance(node, ast.ImportFrom):
            module.update(a.asname or a.name for a in node.names)
        elif not isinstance(node, ast.Import):
            module.update(n.id for n in ast.walk(node)
                          if isinstance(n, ast.Name)
                          and isinstance(n.ctx, ast.Store))
    found = []

    def shared(node: ast.AST, local: set[str]) -> bool:
        return (isinstance(node, ast.Name) and node.id in module
                and node.id not in local)

    def scan(node: ast.AST, local: set[str] | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                scan(child, (local or set()) | _bound_names(child))
                continue
            if local is not None and (
                    isinstance(child, (ast.Global, ast.Nonlocal))
                    or (isinstance(child, ast.Subscript)
                        and isinstance(child.ctx, (ast.Store, ast.Del))
                        and shared(child.value, local))
                    or (isinstance(child, ast.Call)
                        and isinstance(child.func, ast.Attribute)
                        and child.func.attr in MUTATORS
                        and shared(child.func.value, local))):
                found.append(f"{path.name}:{child.lineno}")
            scan(child, local)

    scan(tree, None)
    return found


def test_no_module_level_state_is_mutated():
    # state lives with whoever owns it (an encoder's trial records, a
    # tracker's lattice), so nothing leaks between runs in one process
    root = Path(__file__).resolve().parents[1] / "src" / "fvstream"
    assert [m for p in sorted(root.glob("*.py"))
            for m in _module_state_mutations(p)] == []


def _referenced_names(node: ast.AST, strings: bool = False) -> Counter:
    """Names a syntax tree reads, plus the dotted parts of its string
    constants when strings is set (the benchmark names its hooks so)."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif strings and isinstance(sub, ast.Constant) \
                and isinstance(sub.value, str):
            found.update(sub.value.split("."))
    return found


def _uncalled(node: ast.AST, refs: Counter) -> bool:
    """Whether nothing outside node's own body reads its name."""
    return refs[node.name] - _referenced_names(node)[node.name] <= 0


def test_no_uncalled_package_code():
    # test-only helpers belong in tests/oracles.py, not in the package; a
    # member counts as called when any attribute of that name is read, so
    # members whose names others share (width, copy) escape this check
    root = Path(__file__).resolve().parents[1]
    modules = [p for p in sorted((root / "src" / "fvstream").glob("*.py"))
               if p.name != "__init__.py"]
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in modules}
    refs = Counter()
    for tree in trees.values():
        refs += _referenced_names(tree)
    for path in sorted(PERFBENCH.glob("*.py")):
        refs += _referenced_names(ast.parse(path.read_text(encoding="utf-8")),
                                  strings=True)
    uncalled = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if _uncalled(node, refs) and node.name not in fvstream.__all__:
                    uncalled.append(f"{path.name}:{node.lineno} {node.name}")
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if (isinstance(member, ast.FunctionDef)
                            and not (member.name.startswith("__")
                                     and member.name.endswith("__"))
                            and _uncalled(member, refs)):
                        uncalled.append(f"{path.name}:{member.lineno} "
                                        f"{node.name}.{member.name}")
    assert uncalled == []


MODE_NAMES = {"reactive", "independent", "cross", "standard", "adaptive"}


def _compared_strings(node: ast.Compare) -> set[str]:
    """String constants a comparison reads, directly or inside a literal
    tuple, list or set (`mode in ("a", "b")`)."""
    found = set()
    for side in [node.left, *node.comparators]:
        for sub in ast.walk(side):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                found.add(sub.value)
    return found


def _names_multiprocessing(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "multiprocessing"
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "multiprocessing"
                   for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "multiprocessing"
    return False


def test_processes_are_forked_in_one_place():
    # pipeline._forked starts, pipes and reaps every child process, so the
    # contract for their errors and lifetime is written once
    root = Path(__file__).resolve().parents[1] / "src" / "fvstream"
    inside, outside = [], []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        forked = {id(sub) for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and (path.name, node.name) == ("pipeline.py", "_forked")
                  for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if _names_multiprocessing(node):
                (inside if id(node) in forked else outside).append(
                    f"{path.name}:{node.lineno}")
    assert inside and outside == []


def test_views_are_synthesized_in_one_place():
    # Receiver.step warps each decoded frame once and blends it per blend,
    # and synthesize_view is the one-call form; any other reader of
    # warp_pair or blend_pair would be a second synthesis driver
    root = Path(__file__).resolve().parents[1] / "src" / "fvstream"
    found = set()

    def scan(path: Path, node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                scan(path, child, f"{scope}.{child.name}".lstrip("."))
                continue
            name = (child.id if isinstance(child, ast.Name)
                    else child.attr if isinstance(child, ast.Attribute)
                    else None)
            if name in ("warp_pair", "blend_pair"):
                found.add((path.name, scope, name))
            scan(path, child, scope)

    for path in sorted(root.glob("*.py")):
        scan(path, ast.parse(path.read_text(encoding="utf-8")), "")
    assert found == {(module, scope, name)
                     for module, scope in (("pipeline.py", "Receiver.step"),
                                           ("synthesis.py", "synthesize_view"))
                     for name in ("warp_pair", "blend_pair")}


def test_modes_are_decided_in_the_pipeline_alone():
    # the selection and blend modes are each decided in one module; the
    # others take columns, caps or tracked errors, never a mode string
    root = Path(__file__).resolve().parents[1] / "src" / "fvstream"
    elsewhere = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                names = _compared_strings(node) & MODE_NAMES
                if names and path.name != "pipeline.py":
                    elsewhere.append(f"{path.name}:{node.lineno} "
                                     f"{sorted(names)}")
    assert elsewhere == []
