"""Every public name in the package has a caller outside the tests.

A public top-level function or class of ``src/ehrenfest``, or a public
method of a public class, must be referenced somewhere in ``src/`` outside
its own definition, in ``demos/`` or in ``perfbench/``.  A reference is a
name, an attribute, an imported name or alias, or a string constant equal
to the name (``perfbench/spans.py`` looks functions up by string).  Code
that only the tests call belongs in ``tests/reference.py``.

The converse holds too: every package name the benchmark uses still exists.
``perfbench/spans.py`` names the functions, methods and cached kernels it
wraps, and the benchmark's modules import names from the package or read
them off a package module; a rename would otherwise surface only when the
benchmark runs.
"""

import ast
import importlib.util
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ehrenfest"

def _definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """``(qualified name, node)`` of the public top-level functions and classes
    and of the public methods of public classes."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                out.extend(
                    (f"{node.name}.{item.name}", item) for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                )
    return out


def _references(tree: ast.AST) -> Counter:
    """How often each name, attribute, imported name or alias and string
    constant occurs in ``tree``."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found.update(filter(None, (node.name.rpartition(".")[2], node.asname)))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


MODULES = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}


def test_every_public_name_has_a_caller_outside_the_tests():
    references = Counter()
    for tree in MODULES.values():
        references += _references(tree)
    for path in sorted([*ROOT.glob("demos/**/*.py"), *ROOT.glob("perfbench/**/*.py")]):
        references += _references(_parse(path))
    unreferenced = [
        f"{module}.{qualname}"
        for module, tree in MODULES.items()
        for qualname, node in _definitions(tree)
        if references[node.name] <= _references(node)[node.name]
    ]
    assert not unreferenced, f"public names that only the tests call: {unreferenced}"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look their module up
    spec.loader.exec_module(spans)
    return spans


SPANS = _load_spans()


def _package_imports(tree: ast.Module) -> set[tuple[str, str]]:
    """``(module, name)`` of each name imported from the package, and of each
    attribute read off a package module that ``tree`` imports by name."""
    found, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "ehrenfest":
            for alias in node.names:
                found.add((node.module, alias.name))
                if node.module == "ehrenfest":
                    modules[alias.asname or alias.name] = f"ehrenfest.{alias.name}"
        elif isinstance(node, ast.Import):
            found.update(
                tuple(alias.name.rsplit(".", 1)) for alias in node.names if alias.name.startswith("ehrenfest.")
            )
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            found.add((modules[node.value.id], node.attr))
    return found


def _resolves(module: str, name: str) -> bool:
    """Whether ``from module import name`` succeeds."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_every_name_the_benchmark_traces_exists():
    missing = [layer for layer in SPANS.LAYERS if not _resolves("ehrenfest", layer)]
    for layer, (functions, classes) in SPANS.TARGETS.items():
        module = importlib.import_module(f"ehrenfest.{layer}")
        missing += [f"{layer}.{name}" for name in functions if not callable(getattr(module, name, None))]
        for cls_name, methods in classes.items():
            members = vars(getattr(module, cls_name, object))
            missing += [f"{layer}.{cls_name}.{name}" for name in methods if name not in members]
    resolvent = importlib.import_module("ehrenfest.resolvent")
    missing += [f"resolvent.{name}" for name in SPANS.KERNELS if not callable(getattr(resolvent, name, None))]
    jet = vars(importlib.import_module("ehrenfest.exact").Jet)
    missing += [f"exact.Jet.{name}" for name in SPANS.JET_METHODS if name not in jet]
    assert not missing, f"names the benchmark traces that the package lacks: {missing}"


def test_every_kernel_the_benchmark_counts_as_cached_has_a_cache():
    resolvent = importlib.import_module("ehrenfest.resolvent")
    uncached = [name for name in SPANS.CACHED if not hasattr(getattr(resolvent, name, None), "cache_info")]
    assert not uncached, f"kernels the benchmark counts cache hits of that have no cache: {uncached}"


def test_every_name_the_benchmark_imports_exists():
    used = set()
    for path in sorted(ROOT.glob("perfbench/**/*.py")):
        used |= _package_imports(_parse(path))
    # run.py calls these on the CLI module it imports, through an attribute of its own
    used |= {("ehrenfest.cli", "main"), ("ehrenfest.cli", "build_parser")}
    assert ("ehrenfest.hitting", "HittingQuery") in used  # the reader sees workloads.py's module reads
    missing = sorted(f"{module}.{name}" for module, name in used if not _resolves(module, name))
    assert not missing, f"names the benchmark imports that the package lacks: {missing}"
