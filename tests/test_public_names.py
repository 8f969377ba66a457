"""Every public name in the package has a caller outside the tests.

A public top-level function or class of ``src/ehrenfest``, or a public
method of a public class, must be referenced somewhere in ``src/`` outside
its own definition, in ``demos/`` or in ``perfbench/``.  A reference is a
name, an attribute, an imported name or alias, or a string constant equal
to the name (``perfbench/spans.py`` looks functions up by string).  Code
that only the tests call belongs in ``tests/reference.py``.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ehrenfest"

# The paper's auxiliary-chain identities: nothing runs them, but they state the
# one-step law, the single-ball motion and the product semigroup whose time
# transform is the Green potential the engine is built on; the tests check
# them against the chain and the engine.
PAPER_IDENTITIES = {
    "transition_prob",
    "single_ball_generator",
    "single_ball_semigroup",
    "product_semigroup",
    "green_potential",
}


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
        if node.name not in PAPER_IDENTITIES and references[node.name] <= _references(node)[node.name]
    ]
    assert not unreferenced, f"public names that only the tests call: {unreferenced}"


def test_the_allowlist_names_only_package_functions():
    defined = {node.name for tree in MODULES.values() for _, node in _definitions(tree)}
    assert PAPER_IDENTITIES <= defined
