"""Every name ``prodhardy`` exports is reached from the package itself, or
is kept on purpose for the tests and is listed here with the reason.

The check reads the source with ``ast``: a name counts as reached when
some module of ``src/prodhardy`` other than ``__init__.py`` refers to it,
by name or as an attribute, outside the name's own top-level definition.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "prodhardy"

# exported, reached by no code path of the package, and kept for the tests
KEPT_FOR_TESTS = {
    "strong_maximal_exhaustive": "the oracle of strong_maximal (criterion 9)",
    "cmo_p": "the CMO^p duality check (criterion 9, CI's memory guard)",
    "cmo_p_exhaustive": "the oracle of cmo_p (criterion 9)",
    "journe_check": ("the covering-lemma check of criterion 6, and the function the "
                     "journe.journe_check.* metrics of BENCHMARK.json trace by name"),
    "generate_atom": "the random atoms of the converse bound (criterion 8)",
}


def exported() -> list[str]:
    init = ast.parse((SRC / "__init__.py").read_text())
    return [alias.asname or alias.name for node in init.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def references(tree: ast.Module, name: str) -> int:
    """Names ``name`` and attributes called ``name`` in ``tree``, outside
    a top-level function or class of that name."""
    count = 0
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            continue
        for sub in ast.walk(node):
            count += ((isinstance(sub, ast.Name) and sub.id == name)
                      or (isinstance(sub, ast.Attribute) and sub.attr == name))
    return count


def test_every_export_is_reached_or_kept_for_a_reason():
    modules = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
               if p.name != "__init__.py"]
    unreached = {name for name in exported() if not any(references(t, name) for t in modules)}
    assert unreached == set(KEPT_FOR_TESTS), (
        f"reached by nothing and not kept: {sorted(unreached - set(KEPT_FOR_TESTS))}; "
        f"kept but reached: {sorted(set(KEPT_FOR_TESTS) - unreached)}")
