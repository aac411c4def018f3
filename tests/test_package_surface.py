"""The package exports only what its own modules use.

Every name that ``transducer_sim/__init__.py`` re-exports must be read
somewhere in ``src/`` outside ``__init__.py`` and its own definition: by a
run, or by another function that a run or a documented API reaches.  A new
export that only the tests call then fails here instead of growing the
surface unnoticed.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "transducer_sim"

#: exports that no module of the package reads yet, each with its reason
UNUSED_BY_DESIGN = {
    "cooperativity": "waits for the end-to-end device run to wire it in",
    "effective_optomechanical_coupling": "waits for the end-to-end device run to wire it in",
}


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def names_read_in_modules():
    """Every name loaded, read as an attribute or imported outside ``__init__.py``.

    A ``def`` or ``class`` statement binds its name without an ``ast.Name``
    node, so a definition alone does not count as a use.
    """
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_every_export_is_used_in_src():
    exports = exported_names()
    unused = exports - names_read_in_modules()
    assert unused - set(UNUSED_BY_DESIGN) == set(), "exported but read by no module"
    # an exception that got wired in (or deleted) leaves the set
    assert set(UNUSED_BY_DESIGN) == unused, "stale entries in UNUSED_BY_DESIGN"
