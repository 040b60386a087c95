"""Every module-level function and class of the library has a reader in it.

A name that only ``__init__`` or its own body mentions is reached by no
command; it belongs with the tests that use it, or nowhere.  The source
is read with ``ast``, not imported.
"""

import ast
from pathlib import Path

import nazeta

# name -> why it stays although nothing else in the library reads it
ALLOWED = {
    "residue_at_one": "whole-fraction oracle; leaves with ROADMAP item 1",
}


def uncalled_definitions() -> set[str]:
    """Top-level functions and classes that no other top-level statement
    of the library reads, as a name or an attribute name."""
    refs = []  # (module, defined name or None, names read)
    for path in sorted(Path(nazeta.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(), str(path)).body:
            owner = getattr(node, "name", None)
            names = {getattr(sub, "id", getattr(sub, "attr", None)) for sub in ast.walk(node)}
            refs.append((path.stem, owner, names))
    return {
        name
        for stem, name, _ in refs
        if name is not None
        and not any(name in names and (m, o) != (stem, name) for m, o, names in refs)
    }


def test_every_definition_is_read_in_the_library():
    assert uncalled_definitions() == set(ALLOWED)
