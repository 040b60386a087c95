"""Every module-level function and class of the library has a reader in it.

A name that only ``__init__`` or its own body mentions is reached by no
command; it belongs with the tests that use it, or nowhere.  The source
is read with ``ast``, not imported.

Start-up guards: the library imports no ``dataclasses`` and generates no
code, and ``import nazeta.cli`` loads neither ``dataclasses`` nor
``inspect``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import nazeta

# name -> why it stays although nothing else in the library reads it
ALLOWED = {
    "residue_at_one": "whole-fraction oracle; leaves with ROADMAP item 1a",
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


def test_no_dataclasses_and_no_generated_code():
    found = []
    for path in sorted(Path(nazeta.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Import)
                and any(a.name == "dataclasses" for a in node.names)
                or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
                or isinstance(node, ast.Call)
                and getattr(node.func, "id", None) in ("exec", "eval", "compile")
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    src = str(Path(nazeta.__file__).resolve().parents[1])
    code = (
        "import nazeta.cli, sys; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
