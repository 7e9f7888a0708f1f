"""Names that one module owns are read by no other module of the package.

Only poset reads the order state (_up, _pos, _members), only diagram
reads its store (_kept), and only intlinalg reads a private intlinalg
name, whether as la._name or imported from intlinalg.  The scan walks
each module's syntax tree, so a comment or a string naming one of them
does not count.
"""

import ast
from pathlib import Path

import posetlim

SRC = Path(posetlim.__file__).parent

# owned attribute -> the one module that may read it
OWNED = {"_up": "poset", "_pos": "poset", "_members": "poset", "_kept": "diagram"}


def _owned_reads(module, source):
    """(line, name) for each read in source, the text of module, of a
    name that another module owns."""
    tree = ast.parse(source)
    aliases = set()  # the names intlinalg is bound to in this module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in (None, "posetlim") and node.level <= 1:
                aliases |= {a.asname or a.name for a in node.names if a.name == "intlinalg"}
            elif (node.module or "").endswith("intlinalg") and module != "intlinalg":
                found += [(node.lineno, a.name) for a in node.names if a.name.startswith("_")]
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = OWNED.get(node.attr)
        if owner is not None and owner != module:
            found.append((node.lineno, node.attr))
        elif (module != "intlinalg" and node.attr.startswith("_")
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_no_module_reads_a_name_another_module_owns():
    modules = sorted(SRC.glob("*.py"))
    assert {p.stem for p in modules} >= {"poset", "diagram", "intlinalg", "spectral"}
    faults = [f"{path.name}:{line}: {name}"
              for path in modules
              for line, name in _owned_reads(path.stem, path.read_text())]
    assert not faults, "owned names read outside their module:\n" + "\n".join(faults)


def test_the_scan_finds_each_kind_of_read():
    source = "\n".join([
        "from . import intlinalg as la",
        "from .intlinalg import _echelon_cols, solve",
        "def f(P, F, M):",
        "    return P._up, P._pos[0], P._members, F._kept, la._kernel_cols(M), la.solve",
        "# P._up in a comment, and '_kept' in a string",
    ])
    assert _owned_reads("spectral", source) == [
        (2, "_echelon_cols"), (4, "_kept"), (4, "_members"), (4, "_pos"), (4, "_up"),
        (4, "la._kernel_cols")]
    assert _owned_reads("poset", source) == [(2, "_echelon_cols"), (4, "_kept"),
                                             (4, "la._kernel_cols")]
    assert _owned_reads("intlinalg", source) == [(4, "_kept"), (4, "_members"), (4, "_pos"),
                                                 (4, "_up")]
