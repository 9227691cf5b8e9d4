"""Every public module-level function and class of maltkit has a caller in
the program (src/, scripts/ or perfbench/) or is a documented library
entry point, and every public method of a public class is read as an
attribute by the program, so no public helper lives on for the tests
alone."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "maltkit"


def public_definitions():
    """{name: modules} of the public module-level defs and classes."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                out.setdefault(node.name, set()).add(path.stem)
    return out


def program_files():
    return [path for top in ("src", "scripts", "perfbench")
            for path in sorted((ROOT / top).rglob("*.py"))]


def public_methods(paths):
    """{name: classes} of the public methods of the public module-level
    classes in paths."""
    out = {}
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        out.setdefault(sub.name, set()).add(node.name)
    return out


def attribute_names(paths):
    """The names that paths read as an attribute or as a whole string
    constant (an attribute looked up by name)."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return used


def referenced_names(names):
    """The names among names that the program uses: as a name, an
    attribute, or a whole string constant (an attribute looked up by
    name).  An import alone is no use, nor is a name inside its own
    definition, nor a word in a docstring."""
    used = set()
    for path in program_files():
        tree = ast.parse(path.read_text())
        own = {}  # node -> the name of the top-level definition holding it
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own.update((sub, node.name) for sub in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name in names and not (path.parent == PACKAGE and own.get(node) == name
                                      and path.stem in names[name]):
                used.add(name)
    return used


def readme_entry_points():
    """The names imported in the README's "Library entry points" block."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library entry points", 1)[1].split("```python", 1)[1]
    tree = ast.parse(block.split("```", 1)[0])
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def test_every_public_name_has_a_caller_or_is_an_entry_point():
    names = public_definitions()
    dead = set(names) - referenced_names(names) - readme_entry_points()
    assert not dead, sorted(dead)


def test_the_guard_sees_calls_and_lookups_but_not_prose():
    names = public_definitions()
    used = referenced_names(names)
    assert "orbit_partition" in used  # perfbench looks it up by name
    assert "is_idemprimal" in used  # perfbench calls it
    assert "murskii_tail" not in used  # only in a docstring and its own def


def test_every_public_method_is_read_by_the_program():
    methods = public_methods(sorted(PACKAGE.glob("*.py")))
    dead = set(methods) - attribute_names(program_files())
    assert not dead, sorted(f"{cls}.{name}" for name in dead for cls in methods[name])


def test_the_method_guard_catches_an_unused_method(tmp_path):
    module = tmp_path / "box.py"
    module.write_text("class Box:\n"
                      "    def used(self): ...\n"
                      "    def spare(self): ...\n"
                      "    def _own(self): ...\n"
                      "\n"
                      "Box().used()\n")
    methods = public_methods([module])
    assert methods == {"used": {"Box"}, "spare": {"Box"}}
    assert set(methods) - attribute_names([module]) == {"spare"}
