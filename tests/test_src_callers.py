"""Every function in ``src/talex`` has a caller in ``src/talex``, and no
module imports another module's private names.

Code that only tests call belongs next to the tests.  This walks the
package's syntax trees and lists each function or method that no
``src/talex`` code names outside its own definition; ``__init__`` is not
read, since its re-exports call nothing.  A method counts as used when some
code names it as an attribute (``p.is_zero()``), any other function when
some code names it bare or as an attribute (``fox.wada_polynomial``).
Names are matched without their class, so a method shares its uses with
every method of the same name.  Dunder methods are called by the language and are exempt.

A name with a leading underscore is private to its module: what another
module needs is public, so the same walk lists every underscore name that
a module, ``__init__`` included, imports from the package.  And every
name a module other than ``__init__`` imports must be used in it, so an
import the code no longer needs (a stale ``mpmath.libmp`` helper) does not
linger as a dependency.
"""

import ast
from pathlib import Path

import talex

SRC = Path(talex.__file__).parent

# Qualified name (or a class, for all its methods) -> why it may stay.
_BUILT_BY_NAME = ("perfbench's set-up (workloads.load_talex) builds it by name, and the "
                  "identity tests prove r1 = Q r0 and zeta_1 = 0 on it; a context takes its "
                  "value from the form, not from the expanded polynomial")
ALLOWED = {
    "cli._Parser.error": "argparse calls it on a malformed command line",
    "pretzel.eta1_polynomial": _BUILT_BY_NAME,
    "pretzel.eta2_polynomial": _BUILT_BY_NAME,
    "pretzel.r1_polynomial": _BUILT_BY_NAME,
}


class _Walker(ast.NodeVisitor):
    """Collects a module's function definitions and the names it uses."""

    def __init__(self, module):
        self.module = module
        self.scope = [(None, module)]   # (node type, name) of enclosing defs
        self.defined = {}               # qualified name -> (name, is_method)
        self.bare, self.attrs = set(), set()
        self.imported = set()           # names imported from the package
        self.bound = set()              # names any import statement binds

    def _own(self, name):
        return any(kind is ast.FunctionDef and n == name for kind, n in self.scope)

    def visit_ClassDef(self, node):
        self.scope.append((ast.ClassDef, node.name))
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node):
        if not (node.name.startswith("__") and node.name.endswith("__")):
            qual = ".".join(n for _, n in self.scope + [(None, node.name)])
            self.defined[qual] = (node.name, self.scope[-1][0] is ast.ClassDef)
        self.scope.append((ast.FunctionDef, node.name))
        self.generic_visit(node)
        self.scope.pop()

    def visit_Name(self, node):
        if not self._own(node.id):
            self.bare.add(node.id)

    def visit_Import(self, node):
        self.bound |= {alias.asname or alias.name.split(".")[0]
                       for alias in node.names}

    def visit_ImportFrom(self, node):
        if node.level or (node.module or "").split(".")[0] == "talex":
            self.imported |= {alias.name for alias in node.names}
        self.bound |= {alias.asname or alias.name for alias in node.names}

    def visit_Attribute(self, node):
        if not self._own(node.attr):
            self.attrs.add(node.attr)
        self.generic_visit(node)


def _walkers():
    """One walked ``_Walker`` per module of the package."""
    for path in sorted(SRC.glob("*.py")):
        walker = _Walker(path.stem)
        walker.visit(ast.parse(path.read_text()))
        yield walker


def _walk_src():
    defined, bare, attrs = {}, set(), set()
    for walker in _walkers():
        if walker.module != "__init__":
            defined.update(walker.defined)
            bare |= walker.bare
            attrs |= walker.attrs
    return defined, bare, attrs


def _covers(key, qual):
    return qual == key or qual.startswith(key + ".")


def test_every_src_function_has_a_src_caller():
    defined, bare, attrs = _walk_src()
    uncalled = [qual for qual, (name, is_method) in sorted(defined.items())
                if name not in attrs and (is_method or name not in bare)]
    orphans = [q for q in uncalled if not any(_covers(k, q) for k in ALLOWED)]
    assert not orphans, "no caller in src/talex: " + ", ".join(orphans)
    # an entry for a function that is gone would outlive its reason
    assert [k for k in ALLOWED if not any(_covers(k, q) for q in defined)] == []


def test_no_src_module_imports_a_private_name():
    private = sorted(f"{walker.module}: {name}" for walker in _walkers()
                     for name in walker.imported if name.startswith("_"))
    assert not private, "private names imported: " + ", ".join(private)


def test_every_src_import_is_used():
    unused = sorted(f"{walker.module}: {name}" for walker in _walkers()
                    if walker.module != "__init__"
                    for name in walker.bound - walker.bare)
    assert not unused, "imported but never used: " + ", ".join(unused)
