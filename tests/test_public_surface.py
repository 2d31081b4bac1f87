"""Every name `cantorkit` exports, and every public function and class of its
modules, has a caller outside the tests.

A name counts as called when one of these uses it: the code of another
function in the package (a CLI verb included), a benchmark workload
(`perfbench/workloads.py`, `perfbench/worker.py`, or the table names that
`perfbench/layers.py::table_caches` looks up), or README's Library block,
which `tests/test_readme.py` runs.  No test counts, an acceptance check in
`tests/test_acceptance.py` included: a form that only tests call, as the
reference they compare a kernel against, belongs in `tests/oracles.py`.  Uses
are read off the syntax trees, so a name in a docstring, a comment, a string
or an import line is not a use, and nor is a use inside the name's own
definition.

A public method or property of a public class counts as used when an attribute
of its name is read in the package outside its own definition, or in one of
the benchmark files or the README block above.
"""

import ast
import collections
import functools
import importlib
import os

import pytest

from test_readme import _library_block

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "cantorkit")
MODULES = sorted(f[:-3] for f in os.listdir(PACKAGE) if f.endswith(".py") and f != "__init__.py")
OUTSIDE = (("perfbench", "workloads.py"), ("perfbench", "worker.py"), ("README.md",))


def _tree(*parts):
    if parts == ("README.md",):   # the Library block, as test_readme runs it
        return ast.parse(_library_block())
    with open(os.path.join(ROOT, *parts)) as fh:
        return ast.parse(fh.read())


def exports():
    """(module, name) for every name in the _EXPORTS table of cantorkit/__init__.py."""
    table = next(node.value for node in _tree("src", "cantorkit", "__init__.py").body
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "_EXPORTS")
    return [(module, name) for module, names in ast.literal_eval(table).items()
            for name in names]


def definitions():
    """(module, name) for every public function and class at the top of a module."""
    return [(mod, node.name)
            for mod in MODULES for node in _tree("src", "cantorkit", mod + ".py").body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def members():
    """(module, class, definition) for every public method and property of a public class."""
    return [(mod, cls.name, node)
            for mod in MODULES for cls in _tree("src", "cantorkit", mod + ".py").body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def _reads(tree):
    """How often each attribute name is read in a syntax tree."""
    return collections.Counter(node.attr for node in ast.walk(tree)
                               if isinstance(node, ast.Attribute)
                               and isinstance(node.ctx, ast.Load))


def _tail(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


@functools.lru_cache(maxsize=None)
def _uses(parts, module=None):
    """{(module, name): the top-level definitions whose code uses it} for one file.

    `mod.name`, `a.mod.name` and `alias.name` after `alias = a.mod` or `import a.mod as
    alias` give (mod, name); a bare name gives the module it is imported from
    ("cantorkit" for the package), or `module` for a name of the file's own module.  Code
    outside any definition is held by None."""
    tree = _tree(*parts)
    imported = {alias.asname or alias.name: (node.module or "").rsplit(".", 1)[-1]
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    aliases = {node.targets[0].id: _tail(node.value) for node in ast.walk(tree)
               if isinstance(node, ast.Assign) and len(node.targets) == 1
               and isinstance(node.targets[0], ast.Name) and _tail(node.value) in MODULES}
    aliases.update((alias.asname, alias.name.rsplit(".", 1)[-1]) for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names if alias.asname)
    out = {}
    for top in tree.body:
        holder = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute):
                owner = _tail(node.value)
                use = (aliases.get(owner, owner), node.attr)
            elif isinstance(node, ast.Name) and (node.id in imported or module):
                use = (imported.get(node.id, module), node.id)
            else:
                continue
            out.setdefault(use, set()).add(holder)
    return out


def _table_cache_names():
    """The word-table names that perfbench's table_caches passes to getattr(core, ...)."""
    fn = next(node for node in _tree("perfbench", "layers.py").body
              if isinstance(node, ast.FunctionDef) and node.name == "table_caches")
    return {("core", node.value) for node in ast.walk(fn)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def callers(module, name):
    """The files whose code uses module.name under the rule of this file's docstring."""
    found = []
    for mod in MODULES:
        holders = _uses(("src", "cantorkit", mod + ".py"), mod).get((module, name), set())
        if holders - ({name} if mod == module else set()):
            found.append("src/cantorkit/%s.py" % mod)
    for parts in OUTSIDE:
        uses = _uses(parts)
        if (module, name) in uses or ("cantorkit", name) in uses:
            found.append("/".join(parts))
    if (module, name) in _table_cache_names():
        found.append("perfbench/layers.py")
    return found


def test_every_export_has_a_caller():
    # and every other public function and class of a module
    assert exports(), "no exports found"
    names = sorted(set(exports()) | set(definitions()))
    orphans = [module + "." + name for module, name in names if not callers(module, name)]
    assert orphans == [], "public with no caller in src, perfbench or the README block"


def test_every_public_member_is_read():
    src = sum((_reads(_tree("src", "cantorkit", mod + ".py")) for mod in MODULES),
              collections.Counter())
    outside = sum((_reads(_tree(*parts)) for parts in OUTSIDE), collections.Counter())
    found = members()
    # col_sums is walked, and counts as read: ruelle reads it
    assert ("core", "AdmissibilityMatrix", "col_sums") in [
        (mod, cls, node.name) for mod, cls, node in found]
    unread = ["%s.%s.%s" % (mod, cls, node.name) for mod, cls, node in found
              if src[node.name] <= _reads(node)[node.name] and not outside[node.name]]
    assert unread == [], "public members read by no one but the unit tests"


def test_exports_are_their_modules_objects():
    import cantorkit
    for module, name in exports():
        mod = importlib.import_module("cantorkit." + module)
        assert getattr(cantorkit, name) is getattr(mod, name) and name in dir(cantorkit)
        assert getattr(mod, name).__module__ == mod.__name__   # defined there, not imported
    assert sorted(cantorkit.__all__) == sorted(name for _, name in exports())
    assert cantorkit.fileio is importlib.import_module("cantorkit.fileio")
    with pytest.raises(AttributeError, match="no attribute 'format_graph'"):
        cantorkit.format_graph


def test_the_rule_sees_uses_and_nothing_else():
    # rank: called by CylinderFunction.indicator alone
    assert callers("core", "rank") == ["src/cantorkit/core.py"]
    # weighted_complement_basis: called inside its own module alone; an acceptance
    # check calls it too, and no test counts
    assert callers("wavelets", "weighted_complement_basis") == ["src/cantorkit/wavelets.py"]
    # fourier_approx: reached through `ops = self.ck.operators` in a workload; it calls
    # fourier_sweep, which is no use of fourier_approx
    assert callers("operators", "fourier_approx") == ["perfbench/workloads.py"]
    # names in layers.py's metric table are strings, not uses; table_caches' are
    assert "perfbench/layers.py" not in callers("spectral", "norm")
    assert callers("core", "word_index") == ["perfbench/workloads.py", "perfbench/layers.py"]
    # `import cantorkit as ck` in the README block: ck.perron_data is a use
    assert "README.md" in callers("spectral", "perron_data")
    # CylinderFunction.indicator: a member read by README's Library block alone
    assert [parts for parts in OUTSIDE if _reads(_tree(*parts))["indicator"]] == [("README.md",)]
    assert not any(_reads(_tree("src", "cantorkit", mod + ".py"))["indicator"] for mod in MODULES)
