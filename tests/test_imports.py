"""Tooling guards: every name imported in src/ and tests/ is used, the
package's export list matches what it binds, every exported function has a
caller outside its own module, every private module-level definition is
used in src/, only fields calls np.fft.rfftn, importing the package pulls
in nothing past the standard library and numpy and none of the modules it
loads on first use, the README counts every row of the verify battery,
and only the params helpers test for a bool where a number is due or word
a scalar rule."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import fracnlse
from fracnlse.verify import CHECKS

ROOT = Path(__file__).resolve().parent.parent


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    skip = used | _exported(tree)
    return sorted((line, name) for name, line in bound.items() if name not in skip)


def test_no_unused_imports():
    found = []
    for top in ("src", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            found += ["%s:%d %s" % (path.relative_to(ROOT), line, name)
                      for line, name in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_exports_match_the_package():
    # __all__ names only what the package binds, and every public name
    # __init__.py binds is exported.
    path = ROOT / "src" / "fracnlse" / "__init__.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    exported = _exported(tree)
    missing = sorted(name for name in exported if not hasattr(fracnlse, name))
    assert not missing, "__all__ names not on the package: %s" % missing
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Assign):
            bound |= {target.id for target in node.targets
                      if isinstance(target, ast.Name)}
    unlisted = sorted(name for name in bound
                      if not name.startswith("_") and name not in exported)
    assert not unlisted, "public names missing from __all__: %s" % unlisted


def test_lazy_names_resolve_to_their_modules():
    # The names the package loads on first use are exported, listed by
    # dir() and the very objects of their modules; any other name is an
    # AttributeError, so hasattr and submodule imports keep working.
    assert fracnlse._LAZY
    for name, module in fracnlse._LAZY.items():
        assert name in fracnlse.__all__
        assert name in dir(fracnlse)
        home = importlib.import_module("fracnlse." + module)
        assert getattr(fracnlse, name) is getattr(home, name)
    assert not hasattr(fracnlse, "no_such_name")


def test_every_exported_function_has_an_outside_caller():
    # A public function that only its own module and tests call belongs
    # behind an underscore.
    package = ROOT / "src" / "fracnlse"
    sources = {path.stem: path.read_text() for path in package.glob("*.py")
               if path.name != "__init__.py"}
    sources["perfbench.run"] = (ROOT / "perfbench" / "run.py").read_text()
    orphans = []
    for name in sorted(set(fracnlse.__all__)):
        obj = getattr(fracnlse, name)
        if not inspect.isfunction(obj):
            continue
        home = obj.__module__.rsplit(".", 1)[-1]
        word = re.compile(r"\b%s\b" % name)
        if not any(word.search(text) for stem, text in sources.items() if stem != home):
            orphans.append(name)
    assert not orphans, "exported functions with no outside caller: %s" % orphans


def _references(node: ast.AST) -> Counter:
    """Names a subtree reads, as bare names or as attributes."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_private_definition_is_used_in_src():
    # A module-level private function or class that nothing in src/ reads
    # outside its own body is kept only for its tests; the tests should
    # call what the package runs instead.
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted((ROOT / "src" / "fracnlse").glob("*.py"))]
    read = sum((_references(tree) for tree in trees), Counter())
    # Module dunders (__getattr__, __dir__) are read by the interpreter.
    private = [node for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.endswith("__")]
    assert len(private) > 50
    unused = sorted(node.name for node in private
                    if read[node.name] <= _references(node)[node.name])
    assert not unused, "private definitions nothing in src/ uses: %s" % unused


def test_only_fields_calls_rfftn():
    # fields._rfftn is the one forward real transform: a second home would
    # escape its bit-identity test and the transform counts.
    callers = []
    for path in sorted((ROOT / "src" / "fracnlse").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.stem != "fields" and any(isinstance(node, ast.Attribute)
                                         and node.attr == "rfftn" for node in ast.walk(tree)):
            callers.append(path.name)
    assert not callers, "np.fft.rfftn called outside fields: %s" % callers


# Where src/ may test isinstance(x, bool): the scalar-check helpers, and
# the two inputs that must themselves be bools.
_BOOL_TESTS = {("params", "_real"), ("params", "_count"), ("params", "_dimension"),
               ("solver", "pohozaev_project"), ("constants", "load_constants")}


def _bool_tests(tree: ast.Module):
    """The names of the module-level functions and classes of tree whose
    bodies call isinstance(x, bool), bool alone or in a tuple, once each."""
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                kinds = node.args[1]
                kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
                    yield getattr(top, "name", "<module>")
                    break


def test_scalar_checks_have_one_home():
    # "a finite real in range, not a bool" is written once, in params'
    # helpers; a new inline copy drifts from them in wording or in what it
    # lets through (float() reads a bool as 0 or 1 and a numeric string as
    # its number).
    found = []
    for path in sorted((ROOT / "src" / "fracnlse").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s.%s" % (path.stem, name) for name in _bool_tests(tree)
                  if (path.stem, name) not in _BOOL_TESTS]
    assert not found, "isinstance(x, bool) outside the params helpers: %s" % found


# The wording of the scalar rules that the params helpers state.
_RULE_WORDS = ("finite and positive", "lie in (0, 1)", "0 < s < 1")


def _docstrings(tree: ast.Module) -> set:
    """The ids of the docstring constants of a module and its functions and
    classes."""
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def test_rule_wording_has_one_home():
    # A message that words a rule of the params helpers outside params is
    # an inline copy of the rule, which drifts from it: the copies of
    # 0 < s < 1 once let a bool and a string through, or raised a KeyError.
    found = []
    for path in sorted((ROOT / "src" / "fracnlse").glob("*.py")):
        if path.stem == "params":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        docs = _docstrings(tree)
        found += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docs and any(w in node.value for w in _RULE_WORDS)]
    assert not found, "scalar rule worded outside params: %s" % found


def test_readme_counts_every_battery_row():
    # Both places the README gives the size of the verify battery.
    readme = (ROOT / "README.md").read_text()
    counts = re.findall(r"a battery of (\d+) identity", readme)
    counts += re.findall(r"the (\d+)-row check battery", readme)
    assert len(counts) == 2
    assert [int(c) for c in counts] == [len(CHECKS)] * 2


def test_package_import_loads_only_stdlib_and_numpy():
    # The cold import is part of every CLI call and of the benchmark's
    # setup time; a third-party module pulled in at import time shows there,
    # and so do the constants ladder and the verify battery, which a solve
    # never runs.
    probe = ("import sys\n"
             "before = set(sys.modules)\n"
             "import fracnlse\n"
             "print('\\n'.join(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    loaded = set(proc.stdout.split())
    deferred = {"fracnlse." + name for name in ("constants", "verify", "cli", "svg")}
    assert not loaded & deferred, "import fracnlse loads %s" % sorted(loaded & deferred)
    packages = {name.split(".")[0] for name in loaded}
    assert "fracnlse" in packages
    foreign = sorted(packages - sys.stdlib_module_names - {"fracnlse", "numpy"})
    assert not foreign, "import fracnlse loads %s" % foreign
