"""Tooling guards: every name imported in src/ and tests/ is used, inside
src/ only params.py computes the derived exponents, and verify.py never
builds a list of probe fields."""

import ast
from pathlib import Path

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


def calls_to(path: Path, name: str) -> list:
    """Line numbers of calls to a bare or dotted name in path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and (isinstance(node.func, ast.Name) and node.func.id == name
                       or isinstance(node.func, ast.Attribute) and node.func.attr == name))


def test_exponents_for_is_called_only_in_params():
    # ModelParams owns two_star, zeta_p and level_decay_exponent; every law
    # reads them there instead of recomputing them from (N, s, p).
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.name != "params.py":
            found += ["%s:%d" % (path.relative_to(ROOT), line)
                      for line in calls_to(path, "exponents_for")]
    assert not found, "exponents_for called outside params.py:\n" + "\n".join(found)


def test_verify_takes_probes_through_its_context():
    # The verify rows stream probes (constants._probe_values) and keep only
    # their summaries; a probe_fields call would hold every field at once.
    path = ROOT / "src" / "fracnlse" / "verify.py"
    found = ["%s:%d" % (path.relative_to(ROOT), line)
             for line in calls_to(path, "probe_fields")]
    assert not found, "probe_fields called in verify.py:\n" + "\n".join(found)
