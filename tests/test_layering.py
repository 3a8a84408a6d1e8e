"""Layering guard: the algorithm layers never import the service layer.

The flow, kernel, checkers and verifier sit below ``repro.service``; an
import in the other direction (even a deferred one inside a function)
couples the algorithm to its deployment.  The scan is over the AST, so
it sees every import statement wherever it sits.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

#: Packages (and modules) under ``src/repro`` that must not import
#: ``repro.service``.
LOWER_LAYERS = ("bdd", "bds", "check", "decomp", "network", "verify",
                "perf.py")


def _lower_layer_files():
    for layer in LOWER_LAYERS:
        path = os.path.join(SRC, "repro", layer)
        if layer.endswith(".py"):
            yield path
            continue
        for dirpath, _dirs, files in sorted(os.walk(path)):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def _service_imports(path, root=SRC):
    """``file:line`` of every import statement in ``path`` that brings in
    ``repro.service`` or one of its modules (relative imports resolved
    against the file's package under ``root``)."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    package = os.path.relpath(os.path.dirname(path), root).split(os.sep)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] \
                if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            names = [module] + ["%s.%s" % (module, alias.name)
                                for alias in node.names]
        else:
            continue
        if any(name == "repro.service" or name.startswith("repro.service.")
               for name in names):
            found.append("%s:%d" % (os.path.relpath(path, root), node.lineno))
    return found


def test_lower_layers_never_import_the_service():
    files = list(_lower_layer_files())
    assert len(files) > 20
    assert [v for path in files for v in _service_imports(path)] == []


def test_scan_sees_deferred_and_relative_imports(tmp_path):
    pkg = tmp_path / "repro" / "bds"
    pkg.mkdir(parents=True)
    probe = pkg / "probe.py"
    probe.write_text("import repro.servicelike\n"
                     "def f():\n"
                     "    from repro.service.cache import Artifact\n"
                     "    from ..service import api\n"
                     "    from .. import service\n"
                     "    import repro.service\n")
    assert _service_imports(str(probe), root=str(tmp_path)) == [
        "repro/bds/probe.py:%d" % line for line in (3, 4, 5, 6)]
