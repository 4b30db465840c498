import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import qdistill

SRC = Path(qdistill.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(tree):
    """Names a module imports but never reads; `__all__` counts as a read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_import_check_sees_one():
    tree = ast.parse("import os\nimport sys\nfrom math import pi, tau\n"
                     "print(sys.argv, tau)\n")
    assert _unused_imports(tree) == [(1, "os"), (3, "pi")]


def test_no_unused_imports():
    unused = [f"{path.name}:{line}: {name}"
              for path in sorted(SRC.glob("*.py"))
              for line, name in _unused_imports(ast.parse(path.read_text()))]
    assert unused == []


def test_import_computes_no_gate_matrix():
    # the rewrite rules are a constant table, checked by a test, not at import
    code = ("import sys\n"
            "calls = []\n"
            "def hook(frame, event, arg):\n"
            "    if event == 'call' and 'qdistill' in frame.f_code.co_filename:\n"
            "        calls.append(frame.f_code.co_name)\n"
            "sys.setprofile(hook)\n"
            "import qdistill.cli\n"
            "sys.setprofile(None)\n"
            "print(calls.count('gate_matrix'))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "0"


def _names_read(tree):
    """Names a module loads, reads as attributes, or imports by name."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_names_read_skips_definitions_and_stores():
    tree = ast.parse("def f():\n    pass\nclass C:\n    pass\n"
                     "x = g(h.k)\nfrom m import n\n")
    assert _names_read(tree) == {"g", "h", "k", "n"}


def test_public_names_are_read_outside_tests():
    # a public name must serve the library, a demo or the README session
    paths = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py"))
    read = set().union(*(_names_read(ast.parse(p.read_text())) for p in paths))
    readme = (ROOT / "README.md").read_text()
    unread = [name for name in qdistill.__all__
              if name not in read and not re.search(rf"\b{name}\b", readme)]
    assert unread == []
