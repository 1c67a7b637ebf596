"""The one runtime dependency: pyproject.toml lists numpy and nothing else,
so importing the CLI loads no other package outside the standard library;
and each module of the package uses every name it imports."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def top_level_modules(statement: str) -> set[str]:
    """The top-level names in ``sys.modules`` of a fresh interpreter that
    ran ``statement``."""
    code = (f"import json, sys\n{statement}\n"
            "print(json.dumps(sorted({name.partition('.')[0] for name in sys.modules})))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_cli_imports_only_numpy_beyond_the_standard_library():
    # What a bare interpreter loads (site hooks such as _distutils_hack) does
    # not count.
    bare = top_level_modules("pass")
    loaded = top_level_modules("import statecast.cli") - bare - set(sys.stdlib_module_names)
    assert loaded <= {"numpy", "statecast"}, sorted(loaded)
    assert {"numpy", "statecast"} <= loaded


# Names a module imports for others to patch, with the reason.
IMPORTED_FOR_PATCHING = {
    # perfbench/spans.py wraps cli.run_forecast by name to time it.
    ("cli", "run_forecast"),
}


def unused_imports(source: str) -> set[str]:
    """The names ``source`` imports and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_module_uses_the_names_it_imports():
    modules = sorted((ROOT / "src" / "statecast").glob("*.py"))
    assert len(modules) > 5
    unused = {(path.stem, name) for path in modules if path.name != "__init__.py"
              for name in unused_imports(path.read_text(encoding="utf-8"))}
    assert unused == IMPORTED_FOR_PATCHING, sorted(unused)


def test_an_unused_import_is_found():
    assert unused_imports("from itertools import chain\nimport numpy as np\n"
                          "import os.path\nnp.zeros(os.sep)\n") == {"chain"}
