"""The one runtime dependency: pyproject.toml lists numpy and nothing else,
so importing the CLI loads no other package outside the standard library."""

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
