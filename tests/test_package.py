import os
import subprocess
import sys
from pathlib import Path

import surfshape as ss


def test_star_import_exports_every_public_name():
    namespace: dict = {}
    exec("from surfshape import *", namespace)
    assert set(ss.__all__) <= set(namespace)


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(ss.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, surfshape.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
