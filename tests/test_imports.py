"""The package imports only NumPy, scipy.sparse and the standard library.

Every process that imports grafenne pays for what its imports load:
scipy.stats alone, once used for the ranks of one AUC, loaded about
48 MiB of modules and half a second of start-up. The check runs in a fresh
interpreter, so modules this test session has already loaded do not hide
a new import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Loads numpy and scipy.sparse, imports every grafenne module, and prints
# the modules that were new: module objects, so an alias of one already
# loaded (multiprocessing's __mp_main__ for __main__) is not counted.
_PROBE = """
import importlib, json, pkgutil, sys
import numpy, scipy.sparse
before = set(map(id, sys.modules.values()))
import grafenne
for info in pkgutil.walk_packages(grafenne.__path__, "grafenne."):
    importlib.import_module(info.name)
print(json.dumps(sorted(n for n, m in sys.modules.items() if id(m) not in before)))
"""


def _outside(name):
    top = name.partition(".")[0]
    return top != "grafenne" and top not in sys.stdlib_module_names


def test_the_package_imports_only_numpy_scipy_sparse_and_the_standard_library():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    new = json.loads(proc.stdout)
    assert "grafenne.tasks" in new  # the walk reached the modules
    outside = {n for n in new if _outside(n)}
    # name the outermost: scipy.stats, not each of its submodules
    roots = sorted(n for n in outside if n.rpartition(".")[0] not in outside)
    assert not roots, f"importing grafenne loads {', '.join(roots)}"
