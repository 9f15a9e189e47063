"""`import fredreg` loads numpy and scipy.special, nothing heavier.

scipy.linalg and scipy.sparse load on the first numeric_eigensystem call, and
scipy.stats not at all.  The check runs in a fresh interpreter because other
test modules import scipy.stats into this one.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PROBE = """import sys
import fredreg
print("\\n".join(sorted(m for m in sys.modules if m.startswith(("scipy.stats", "scipy.linalg", "scipy.sparse")))))
"""


def test_import_fredreg_loads_no_stats_linalg_or_sparse():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
