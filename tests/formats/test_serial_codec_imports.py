"""The codec runs in the caller: the product never loads a process pool.

Checked in a fresh interpreter, so modules another test imported cannot
mask an import the product makes itself.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = """
import sys
import repro.core.middleware, repro.cluster.shard, repro.serve, repro.vmd
print(sorted(
    name for name in ("multiprocessing.shared_memory", "concurrent.futures.process")
    if name in sys.modules
))
"""


def test_product_imports_load_no_process_pool_machinery():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    assert out.strip() == "[]"
