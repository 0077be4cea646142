"""What importing the package costs: no third-party graph library."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_repro_leaves_networkx_unloaded():
    code = (
        "import sys, repro, repro.core, repro.core.dependencies; "
        "print('networkx' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    assert result.stdout.strip() == "False"
