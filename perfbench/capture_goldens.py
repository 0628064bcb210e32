"""Write the byte-exact stdout of every cli-paper command to goldens/.

    python3 perfbench/capture_goldens.py

Run it only at a commit whose output is the reference: the cli-paper
workload fails every command whose stdout differs from these files.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import CLI_COMMANDS, golden_dir  # noqa: E402


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out_dir = golden_dir()
    out_dir.mkdir(exist_ok=True)
    for name, argv in CLI_COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "eprsim", *argv], env=env,
                              capture_output=True, check=True)
        (out_dir / f"{name}.out").write_bytes(proc.stdout)
        print(f"{name}: {len(proc.stdout)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
