"""Make ``repro`` (under ``src/``) and ``perfbench`` importable for the
benchmark's own tests: ``python -m pytest perfbench -q`` from the root."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
