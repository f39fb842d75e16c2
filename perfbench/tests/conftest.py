"""Put the repository root (for ``perfbench``) and ``src/`` on the path,
so ``pytest perfbench/tests`` runs from a plain checkout."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
