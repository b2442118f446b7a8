"""Make ``perfbench`` and the program under test importable.

Run from the checkout root: ``python3 -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
