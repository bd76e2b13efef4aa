"""Locate the checkout the benchmark runs in and import its ``src/``.

The benchmark lives in ``perfbench/`` at the root of a checkout and
measures the program in that checkout's ``src/``.  Importing this module
puts ``src/`` first on ``sys.path``; without it the benchmark cannot run
and exits with code 2.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

if not (SRC / "repro" / "__init__.py").is_file():
    print(f"perfbench: no program at {SRC}/repro; run from a checkout",
          file=sys.stderr)
    sys.exit(2)
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
