"""Self-tests of the benchmark (not tier-1: ``testpaths`` does not reach here).

Run from the repo root with
``PYTHONPATH=src python -m pytest benchmarks/e2e/tests``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(os.path.dirname(BENCH_DIR))

# the benchmark's modules import each other by bare name, as run.py does
for path in (os.path.join(ROOT, "src"), BENCH_DIR):
    if path not in sys.path:
        sys.path.insert(0, path)
