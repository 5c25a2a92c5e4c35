"""Tests of the session benchmark's own machinery.

Run with ``PYTHONPATH=src python -m pytest benchmarks/session/tests -m bench``;
the tier-1 run (``testpaths = tests``, ``-m "not bench"``) never sees them.
"""

import sys
from pathlib import Path

# run.py puts its own directory on sys.path; do the same for its modules.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
