"""Makes the repo root importable, so the Petri-net tests can share
``tests.petri.builders``."""

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)
