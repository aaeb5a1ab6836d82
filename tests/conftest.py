"""Make the test helper modules in this directory importable by name,
whatever import mode pytest runs in."""

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)
