"""Make the test helper modules in this directory importable by name,
whatever import mode pytest runs in.

Hypothesis's pytest plugin imports `hypothesis.extra._patching` when a
test fails, and that module's libcst import raises a DeprecationWarning;
under `-W error` the warning would end the session with INTERNALERROR
instead of a failure report.  Importing it once here, with only that
warning ignored, lets the plugin's later import find it loaded."""

import os
import sys
import warnings

_HERE = os.path.dirname(os.path.abspath(__file__))
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
