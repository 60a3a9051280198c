"""numpy, imported on first attribute access.

A cache hit of the row commands runs no numpy, so it does not pay for
numpy's import, most of the package's own: the entry's columns are JSON
lists of ints, and statistics.ClassTable and arrangements.digit_groups,
the one reader of a code's digits, read them in pure Python.  Every other
path imports numpy at its first ``np.`` access.  Modules use ``from ._numpy import np``.
LazyLoader is not thread-safe before Python 3.12; the package starts no
threads.
"""

import importlib.util
import sys

if "numpy" in sys.modules:
    np = sys.modules["numpy"]
else:
    _spec = importlib.util.find_spec("numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = importlib.util.module_from_spec(_spec)
    sys.modules["numpy"] = np
    _spec.loader.exec_module(np)
