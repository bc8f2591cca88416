"""Print the interpreter, numpy and scipy versions and numpy's BLAS build.

    python3 perfbench/environment.py

Run as its own process after a benchmark run's measurements, so that the
benchmark itself never imports numpy or starts BLAS threads.
"""
import json
import platform

import numpy as np
import scipy

try:
    BLAS = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
except (TypeError, KeyError):  # numpy older than 1.26 prints instead
    BLAS = None

print(json.dumps({"python": platform.python_version(), "numpy": np.__version__,
                  "scipy": scipy.__version__, "blas": BLAS}))
