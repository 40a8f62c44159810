"""Print, as one JSON object, the environment a benchmark run measured.

    PYTHONPATH=src python3 perfbench/envinfo.py

Python, numpy and scipy versions, usable CPUs, the OpenBLAS thread count
(read from the OpenBLAS library numpy loaded, when there is one) and the
operator backend nsk selects.  It imports ``nsk.cli``, so running it also
warms the bytecode and file caches before set-up time is measured.
"""

import ctypes
import json
import os
import platform

import numpy
import scipy

import nsk.cli
import nsk.operators


def openblas_threads():
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


print(
    json.dumps(
        {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "openblas_threads": openblas_threads(),
            "backend": nsk.operators.backend_name(),
        }
    )
)
