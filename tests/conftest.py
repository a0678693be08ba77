"""Pin BLAS to one thread for the test suite.

The suite's matrices are small, where a BLAS thread pool costs more in
start-up and contention than it gains: on a loaded machine a 30 x 30
solve was seen to take 8 ms instead of 0.04 ms. A value already set in
the environment wins. This module is imported before any test module, so
before numpy loads its BLAS.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
