"""Pin BLAS to one thread before numpy loads.

With BLAS at its default thread count the suite's wall-clock budgets
measure machine load more than the engine: one tape test ran 8.9 s
instead of 1 s on a 2-vCPU VM next to one other busy process.  An
explicit setting in the environment still wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
