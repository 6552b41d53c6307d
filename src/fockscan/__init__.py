"""fockscan: entangled Fock-state cavity-array dark-matter search simulator."""

import os

# One BLAS/OpenMP thread per process unless the caller chose a count: the
# integration window multiplies cutoff^2 x cutoff^2 matrices, where extra
# BLAS threads cost more in hand-off than they save, and --jobs worker
# processes already occupy every core.  numpy reads these when first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
