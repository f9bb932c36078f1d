import os
import sys

# One BLAS thread for the CLI process unless the caller exports its own
# OPENBLAS_NUM_THREADS. The package's linear algebra (2x2 and 3x3 solves, a
# few-column lstsq) is too small to gain from a thread pool, and OpenBLAS
# splits long reductions over its threads, which changes the summation order
# and so makes output bytes depend on the host's core count. It must be set
# before numpy loads, and is set here rather than in the library so that
# importing kerrsqueeze never changes a host program's BLAS threading.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402  (after the BLAS default, on purpose)

if __name__ == "__main__":
    sys.exit(main())
