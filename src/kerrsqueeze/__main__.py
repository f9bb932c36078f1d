import os
import sys
from typing import Optional, Sequence

# One BLAS thread for the CLI process unless the caller exports its own
# OPENBLAS_NUM_THREADS. The package's linear algebra (2x2 and 3x3 solves, a
# few-column lstsq) is too small to gain from a thread pool, and OpenBLAS
# splits long reductions over its threads, which changes the summation order
# and so makes output bytes depend on the host's core count. It must be set
# before numpy loads, and is set here rather than in the library so that
# importing kerrsqueeze never changes a host program's BLAS threading.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import cli  # noqa: E402  (after the BLAS default, on purpose)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Runs the CLI and ends the process with its exit code once stdout and
    stderr are flushed. ``os._exit`` skips the interpreter's teardown of numpy
    and every loaded module, so ``atexit`` handlers do not run; under ``-X dev``
    the code is returned and the interpreter finalizes as usual, so warnings
    raised in teardown still show. An exception leaves as it would from
    ``cli.main``."""
    code = cli.main(argv)
    if sys.flags.dev_mode:
        return code
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    sys.exit(main())
