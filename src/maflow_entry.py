"""The ``maflow`` console command: ``maflow.cli`` on one BLAS thread unless the user chose.

OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when numpy loads it, and at more than one BLAS
thread the process runs more than one thread, so ``maflow.flow`` forks no row-part worker and
runs a batch's two row parts in sequence.  This module imports nothing from ``maflow``, so it
can set the variable before numpy loads; a value the user set is kept.  ``import maflow`` as
a library sets nothing.
"""

import os


def main():
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from maflow.cli import entry
    entry()


if __name__ == "__main__":
    main()
