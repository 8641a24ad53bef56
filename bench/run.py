"""Benchmark entry point.

    python3 bench/run.py --workload mlp_desk --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout. It imports the simulator from the
checkout's own ``src/`` and fails with exit code 2 when that is missing. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; see ``bench/README.md``.
"""

import os
import sys
from pathlib import Path

# Every workload runs with this many BLAS threads. On a 2-core machine the
# default pool made the desk run slower and noisier than one thread.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent


def prepare_process() -> None:
    """Pin the BLAS pool size and put the checkout's sources first on the
    import path. Must run before numpy is imported: OpenBLAS reads the
    thread count once, when it loads."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))


if __name__ == "__main__":
    prepare_process()
    try:
        import harness
    except ImportError as exc:
        print(f"cannot import the simulator from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(harness.main(sys.argv[1:]))
