"""One set-up in a fresh interpreter: import seqsurv and solve the workload's
design.  Prints the seconds this took.  ``run.py`` starts it several times
and reports the median as ``setup_s``.

Usage (from the repository root): python3 bench/setup_probe.py <workload>
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    workload, work_dir = sys.argv[1], Path(sys.argv[2])
    sys.path.insert(0, str(Path.cwd() / "src"))
    import workloads  # imports seqsurv, numpy and scipy

    workloads.setup(workload, work_dir)
    print(repr(time.perf_counter() - _START))


if __name__ == "__main__":
    main()
