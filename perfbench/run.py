"""The entronet benchmark.

    python3 perfbench/run.py --workload qu-codes --seed 1 --seconds 20 --trace 0

runs one workload in this process as a single closed-loop client: the next
item starts as soon as the previous one has finished.  It prints every
metric with its unit and, as its last line, a JSON object with `correct`,
`attempted`, `failed` and `metrics`.  `--trace 0` measures the end-to-end
metrics; `--trace 1` runs the first TRACE_ITEMS items once untraced and
once with spans around the library's public functions, and reports the
per-layer metrics of `layers.json`.  `--workload all` runs every workload,
each in its own process.  The exit code is 1 when a verdict is wrong and 2
when the checkout holds no entronet sources.
"""

import os

# one client in one thread: cap the native thread pools before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]  # the checkout's sources, not an install

from perfbench.bench import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
