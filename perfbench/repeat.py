"""Run the benchmark once per seed and summarize the end-to-end metrics.

    python3 perfbench/repeat.py --workload witness --seeds 1-10 [--out FILE]

For every metric it prints the median, the quartiles of
`statistics.quantiles(values, n=4)`, and their distance as a share of the
median next to the metric's bound from BENCHMARK.json.  `--out` writes the
per-seed values and the summary as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT)]

from perfbench import stats  # noqa: E402


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine() -> dict:
    """The hardware and library versions a measurement was made with."""
    import mpmath
    import numpy
    import scipy

    cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
    cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo
                if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "mpmath": mpmath.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}, failed {result['failed']}", file=sys.stderr)
            return 1
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append({"seed": seed, "attempted": result["attempted"], "metrics": values})
        print(f"seed {seed}: " + "  ".join(f"{k}={v:.5g}" for k, v in values.items()), flush=True)
    summary = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": stats.spread(values),
                         "bound": bound}
        print(f"{name:24s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
              f"spread {summary[name]['spread']:.3f} (bound {bound})")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "machine": machine(),
                                              "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
