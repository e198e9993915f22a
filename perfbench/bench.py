"""Measurement of one workload per process: set-up, the closed-loop timed
run, the traced run, and the printed report.  `run.py` is the entry point."""

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from perfbench import gen, layers, stats, workloads
from perfbench.spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"

SETUP_SAMPLES = 3  # set-ups per run: this process plus fresh child processes
TRACE_ITEMS = 40  # items of the traced run: a fixed prefix, so counts repeat exactly
SPANS_DIR = ROOT / ".perfbench"
REF_EVERY_S = 0.05  # wall time between two samples of the reference work in the timed loop
REF_S = 0.002  # seconds of one run of `reference` on the reference machine: 1 ref_s = 500 runs
END_TO_END = (
    ("throughput_items_per_ref_s", "items/ref_s"),
    ("item_ref_s.p50", "ref_s"),
    ("item_ref_s.p90", "ref_s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _check_checkout() -> None:
    if not (ROOT / "src" / "entronet" / "__init__.py").is_file():
        _fail(f"no entronet sources under {ROOT / 'src'}")


def _import_check(en) -> None:
    if Path(en.__file__).resolve().parent != (ROOT / "src" / "entronet").resolve():
        _fail(f"imported entronet from {en.__file__}, not from this checkout")


def timed_setup(workload: str):
    start = time.perf_counter()
    ctx = workloads.setup(workload)
    elapsed = time.perf_counter() - start
    _import_check(ctx.en)
    return elapsed, ctx


def probe_setup(workload: str) -> float:
    """Set-up time measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(RUN), "--setup-probe", "--workload", workload],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _freeze() -> None:
    """Keep the item list and the set-up out of the garbage collector's
    scans, so that collections during the timed loop cost what the
    library's own objects cost."""
    gc.collect()
    gc.freeze()


def reference() -> int:
    """Fixed pure-Python work of the kind the library does (exact rational
    arithmetic on growing integers, dict and tuple traffic).  It uses
    nothing from entronet, so its time measures only the machine."""
    x = Fraction(1, 3)
    table = {}
    for i in range(200):
        x = x * Fraction(3, 4) + Fraction(i % 7, 5)
        table[(i % 50, i % 3)] = x.numerator % 11
    return len(table)


def reference_sample() -> float:
    """Seconds one run of `reference` takes now, with the garbage collector
    off so that no collection of the library's objects lands on its time."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference()
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_items(ctx, items, seconds=None, tracer=None, refs=None):
    """Closed loop over `items` (cycled when `seconds` is given, until that
    much time has passed).  Returns per-item (seconds, verdict or error)
    records, the wall time from the first start to the last end, and the
    total and largest gap between one item's end and the next one's start.
    With a list `refs`, a `reference_sample` is taken after the item that
    ends REF_EVERY_S or more after the previous sample, and appended to it;
    the gap before the next item does not count the sample."""
    clock = time.perf_counter
    records = []
    late_total = late_max = 0.0
    start = prev_end = next_ref = clock()
    i = 0
    while True:
        item = items[i % len(items)]
        t0 = clock()
        gap = t0 - prev_end
        late_total += gap
        late_max = max(late_max, gap)
        try:
            with tracer.span("item." + item["kind"]) if tracer else contextlib.nullcontext():
                outcome = workloads.run_item(ctx, item)
        except Exception as exc:  # an unexpected exception is a failed item
            outcome = f"{type(exc).__name__}: {exc}"
        prev_end = clock()
        records.append((prev_end - t0, outcome))
        i += 1
        if refs is not None and prev_end >= next_ref:
            refs.append(reference_sample())
            prev_end = clock()
            next_ref = prev_end + REF_EVERY_S
        if (seconds is None and i == len(items)) or (seconds is not None and prev_end - start >= seconds):
            break
    return records, prev_end - start, late_total, late_max


def errors_of(items, records):
    """(index, message) of every item whose verdict is wrong."""
    out = []
    for i, (_, outcome) in enumerate(records):
        item = items[i % len(items)]
        err = outcome if isinstance(outcome, str) else workloads.check(item, outcome)
        if err:
            out.append((i, f"{item['kind']}: {err}"))
    return out


def measure(workload: str, seed: int, seconds: float):
    setup_main, ctx = timed_setup(workload)
    items = gen.items(workload, seed)
    setups = [setup_main] + [probe_setup(workload) for _ in range(SETUP_SAMPLES - 1)]
    _freeze()
    refs = []
    records, wall, late_total, late_max = run_items(ctx, items, seconds=seconds, refs=refs)
    errors = errors_of(items, records)
    times = [t for t, _ in records]
    busy = sum(times)
    p90 = stats.percentile(times, 90)
    raw = {
        "throughput_items_per_s": (len(records) - len(errors)) / busy,
        "item_s.p50": stats.percentile(times, 50),
        "item_s.p90": p90,
    }
    # seconds per reference second: how much slower than the reference
    # machine this one ran the same fixed work over the timed loop
    slowdown = statistics.median(refs) / REF_S
    metrics = {
        "throughput_items_per_ref_s": raw["throughput_items_per_s"] * slowdown,
        "item_ref_s.p50": raw["item_s.p50"] / slowdown,
        "item_ref_s.p90": raw["item_s.p90"] / slowdown,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    lines = [
        f"workload: {workload}  seed: {seed}  input_digest: {gen.digest(items)}",
        f"items: {len(records)} attempted in {wall:.3f} s, {busy:.3f} s of it in items "
        f"({len(records) / len(items):.2f} passes over {len(items)} items)",
    ]
    lines += [f"{name}: {metrics[name]:.6g} {unit}" for name, unit in END_TO_END]
    lines += [f"{name}: {value:.6g} {unit} (wall time)"
              for (name, value), unit in zip(raw.items(), ("items/s", "s", "s"))]
    lines += [
        f"reference work: {len(refs)} samples, median {statistics.median(refs):.6f} s; "
        f"slowdown {slowdown:.4f} against {REF_S} s",
        f"item_s samples: {len(times)}, beyond p90: {sum(t > p90 for t in times)}",
        f"error_rate: {len(errors) / len(records):.6g} fraction ({len(errors)} of {len(records)})",
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}",
        f"generator_late_s: total {late_total:.6f}, max {late_max:.6f} (closed loop)",
    ]
    units = dict(END_TO_END)
    return lines, errors, len(records), {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def measure_traced(workload: str, seed: int):
    tracer = Tracer()
    with tracer.span("setup"):
        ctx = workloads.setup(workload, tracer)
    tracer.restore()
    _import_check(ctx.en)
    all_items = gen.items(workload, seed)
    items = all_items[:TRACE_ITEMS]
    _freeze()
    plain, plain_wall, _, _ = run_items(ctx, items)
    layers.install(tracer, ctx.en)
    try:
        traced, traced_wall, _, _ = run_items(ctx, items, tracer=tracer)
    finally:
        tracer.restore()
    errors = dict(errors_of(items, traced))
    for i, (a, b) in enumerate(zip(plain, traced)):
        if a[1] != b[1]:
            errors.setdefault(i, "traced verdict differs from the untraced one")
    values = layers.metrics(tracer)
    values["trace.overhead"] = traced_wall / plain_wall
    SPANS_DIR.mkdir(exist_ok=True)
    spans_file = SPANS_DIR / f"spans-{workload}.tsv"
    tracer.write_tsv(spans_file)
    units = dict(layers.per_layer_metrics())
    lines = [
        f"workload: {workload}  seed: {seed}  input_digest: {gen.digest(all_items)}",
        f"traced items: {len(items)}; untraced {plain_wall:.3f} s, traced {traced_wall:.3f} s; "
        f"{len(tracer.name)} spans written to {spans_file.relative_to(ROOT)}",
    ]
    lines += [f"{name}: {values[name]:.6g} {unit}" for name, unit in units.items()]
    return (lines, sorted(errors.items()), len(items),
            {k: {"value": values[k], "unit": u} for k, u in units.items()})


def run_all(args) -> int:
    """Every workload in its own process; metric names get the workload as prefix."""
    code, attempted, failed, metrics = 0, 0, 0, {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1):
            return proc.returncode  # no result without a complete checkout
        code = max(code, proc.returncode)
        if out:
            result = json.loads(out[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{workload}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": code == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="entronet benchmark")
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    _check_checkout()
    if args.setup_probe:
        print(timed_setup(args.workload)[0])
        return 0
    if args.trace:
        lines, errors, attempted, metrics = measure_traced(args.workload, args.seed)
    else:
        lines, errors, attempted, metrics = measure(args.workload, args.seed, args.seconds)
    print("\n".join(lines))
    for i, message in errors[:20]:
        print(f"wrong verdict at item {i}: {message}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": len(errors),
                      "metrics": metrics}))
    return 1 if errors else 0

