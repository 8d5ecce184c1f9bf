"""Benchmark runner for polyfin.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload eval-worked --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop with a single client: each
operation starts when the previous one returns.  The runner imports the
package from ``src/`` of the same checkout, builds the workload's inputs
from ``--seed``, runs one warm-up operation, then times operations for
``--seconds`` seconds and checks every output against an oracle outside
the timed region.

With ``--trace 0`` it reports end-to-end metrics; two more processes repeat
the set-up so that ``setup_s`` is a median of three.  With ``--trace 1``
each input runs once untraced and once with the span wrappers of
``tracing.py`` installed, and per-layer metrics come from the traced runs.
A table of every metric, with unit and sample count, goes to standard
output first; the last line is one JSON object for the benchmark driver.
"""

import time

# setup_s counts from here: the runner's first statement after the clock.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import LAYERS, ROOT_SPAN, SIZED, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120

# End-to-end metrics that every workload reports to the driver.  Wall
# time per operation is printed but not among them: on a shared host it
# ran up to 1.5 times CPU time, and its spread over ten seeds reached 0.23.
CONTRACT_E2E = ("setup_s", "op_cpu_s_p50", "peak_rss_mb")


def load_program():
    """Import polyfin from this checkout's src/, and from nowhere else."""
    init = SRC / "polyfin" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no polyfin sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polyfin
    if Path(polyfin.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported polyfin from {polyfin.__file__}"
                         f", not from {SRC}")


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop; tracks machine speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - start


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it.

    Uses the nearest-rank percentile: percentile q is the value at rank
    ceil(q * n / 100), so ten samples lie beyond it when that rank is at
    most n - 10.  None when there are fewer than eleven samples.
    """
    n = len(values)
    if n < 11:
        return None
    q = (100 * (n - 10)) // n
    rank = max(1, -(-q * n // 100))
    return q, sorted(values)[rank - 1]


class Op:
    __slots__ = ("wall", "cpu", "sizes", "error", "traced")

    def __init__(self, wall, cpu, sizes, error, traced=False):
        self.wall, self.cpu, self.sizes = wall, cpu, sizes
        self.error, self.traced = error, traced


def timed(wl, inp, tracer=None) -> Op:
    """Run one operation, time it, then check its output untimed."""
    if tracer is not None:
        tracer.install()
        sid = tracer.open(ROOT_SPAN)
    c0 = time.process_time()
    t0 = time.perf_counter()
    error = None
    try:
        result = wl.run(inp)
    except Exception:  # a crash is a failed operation, not a failed run
        error = traceback.format_exc(limit=-3)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    if tracer is not None:
        tracer.close(sid)
        tracer.uninstall()
    sizes = None
    if error is None:
        sizes, error = checked(wl, inp, result)
    return Op(wall, cpu, sizes, error, tracer is not None)


def checked(wl, inp, result) -> tuple[dict | None, str | None]:
    """The oracle's verdict on one output: (sizes, None) or (None, error)."""
    from workloads import CheckFailed
    try:
        return wl.check(inp, result), None
    except CheckFailed as exc:
        return None, f"wrong output: {exc}"
    except Exception:  # unreadable output is a wrong output too
        return None, "unreadable output:\n" + traceback.format_exc(limit=-3)


def child_setups(args, count: int) -> list[float]:
    """Set-up times of fresh processes running only the set-up."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def e2e_metrics(ops, setups) -> dict:
    """Every end-to-end metric: name -> (value or None, unit, samples).

    Which throughput and output metrics apply follows from the sizes a
    workload's oracle reports: elements, law cases, JSON bytes, read-back.
    """
    walls = [o.wall for o in ops]
    good = [o for o in ops if o.error is None]
    total_wall = sum(o.wall for o in good)

    def per_op(key):
        return [o.sizes[key] for o in good if key in o.sizes]

    m = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "op_s_p50": (statistics.median(walls), "s", len(walls)),
        "op_cpu_s_p50": (statistics.median(o.cpu for o in ops), "s",
                         len(ops)),
    }
    t = tail(walls)
    m["op_s_tail"] = ((t[1], "s", len(walls), f"p{t[0]}") if t else
                      (None, "s", len(walls), "needs 11 samples"))
    for key, name in (("elems", "elems_per_s"), ("cases", "cases_per_s")):
        if per_op(key):
            m[name] = (sum(per_op(key)) / total_wall, "1/s", len(good))
    m["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "MB", 1)
    if per_op("json_bytes"):
        sizes = per_op("json_bytes")
        m["output_mb"] = (statistics.median(sizes) / 1e6, "MB", len(sizes))
    if per_op("readback_mismatch"):
        flags = per_op("readback_mismatch")
        m["readback_mismatch_rate"] = (sum(flags) / len(flags), "share",
                                       len(flags))
    m["error_rate"] = (sum(o.error is not None for o in ops) / len(ops),
                       "share", len(ops))
    return m


def layer_metrics(tracer, ops) -> tuple[dict, dict]:
    """Per-layer metrics from the traced operations.

    Returns (contract, report): the driver's metrics, and the full set with
    self times in seconds for every layer that was called.
    """
    from polyfin.laws import LAWS

    traced = [o for o in ops if o.traced]
    plain = [o for o in ops if not o.traced]
    n = len(traced)
    st = tracer.self_times()
    op_ns = st[ROOT_SPAN][1]
    contract, report = {}, {}
    for layer in LAYERS:
        calls, _, self_ns = st.get(layer, (0, 0, 0))
        contract[f"{layer}.calls"] = (calls / n, "count")
        contract[f"{layer}.self_pct"] = (100 * self_ns / op_ns, "%")
        if calls:
            report[f"{layer}.calls"] = (calls / n, "count")
            report[f"{layer}.self_s"] = (self_ns / n / 1e9, "s")
        if layer in SIZED:
            contract[f"{layer}.elems"] = (tracer.elems.get(layer, 0) / n,
                                          "count")
            if calls:
                report[f"{layer}.elems"] = contract[f"{layer}.elems"]
    hit = (tracer.pairs_kept / tracer.pairs_tested
           if tracer.pairs_tested else 0.0)
    contract["finset.pullback.hit_ratio"] = (hit, "ratio")
    if tracer.pairs_tested:
        report["finset.pullback.hit_ratio"] = (hit, "ratio")
    for law in LAWS:
        _, total_ns, _ = st.get(f"laws.run_law.{law}", (0, 0, 0))
        contract[f"laws.run_law.{law}.pct"] = (100 * total_ns / op_ns, "%")
        if total_ns:
            report[f"laws.run_law.{law}.s"] = (total_ns / n / 1e9, "s")
    contract["trace.unattributed_s"] = (st[ROOT_SPAN][2] / n / 1e9, "s")
    contract["trace.overhead"] = (
        statistics.median(o.wall for o in traced)
        / statistics.median(o.wall for o in plain), "ratio")
    report["trace.unattributed_s"] = contract["trace.unattributed_s"]
    report["trace.overhead"] = contract["trace.overhead"]
    accounted = sum(row[2] for row in st.values())
    report["trace.accounted_share"] = (accounted / op_ns, "ratio")
    return contract, report


def print_table(rows: dict, samples: int | None = None) -> None:
    print(f"{'metric':<44} {'value':>14} {'unit':<6} {'n':>5}  note")
    for name, row in rows.items():
        value, unit = row[0], row[1]
        n = row[2] if len(row) > 2 else samples
        note = row[3] if len(row) > 3 else ""
        shown = "n/a" if value is None else f"{value:.6g}"
        count = "" if n is None else n
        print(f"{name:<44} {shown:>14} {unit:<6} {count:>5}  {note}")


def parse_args(argv):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    load_program()
    args = parse_args(argv)
    from workloads import WORKLOADS

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        return measure(args, wl, Tracer() if args.trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def warm_up(wl):
    """Make the inputs and run one untimed operation; returns it."""
    wl.setup()
    inp = wl.warm_input()
    return inp, wl.run(inp)


def loop(wl, seconds: float, tracer=None) -> list[Op]:
    """Closed loop: start operations until ``seconds`` have passed.

    With a tracer, every input runs once untraced and then once traced.
    """
    ops: list[Op] = []
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        inp = wl.next_input()
        ops.append(timed(wl, inp))
        if tracer is not None:
            ops.append(timed(wl, inp, tracer))
    return ops


def size_record(wl, ops) -> dict:
    """The workload's input sizes and the sizes its operations built."""
    sizes = dict(wl.sizes())
    built = [o.sizes for o in ops if o.sizes]
    for key in sorted({k for s in built for k in s}):
        vals = sorted(s[key] for s in built if key in s)
        sizes[key] = vals[0] if vals[0] == vals[-1] else {
            "min": vals[0], "p50": statistics.median(vals), "max": vals[-1]}
    return sizes


def measure(args, wl, tracer) -> int:
    warm_in, warm_result = warm_up(wl)
    setup_main = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_main}))
        return 0
    _, warm_error = checked(wl, warm_in, warm_result)
    failures = [f"warm-up: {warm_error}"] if warm_error else []

    load_before = os.getloadavg()
    probe_before = speed_probe()
    ops = loop(wl, args.seconds, tracer)
    probe_after = speed_probe()
    load_after = os.getloadavg()
    failures += [o.error for o in ops if o.error is not None]
    for err in failures[:3]:
        sys.stderr.write(f"perfbench: failed operation:\n{err}\n")

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}; closed loop, "
          f"1 client, 1 thread")
    print(f"env: python {platform.python_version()} "
          f"({platform.python_implementation()}), nproc {os.cpu_count()}, "
          f"affinity {len(os.sched_getaffinity(0))}, loadavg "
          f"{load_before[0]:.2f} -> {load_after[0]:.2f}, speed probe "
          f"{probe_before:.4f} s -> {probe_after:.4f} s")
    print(f"sizes: {json.dumps(size_record(wl, ops), sort_keys=True)}")
    if args.trace:
        contract, report = layer_metrics(tracer, ops)
        out = WORK / "traces" / args.workload
        tracer.write(out)
        n = sum(o.traced for o in ops)
        print(f"traced operations: {n}, spans: {len(tracer.start)} "
              f"(written to {out}); per-layer values are per traced "
              f"operation")
        print_table(report, n)
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in contract.items()}
    else:
        setups = [setup_main] + child_setups(args, SETUP_SAMPLES - 1)
        m = e2e_metrics(ops, setups)
        print_table(m)
        metrics = {k: {"value": m[k][0], "unit": m[k][1]}
                   for k in CONTRACT_E2E}
    # The warm-up operation counts as attempted: its output is checked too.
    print(json.dumps({"correct": not failures, "attempted": len(ops) + 1,
                      "failed": len(failures), "metrics": metrics}))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
