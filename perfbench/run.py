"""zpreal benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 15 --trace 0

Workloads: construct, evaluate, split, cli (see README.md). The run
builds the workload's inputs from the seed, repeats whole rounds of its
fixed operation list until --seconds have passed, checks every result
with perfbench's own arithmetic, and prints one JSON object as its last
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 the
run wraps zpreal's public functions in timing shims and reports the
per-layer ones instead. Result and trace files go to perfbench/out/.

Exit codes: 0 when every check passed, 1 when a check failed, 2 when
zpreal's source tree is not next to the benchmark.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# One thread: all load comes from this process, and OpenBLAS would
# otherwise start a thread per core. Must precede the numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

SETUP_REPEATS = 3
OUT_DIR = os.path.join(HERE, "out")


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be 0 or more")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("construct", "evaluate", "split", "cli"))
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Put src/ on the path (zpreal need not be installed) and import."""
    if not os.path.isfile(os.path.join(SRC, "zpreal", "__init__.py")):
        print(f"error: no zpreal package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import numpy  # noqa: F401
    import speed
    import workloads
    return speed, workloads


def measure(ops, seconds, refusal_type, error_type, kernel_ms):
    """Yield (latencies, kernel times, results) of whole rounds of ops
    until `seconds` have passed. Only the calls into zpreal are timed,
    each right after a pass of the speed kernel; the caller checks each
    round's results before the next round starts."""
    start = time.perf_counter()
    while True:
        gc.collect()
        lat = [0.0] * len(ops)
        kern = [0.0] * len(ops)
        results = [None] * len(ops)
        for i, op in enumerate(ops):
            kern[i] = kernel_ms()
            t0 = time.perf_counter()
            try:
                res = op.call()
            except error_type as exc:
                res = refusal_type(f"{type(exc).__name__}: {exc}")
            lat[i] = time.perf_counter() - t0
            results[i] = res
        yield lat, kern, results
        if time.perf_counter() - start >= seconds:
            return


def main(argv=None) -> int:
    args = parse_args(argv)
    speed, wl = import_program()
    from checks import Checker
    from zpreal.errors import ZprealError
    t_imported = time.perf_counter()
    setup_factor = speed.factor_now()

    os.makedirs(OUT_DIR, exist_ok=True)
    build = wl.WORKLOADS[args.workload]
    builds, workload = [], None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        t0 = time.perf_counter()
        workload = build(args.seed, OUT_DIR)
        builds.append(time.perf_counter() - t0)
    setup_raw = (t_imported - T_START) + statistics.median(builds)
    setup_s = setup_raw * statistics.median([setup_factor, speed.factor_now()])
    ops = workload.ops

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    checker = Checker()
    per_op = [[] for _ in ops]
    round_raw_s, all_factors = [], []
    attempted = failed = 0
    refused = {}
    try:
        for lat, kern, results in measure(ops, args.seconds, wl.Refusal,
                                          ZprealError, speed.kernel_ms):
            factors = speed.factors(kern)
            all_factors += factors
            round_raw_s.append(sum(lat))
            for i, (op, res) in enumerate(zip(ops, results)):
                per_op[i].append(lat[i] * factors[i])
                if isinstance(res, wl.Refusal):
                    failed += 1
                    refused.setdefault(op.label, res.message)
                else:
                    op.check(res, checker)
            attempted += len(ops)
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()

    # Times are scaled to the reference speed (speed.py). Each operation's
    # time is then the median over its rounds, which repeat identical
    # inputs.
    rounds = len(round_raw_s)
    run_factor = statistics.median(all_factors)
    op_ms = sorted(statistics.median(v) * 1e3 for v in per_op)
    ops_per_s = len(ops) / statistics.median(map(sum, zip(*per_op)))
    deciles = statistics.quantiles(op_ms, n=10, method="inclusive")
    for label, message in refused.items():
        print(f"refused: {label}: {message}", file=sys.stderr)
    for failure in checker.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if tracer is None:
        values = {
            "ops_per_s": ops_per_s,
            "latency_p50_ms": statistics.median(op_ms),
            "latency_p90_ms": deciles[8],
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy_digits": checker.digits(),
        }
        listed = spec["end_to_end"]
    else:
        names = [m["name"] for m in spec["per_layer"]]
        values = tracer.layer_metrics(rounds, names, run_factor)
        values["bench.traced_ops_per_s"] = ops_per_s
        listed = spec["per_layer"]
        with open(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump({"rounds": rounds, "ops_per_round": len(ops),
                       "speed_factor": run_factor,
                       "per_round": tracer.per_round(rounds, run_factor)},
                      fh, indent=1)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    result = {"correct": checker.ok, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(f"{args.workload}: seed {args.seed}, {rounds} rounds of {len(ops)} "
          f"operations, {failed} refused, checks "
          f"{'passed' if checker.ok else 'FAILED'}")
    print(f"  median speed factor {run_factor:.3f} (scaled = measured x factor); "
          f"unscaled: {len(ops) / statistics.median(round_raw_s):.6g} ops/s, "
          f"set-up {setup_raw:.4g} s")
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:14.6g} {m['unit']}")
    line = json.dumps(result)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return 0 if checker.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
