"""Benchmark runner for liejacobi.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout, never from an installed copy.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by name
with its unit.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
Set-up (import, seeded inputs, one warm-up op on input k for set-up k) runs
SETUPS times in the process and its median is reported.  Then ops run back
to back for at least ``--seconds`` seconds and MIN_OPS ops, stopping on a
cycle boundary of the workload.  Times are rescaled to a reference speed of
the host (see ``_reference`` and ``measure``); the unscaled wall figures are
printed on a comment line.

``--trace 1`` runs TRACE_OPS[workload] ops twice, first untraced and then
with every public liejacobi function wrapped, and reports per-op layer
figures from the spans.  The spans are written to
``.bench_out/spans-<workload>-<seed>.tsv`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import resource
import shutil
import statistics
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 7
MIN_OPS = 110       # p90 then has at least 10 samples above it
REF_NOMINAL_S = 0.0003      # typical _reference() time on a 2-vCPU Xeon VM
REF_EVERY_S = 0.01
REF_SPAN_S = 0.02
_LABEL = re.compile(r"e(\d+)\^?(\d*)")
TRACE_OPS = {"compact-classify": 9, "coboundary-solve": 6,
             "contact-sweep": 150, "cli-catalog": 48}


def _import_library():
    """Import liejacobi afresh from the checkout."""
    for name in [m for m in sys.modules if m == "liejacobi" or m.startswith("liejacobi.")]:
        del sys.modules[name]
    import liejacobi
    if Path(liejacobi.__file__).resolve().parent != ROOT / "src" / "liejacobi":
        raise ImportError(f"liejacobi imported from {liejacobi.__file__}, not the checkout")


def _attempt(wl, inp):
    """Run and time one op, then check its output untimed.  Returns
    (seconds, output, outcome), outcome being "ok", "mismatch" or "error"."""
    t0 = perf_counter()
    try:
        out = wl.run(inp)
    except Exception:
        return perf_counter() - t0, None, "error"
    elapsed = perf_counter() - t0
    try:
        return elapsed, out, "ok" if wl.check(inp, out) else "mismatch"
    except Exception:
        return elapsed, out, "mismatch"


def _reference() -> float:
    """Seconds taken by a fixed blend of the work the library does, run
    without liejacobi: sparse Fraction arithmetic on a dict of index tuples,
    then a JSON round trip and a regex scan of the result.  Its time tracks
    how fast the host runs such code at that moment, which on a shared
    virtual machine swings by up to 1.7x within seconds.  The garbage
    collector is off so that the timing pays for no collection of the ops'
    objects."""
    gc.disable()
    t0 = perf_counter()
    terms = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(i + 1, 5)}
    acc: dict = {}
    for (i, j), c in terms.items():
        for (k, m), d in terms.items():
            if len({i, j, k, m}) == 4:
                key = tuple(sorted((i, j, k, m)))
                acc[key] = acc.get(key, 0) + c * d
    doc = {"terms": [{"index": [f"e{i + 1}" for i in key], "coeff": str(value)}
                     for key, value in acc.items()]}
    back = json.loads(json.dumps(doc, indent=2))
    sum(len(_LABEL.findall(term["index"][0])) for term in back["terms"])
    elapsed = perf_counter() - t0
    gc.enable()
    return elapsed


def _speed(n: int = 10) -> list[float]:
    return [_reference() for _ in range(n)]


def _setup(workload: str, seed: int, workdir: Path):
    """SETUPS set-ups, each rescaled to the reference speed by the median of
    the reference timings taken just before and just after it."""
    import workloads
    times = []
    for k in range(SETUPS):
        wl = None
        gc.collect()    # drop the previous set-up's modules outside the timing
        refs = _speed()
        t0 = perf_counter()
        _import_library()
        wl = workloads.WORKLOADS[workload](seed, workdir)
        _attempt(wl, wl.make_input(k))
        elapsed = perf_counter() - t0
        times.append(elapsed * REF_NOMINAL_S / statistics.median(refs + _speed()))
    return wl, times


def measure(wl, seconds: float):
    """Back-to-back ops, each bracketed by reference timings.

    Returns the ops' wall times, the same times rescaled to the reference
    speed, and the outcomes.  An op of t seconds gets (1 + t / REF_EVERY_S) / 2
    reference timings just before and as many just after it (the count before
    uses the previous op's t); its rescaled time is its wall time times
    REF_NOMINAL_S over the median of the reference times taken within
    REF_SPAN_S of it.  The host's speed can change within a second, so only
    timings this close to the op track it.
    """
    times, spans, outcomes = [], [], []
    ref_at, ref_time = [], []

    def references(elapsed):
        for _ in range(1 + min(int(elapsed / REF_EVERY_S), 19) // 2):
            ref_at.append(perf_counter())
            ref_time.append(_reference())

    start = perf_counter()
    elapsed = 0.0
    i = 0
    while True:
        inp = wl.make_input(i)
        references(elapsed)
        t0 = perf_counter()
        elapsed, _, outcome = _attempt(wl, inp)
        times.append(elapsed)
        spans.append((t0, t0 + elapsed))
        outcomes.append(outcome)
        references(elapsed)
        i += 1
        if i % wl.cycle == 0 and i >= MIN_OPS and perf_counter() - start >= seconds:
            break
    scaled = []
    for t, (t0, t1) in zip(times, spans):
        near = ref_time[bisect_left(ref_at, t0 - REF_SPAN_S):bisect_right(ref_at, t1 + REF_SPAN_S)]
        scaled.append(t * REF_NOMINAL_S / statistics.median(near))
    return times, scaled, outcomes


def traced(wl, workload: str, seed: int, workdir: Path):
    from tracer import Tracer, summarize
    n = TRACE_OPS[workload]
    inputs = [wl.make_input(i) for i in range(n)]
    plain = [_attempt(wl, inp) for inp in inputs]
    tracer = Tracer()
    tracer.install()
    try:
        results = []
        for i, inp in enumerate(inputs):
            tracer.begin_op(i)
            try:
                results.append(_attempt(wl, inp))
            finally:
                tracer.end_op()
    finally:
        tracer.uninstall()
    summary = summarize(tracer, n)
    summary["trace.overhead_pct"] = 100.0 * (sum(r[0] for r in results)
                                             / sum(r[0] for r in plain) - 1.0)
    output_bytes = getattr(wl, "output_bytes", lambda out: 0)
    summary["documents.bytes_out"] = sum(output_bytes(r[1]) for r in results if r[1]) / n
    with open(workdir / f"spans-{workload}-{seed}.tsv", "w", encoding="utf-8") as fh:
        fh.write("name\tstart_s\tend_s\tparent\top\n")
        for name, start, end, parent, op in tracer.spans:
            fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
    return summary, [r[2] for r in plain + results]


def _per_layer(summary) -> dict:
    """name -> (value, unit) for every per-layer metric of BENCHMARK.json."""
    from tracer import LAYERS
    calls = lambda name: summary["by_name"].get(name, 0.0)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_pct"] = (summary[f"{layer}.self_pct"], "%")
        metrics[f"{layer}.calls"] = (summary[f"{layer}.calls"], "count")
    for name in ("bench.self_pct", "trace.overhead_pct"):
        metrics[name] = (summary[name], "%")
    metrics["trace.op_ms"] = (summary["trace.op_ms"], "ms")
    metrics["linalg.mat_mul.calls"] = (calls("linalg.mat_mul"), "count")
    metrics["linalg.rref.calls"] = (calls("linalg.rref"), "count")
    metrics["linalg.rref.cells"] = (summary["linalg.rref.cells"], "count")
    metrics["exterior.elements"] = (calls("exterior.Element.__post_init__"), "count")
    metrics["liealg.bracket.calls"] = (calls("liealg.LieAlgebra.bracket"), "count")
    metrics["liealg.validate.calls"] = (calls("liealg.LieAlgebra.validate"), "count")
    metrics["liealg.killing_form.calls"] = (calls("liealg.killing_form"), "count")
    metrics["liealg.is_compact.calls"] = (calls("liealg.is_compact"), "count")
    metrics["jacobi.check_jacobi.calls"] = (calls("jacobi.check_jacobi"), "count")
    metrics["bialgebra.check_glb.calls"] = (calls("bialgebra.check_glb"), "count")
    metrics["catalog.builds"] = (calls("catalog.catalog"), "count")
    metrics["documents.bytes_in"] = (summary["documents.bytes_in"], "bytes")
    metrics["documents.bytes_out"] = (summary["documents.bytes_out"], "bytes")
    for name in ("liealg.invariant_useful_ratio", "bialgebra.check_glb.useful_ratio",
                 "reuse.object_share", "reuse.structure_share"):
        metrics[name] = (summary[name], "ratio")
    return metrics


def _end_to_end(times, outcomes, setups) -> dict:
    """name -> (value, unit) for every end-to-end metric of BENCHMARK.json."""
    n = len(times)
    p90 = statistics.quantiles(times, n=10)[8]
    failed = sum(o != "ok" for o in outcomes)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_ms.p50": (1e3 * statistics.median(times), "ms"),
        "op_ms.p90": (1e3 * p90, "ms"),
        "ops_per_s": (n / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": ((n - failed) / n, "ratio"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(TRACE_OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "liejacobi" / "__init__.py").is_file():
        sys.stderr.write(f"error: no liejacobi sources under {ROOT / 'src'}\n")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    workdir = ROOT / ".bench_out"
    workdir.mkdir(exist_ok=True)
    try:
        wl, setups = _setup(args.workload, args.seed, workdir)
        if args.trace:
            summary, outcomes = traced(wl, args.workload, args.seed, workdir)
            metrics = _per_layer(summary)
            attempted = len(outcomes)
            for layer, ms in summary["layer_self_ms"].items():
                print(f"# {layer} self time {ms:.4f} ms/op")
        else:
            wall, times, outcomes = measure(wl, args.seconds)
            metrics = _end_to_end(times, outcomes, setups)
            attempted = len(times)
            p90 = metrics["op_ms.p90"][0] / 1e3
            print(f"# {attempted} ops, {sum(t > p90 for t in times)} above op_ms.p90; "
                  f"setup times {', '.join(f'{t:.4f}' for t in setups)} s")
            print(f"# unscaled wall: op_ms.p50 {1e3 * statistics.median(wall):.4f}, "
                  f"op_ms.p90 {1e3 * statistics.quantiles(wall, n=10)[8]:.4f}, "
                  f"ops_per_s {len(wall) / sum(wall):.4f}")
    finally:
        shutil.rmtree(workdir / "cli-docs", ignore_errors=True)

    failed = sum(o != "ok" for o in outcomes)
    mismatched = sum(o == "mismatch" for o in outcomes)
    print(f"# {args.workload} seed {args.seed}: {failed} of {attempted} ops failed "
          f"(fail_ratio {failed / attempted:.6f}; {mismatched} wrong outputs, "
          f"{failed - mismatched} escaped exceptions)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": mismatched == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
