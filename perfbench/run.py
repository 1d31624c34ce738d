"""Benchmark for legoverlap, driven from outside through its public functions.

Usage, from the root of a checkout (no install or build step is needed):

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

One run is one fresh interpreter with one thread.  It times ``import
legoverlap`` in fresh child interpreters (set-up), makes the workload's
inputs from the seed, then runs timed passes over them for about
``--seconds`` (another pass starts while half of it still fits); every
pass starts with all legoverlap caches cleared.  Outputs are checked after the timed phase.  With ``--trace 1``
untraced and traced passes alternate and the per-layer metrics come from
the traced ones; the tracing wrappers are removed after every traced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
and ``perfbench/out/<workload>-seed<seed>-trace<0|1>.json`` explain the
run (checks, checksums, cache statistics, per-route times).  NOTES.md
defines every metric.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracing import Tracer, layer_self_times, leftover_wrappers, package_modules, span_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Import probes: one unmeasured first (it leaves the bytecode cache as an
# installed package has it), then a few before the passes and a few after
# each pass, so the median samples the machine over the whole run.
SETUP_PROBES_FIRST = 3
SETUP_PROBES_PER_PASS = 2
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import legoverlap, legoverlap.cli\n"
    "print(repr(time.perf_counter() - start))\n"
)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "legendre.calls": "count",
    "legendre.self_s": "s",
    "legendre.cache_hit_ratio": "1",
    "legendre.poly_mul_s": "s",
    "legendre.differentiate_s": "s",
    "oracle.calls": "count",
    "oracle.self_s": "s",
    "oracle.cache_hit_ratio": "1",
    "oracle.integrate_s": "s",
    "boundary.factorial_s": "s",
    "boundary.recurrence_s": "s",
    "boundary.genfunc_s": "s",
    "boundary.disagreements": "count",
    "overlap.calls": "count",
    "overlap.self_s": "s",
    "overlap.ladder_terms": "count",
    "overlap.structural_zero_ratio": "1",
    "overlap.vanishing.none": "count",
    "overlap.vanishing.parity": "count",
    "overlap.vanishing.degree_constraint": "count",
    "overlap.vanishing.derivative_annihilation": "count",
    "gram.assemble_s": "s",
    "gram.entries": "count",
    "gram.to_json_s": "s",
    "gram.from_json_s": "s",
    "gram.to_csv_s": "s",
    "gram.json_bytes": "B",
    "gram.csv_bytes": "B",
    "quadrature.rules_built": "count",
    "quadrature.rule_build_s": "s",
    "quadrature.eval_s": "s",
    "quadrature.zero_violations": "count",
    "quadrature.nonzero_violations": "count",
    "quadrature.worst_zero_err_even": "1",
    "quadrature.worst_zero_err_odd": "1",
    "quadrature.worst_nonzero_rel_err": "1",
    "cli.calls": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


def lru_caches() -> dict:
    """Every functools.lru_cache reachable from a legoverlap module, by qualified name."""
    caches = {}
    for module in package_modules():
        for value in vars(module).values():
            if callable(getattr(value, "cache_info", None)) and callable(getattr(value, "cache_clear", None)):
                caches[f"{value.__module__}.{value.__qualname__}"] = value
    return caches


def digest(outputs) -> str:
    return hashlib.sha256(repr(outputs).encode("utf-8")).hexdigest()


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def one_pass(workload, lo, inputs, workdir: Path, caches: dict, tracer: Tracer | None = None):
    for cache in caches.values():
        cache.cache_clear()
    gc.collect()
    if tracer is None:
        return workload.run(lo, inputs, None, workdir)
    tracer.reset()
    tracer.install()
    try:
        return workload.run(lo, inputs, tracer, workdir)
    finally:
        tracer.remove()


def ladder_terms(n: int, m: int, q: int, k: int) -> int:
    """Endpoint terms the overlap_general formula sums for these indices."""
    if q + k == 0 or (n + m + q + k) % 2:
        return 0
    return q + ((q + k) if m - (k + q - 1) - n > 0 else 0)


def hit_ratio(infos) -> float:
    hits = sum(info.hits for info in infos)
    calls = hits + sum(info.misses for info in infos)
    return hits / calls if calls else 0.0


def traced_layers(lo, tracer: Tracer, caches: dict) -> dict[str, float]:
    """Per-layer numbers of one traced pass, before the caches are cleared again."""
    by_name = span_times(tracer.spans)
    layer_self = layer_self_times(by_name)

    def total(name: str) -> float:
        return by_name.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> int:
        return by_name.get(name, {}).get("calls", 0)

    overlap_calls = tracer.record["overlap.overlap_general"]
    vanishing = {reason.value: 0 for reason in lo.VanishingReason}
    terms = 0
    for args, result in overlap_calls:
        vanishing[lo.classify_vanishing(*args, result.value).value] += 1
        terms += ladder_terms(*args)
    info = {name: cache.cache_info() for name, cache in caches.items()}
    out = {
        "legendre.calls": calls("legendre.legendre"),
        "legendre.self_s": layer_self["legendre"],
        "legendre.cache_hit_ratio": hit_ratio([info["legoverlap.legendre.legendre"]]),
        "legendre.poly_mul_s": total("legendre.poly_mul"),
        "legendre.differentiate_s": total("legendre.differentiate"),
        "oracle.calls": calls("oracle.overlap_oracle"),
        "oracle.self_s": layer_self["oracle"],
        "oracle.cache_hit_ratio": hit_ratio([v for k, v in info.items() if k.startswith("legoverlap.oracle.")]),
        "oracle.integrate_s": total("oracle.integrate"),
        "boundary.factorial_s": total("boundary.factorial"),
        "boundary.recurrence_s": total("boundary.recurrence"),
        "boundary.genfunc_s": total("boundary.genfunc"),
        "overlap.calls": len(overlap_calls),
        "overlap.self_s": layer_self["overlap"],
        "overlap.ladder_terms": terms,
        "overlap.structural_zero_ratio": (len(overlap_calls) - vanishing["none"]) / len(overlap_calls) if overlap_calls else 0.0,
    }
    out.update({f"overlap.vanishing.{reason}": count for reason, count in vanishing.items()})
    out.update({
        "gram.assemble_s": total("gram.assemble"),
        "gram.entries": sum((a[2] + 1) * (a[3] + 1) for a, _ in tracer.record["gram.assemble"]),
        "gram.to_json_s": total("gram.to_json"),
        "gram.from_json_s": total("gram.from_json"),
        "gram.to_csv_s": total("gram.to_csv"),
        "quadrature.rules_built": info["legoverlap.quadrature.gauss_legendre_rule"].misses,
        "quadrature.rule_build_s": total("quadrature.rule"),
        "quadrature.eval_s": by_name.get("quadrature.overlap_quadrature", {}).get("self_s", 0.0),
        "cli.calls": calls("cli.main"),
        "cli.self_s": layer_self["cli"],
    })
    return out


def from_checks(summary: dict) -> dict[str, float]:
    """Per-layer numbers that come from the output checks rather than spans."""
    return {
        "boundary.disagreements": summary.get("boundary_disagreements", 0),
        "gram.json_bytes": summary.get("json_bytes", 0),
        "gram.csv_bytes": summary.get("csv_bytes", 0),
        "quadrature.zero_violations": summary.get("zero_violations", 0),
        "quadrature.nonzero_violations": summary.get("nonzero_violations", 0),
        "quadrature.worst_zero_err_even": summary.get("worst_zero_err_even", 0.0),
        "quadrature.worst_zero_err_odd": summary.get("worst_zero_err_odd", 0.0),
        "quadrature.worst_nonzero_rel_err": summary.get("worst_nonzero_rel_err", 0.0),
    }


def write_spans(path: Path, spans: list) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("span\top\tparent\tname\tstart_ns\tend_ns\n")
        for index, (op_id, parent, name, start, end) in enumerate(spans):
            handle.write(f"{index}\t{op_id}\t{parent}\t{name}\t{start}\t{end}\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "legoverlap" / "__init__.py").is_file():
        print(f"error: no legoverlap sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    import_seconds()
    setup_times = [import_seconds() for _ in range(SETUP_PROBES_FIRST)]
    sys.path.insert(0, str(SRC))
    import legoverlap as lo
    import legoverlap.cli  # noqa: F401  (the gram workload drives the CLI)

    caches = lru_caches()
    inputs = workload.inputs(args.seed)
    input_sha = digest(inputs)
    tracer = Tracer(record=("overlap.overlap_general", "gram.assemble")) if args.trace else None

    plain, traced, layers = [], [], []
    digests = []
    first_outputs = None
    spent = last = 0.0
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        # Start another pass while at least half of it fits in --seconds.
        while not plain or (tracer and not traced) or spent + last / 2 < args.seconds:
            use_tracer = tracer is not None and len(plain) > len(traced)
            p = one_pass(workload, lo, inputs, Path(tmp), caches, tracer if use_tracer else None)
            spent += p.wall_s
            last = p.wall_s
            (traced if use_tracer else plain).append(p)
            if use_tracer:
                layers.append(traced_layers(lo, tracer, caches))
            digests.append(digest(p.outputs))
            if first_outputs is None:
                first_outputs = p.outputs
            p.outputs = None
            setup_times += [import_seconds() for _ in range(SETUP_PROBES_PER_PASS)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cache_info = {name: cache.cache_info()._asdict() for name, cache in caches.items()}

    failed_per_pass, summary = workload.check(lo, inputs, first_outputs)
    passes = plain + traced
    ops_per_pass = passes[0].op_count
    attempted = ops_per_pass * len(passes)
    failed = failed_per_pass * len(passes)
    failed += ops_per_pass * sum(d != digests[0] for d in digests)  # a pass that differs is wrong throughout
    leftover = leftover_wrappers()
    correct = failed == 0 and not leftover

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(p.wall_s for p in plain),
            "ops_per_s": statistics.median(p.op_count / p.wall_s for p in plain),
            "op_p50_ms": statistics.median(statistics.median(p.latencies_ns) / 1e6 for p in plain),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    else:
        measured = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        measured.update(from_checks(summary))
        measured["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - statistics.median(p.wall_s for p in plain)
        metrics = {name: measured[name] for name in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "input_sha256": input_sha,
        "output_sha256": digests[0],
        "outputs_identical_across_passes": len(set(digests)) == 1,
        "traced_outputs_match_untraced": all(d == digests[0] for d in digests) if traced else None,
        "passes": {"untraced": [p.wall_s for p in plain], "traced": [p.wall_s for p in traced]},
        "ops_per_pass": ops_per_pass,
        "latency_samples_per_pass": len(passes[0].latencies_ns),
        "op_p99_ms_per_pass": [percentile(p.latencies_ns, 99) / 1e6 for p in plain] if len(passes[0].latencies_ns) >= 1000 else None,
        "route_s": {route: statistics.median(p.route_ns[route] / 1e9 for p in plain) for route in plain[0].route_ns},
        "setup_s_samples": setup_times,
        "cache_info_after_run": cache_info,
        "checks": summary,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "tracing_wrappers_left": leftover,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str) + "\n", encoding="utf-8")
    if tracer is not None:
        write_spans(OUT / f"{stem}-spans.tsv", tracer.spans)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(plain)} untraced and {len(traced)} traced passes of {ops_per_pass} operations")
    print(f"inputs sha256 {input_sha[:16]}, outputs sha256 {digests[0][:16]}, identical across passes: {report['outputs_identical_across_passes']}")
    print(f"checks: {failed} of {attempted} operations failed (fail_ratio {failed / attempted:.6g}); {json.dumps(summary, default=str)}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {units[name]}")
    print(f"report: {OUT.relative_to(ROOT) / (stem + '.json')}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
