#!/usr/bin/env python3
"""bioling benchmark runner.

    python3 perfbench/run.py --workload abstracts-20k --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5

Runs from the root of a source checkout and imports the program from its
`src/` directory, in one process and one thread: a closed loop with one
client and no think time. Set-up is timed separately from the measured
loop, which runs for `--seconds` and at least `MIN_SAMPLES` operations.

With `--trace 0` the last stdout line is the result with the end-to-end
metrics. With `--trace 1` three operations in four run with spans around
each call into the program (the fourth, untraced, gives the tracing
overhead), the last line carries the per-layer metrics, and the spans
are written to `.bench_out/`. Times are scaled to a fixed host speed, see
refclock.py. The line before the
last holds the full record: machine stamp, input properties, check
counts and both metric sets. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import refclock
from tracer import Tracer
from workloads import WORKLOADS, BruteForce, K, oracle_agrees, program_calls

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
MIN_SAMPLES = 1000     # p99 then has at least 10 samples beyond it
WARMUP = 10
BATCH = 100

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p99": "ms",
    "gold_recall": "share", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "tokenizer.ms_per_doc": "ms", "tokenizer.tokens_per_doc": "count",
    "segmenter.ms_per_doc": "ms", "segmenter.sentences_per_doc": "count",
    "abbrev.ms_per_doc": "ms", "abbrev.pairs_per_doc": "count",
    "abbrev.expanded_mention_share": "share",
    "vectorizer.encode_us": "us", "vectorizer.oov_share": "share",
    "vectorizer.fit_s": "s", "vectorizer.vocab_size": "count",
    "index.query_ms_p50": "ms", "index.query_ms_p99": "ms",
    "index.postings_per_query": "count", "index.results_per_query": "count",
    "index.build_s": "s", "index.save_s": "s", "index.load_s": "s",
    "index.blix_bytes": "bytes", "index.posting_len_mean": "count",
    "linker.self_ms": "ms", "linker.candidates_mean": "count",
    "linker.candidates_max": "count",
    "kb.load_s": "s", "kb.aliases": "count",
    "input.chunk_repeat_share": "share", "input.doc_bytes_mean": "bytes",
    "trace.overhead_ratio": "ratio",
}


def import_program():
    """Import bioling from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "bioling" / "__init__.py").is_file():
        raise SystemExit(f"error: no program at {src / 'bioling'}; run from a "
                         f"full source checkout")
    sys.path.insert(0, str(src))
    bioling = importlib.import_module("bioling")
    if not Path(bioling.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: imported bioling from {bioling.__file__}")
    return bioling


def machine_stamp() -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            cpu = next(line.split(":", 1)[1].strip() for line in fp
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    return {"git_commit": commit, "src_sha256": digest.hexdigest(),
            "cpu_model": cpu, "nproc": nproc,
            "python": platform.python_version(), "numpy": np.__version__}


def p99(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=100)[98]


def mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def measure(wl, bioling, calls, seconds: float, tracer=None, traced_calls=None) -> dict:
    """The timed loop. Returns per-operation (id, traced, wall s, scaled
    s) plus attempt and failure counts; see refclock for the scaling."""
    traced_run = tracer.wrap(wl.run, wl.unit) if tracer else None
    # traced runs trace three operations in four and still need
    # MIN_SAMPLES traced ones
    min_items = -(-MIN_SAMPLES * 4 // 3) if tracer else MIN_SAMPLES
    for item in wl.batch(WARMUP):
        wl.run(calls, item)
    ops: list[tuple[int, bool, float]] = []
    marks = [(0, refclock.reference_time(wl.reference))]
    since_mark = 0.0
    attempted = failed = 0
    errors: list[str] = []
    pending: list = []
    off_clock = 0.0     # input generation and calibration
    clock = time.perf_counter
    start = clock()
    while attempted < min_items or clock() - start - off_clock < seconds:
        if not pending:
            g0 = clock()
            pending = wl.batch(BATCH)[::-1]
            off_clock += clock() - g0
        item = pending.pop()
        use_trace = tracer is not None and attempted % 4 != 0
        attempted += 1
        try:
            if use_trace:
                tracer.item = attempted
                if wl.index is not None:
                    tracer.attach(wl.index)
                try:
                    t0 = clock()
                    out = traced_run(traced_calls, item)
                    dt = clock() - t0
                finally:
                    if wl.index is not None:
                        tracer.detach(wl.index)
            else:
                t0 = clock()
                out = wl.run(calls, item)
                dt = clock() - t0
            ops.append((attempted, use_trace, dt))
            since_mark += dt
            if not wl.observe(bioling, item, out):
                failed += 1
        except Exception:
            failed += 1
            wl.fail("exception")
            if len(errors) < 3:
                errors.append(traceback.format_exc())
        if since_mark >= refclock.INTERVAL_S:
            c0 = clock()
            marks.append((len(ops), refclock.reference_time(wl.reference)))
            off_clock += clock() - c0
            since_mark = 0.0
    # before the oracle allocates its own copy of the alias vectors
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = clock() - start - off_clock
    if marks[-1][0] != len(ops):
        marks.append((len(ops), refclock.reference_time(wl.reference)))
    factors = refclock.scale_factors(wl.reference, marks)
    return {"ops": [(i, tr, dt, dt * f) for (i, tr, dt), f in zip(ops, factors)],
            "attempted": attempted, "failed": failed, "errors": errors,
            "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
            "reference_ms": [ref * 1e3 for _, ref in marks]}


def timed_setup(wl, bioling, calls, tracer) -> list[tuple[float, float]]:
    """(wall s, scaled s) of each set-up repeat; each set-up step is
    scaled by the reference time measured just before and after it."""
    done = object()
    out = []
    for rep in range(wl.setup_repeats):
        if tracer:
            tracer.item = f"setup-{rep}"
        wall = scaled = 0.0
        before = refclock.reference_time(wl.setup_reference, 5)
        steps = wl.setup(bioling, calls)
        finished = False
        while not finished:
            t0 = time.perf_counter()
            finished = next(steps, done) is done
            dt = time.perf_counter() - t0
            after = refclock.reference_time(wl.setup_reference, 5)
            wall += dt
            scaled += dt * refclock.factor(wl.setup_reference, before, after)
            before = after
        out.append((wall, scaled))
    return out


def check_oracle(wl) -> tuple[int, int, float]:
    """Exact search against the brute-force oracle on the run's sample of
    queries. Returns (attempted, failed, mean posting length)."""
    if wl.index is None:
        return 0, 0, 0.0
    oracle = BruteForce(wl.index)
    failed = 0
    for text in wl.oracle_queries:
        query = wl.index.vectorizer.encode(text)
        if not oracle_agrees(wl.index.nearest_aliases(query, K), oracle.top_k(query, K)):
            failed += 1
            wl.fail("oracle")
    return len(wl.oracle_queries), failed, oracle.posting_len_mean()


def end_to_end(wl, setup, m, scaled: bool = True) -> dict:
    """Metrics of the untraced operations, on host-speed-scaled times or
    (scaled=False) on plain wall times."""
    lat = [op[3 if scaled else 2] for op in m["ops"] if not op[1]]
    return {
        "setup_s": statistics.median(t[1 if scaled else 0] for t in setup),
        "ops_per_s": len(lat) / sum(lat),
        "op_ms_p50": statistics.median(lat) * 1e3,
        "op_ms_p99": p99(lat) * 1e3,
        "gold_recall": wl.gold_hits / wl.gold_total if wl.gold_total else 0.0,
        "peak_rss_mb": m["peak_rss_mb"],
    }


def per_layer(wl, tracer, setup, m, inputs) -> dict:
    # span times get the host-speed factor of their operation or set-up
    factor = {i: sc / wall for i, _, wall, sc in m["ops"]}
    factor.update({f"setup-{r}": sc / wall for r, (wall, sc) in enumerate(setup)})
    spans = {name: [(sid, dur * factor.get(tracer.spans[sid][3], 1.0),
                     self_s * factor.get(tracer.spans[sid][3], 1.0))
                    for sid, dur, self_s in lst]
             for name, lst in tracer.by_name().items()}
    traced = [op[3] for op in m["ops"] if op[1]]
    plain = [op[3] for op in m["ops"] if not op[1]]

    def timed(name):    # spans of the measured loop carry an int item id
        return [sp for sp in spans.get(name, ()) if isinstance(tracer.spans[sp[0]][3], int)]

    def setup_s(name):
        durs = [d for sid, d, _ in spans.get(name, ())
                if not isinstance(tracer.spans[sid][3], int)]
        return statistics.median(durs) if durs else 0.0

    def ms_per_item(*names):
        total = sum(d for n in names for _, d, _ in timed(n))
        return total / len(traced) * 1e3 if traced else 0.0

    encodes = timed("vectorizer.encode")
    queries = [d for _, d, _ in timed("index.nearest_aliases")]
    df = wl.index.vectorizer.df if wl.index is not None else None
    postings = [int(df[tracer.kept[sid].indices].sum()) for sid, _, _ in encodes
                if len(tracer.kept[sid].indices)]
    results = [len(tracer.kept[sid]) for sid, _, _ in timed("index.nearest_aliases")]
    n_mentions = len(wl.candidates)
    return {
        "tokenizer.ms_per_doc": ms_per_item("tokenizer.tokenize"),
        "tokenizer.tokens_per_doc": mean(wl.tokens),
        "segmenter.ms_per_doc": ms_per_item("segmenter.segment"),
        "segmenter.sentences_per_doc": mean(wl.sentences),
        "abbrev.ms_per_doc": ms_per_item("abbrev.find_abbreviations", "abbrev.expansion_map"),
        "abbrev.pairs_per_doc": mean(wl.pairs),
        "abbrev.expanded_mention_share": wl.expanded / n_mentions if n_mentions else 0.0,
        "vectorizer.encode_us": mean(d for _, d, _ in encodes) * 1e6,
        "vectorizer.oov_share": inputs["oov_share"],
        "vectorizer.fit_s": setup_s("vectorizer.fit"),
        "vectorizer.vocab_size": inputs["vocab_size"],
        "index.query_ms_p50": statistics.median(queries) * 1e3 if queries else 0.0,
        "index.query_ms_p99": p99(queries) * 1e3 if len(queries) > 1 else 0.0,
        "index.postings_per_query": mean(postings),
        "index.results_per_query": mean(results),
        "index.build_s": setup_s("index.build_index"),
        "index.save_s": setup_s("index.save_index"),
        "index.load_s": setup_s("index.load_index"),
        "index.blix_bytes": inputs["blix_bytes"],
        "index.posting_len_mean": inputs["posting_len_mean"],
        "linker.self_ms": mean(s for _, _, s in timed("linker.generate_candidates")) * 1e3,
        "linker.candidates_mean": mean(wl.candidates),
        "linker.candidates_max": max(wl.candidates, default=0),
        "kb.load_s": setup_s("kb.load_kb"),
        "kb.aliases": len(wl.index.aliases) if wl.index is not None else 0,
        "input.chunk_repeat_share": inputs["chunk_repeat_share"],
        "input.doc_bytes_mean": inputs["doc_bytes_mean"],
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(plain),
    }


def run_one(args) -> int:
    bioling = import_program()
    stamp = machine_stamp()
    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    calls = program_calls(bioling)
    traced_calls = {n: tracer.wrap(f, n) for n, f in calls.items()} if tracer else None
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        wl = WORKLOADS[args.workload](args.seed, tmp)
        setup = timed_setup(wl, bioling, traced_calls or calls, tracer)
        m = measure(wl, bioling, calls, args.seconds, tracer, traced_calls)
        o_attempted, o_failed, posting_len = check_oracle(wl)
        blix_bytes = os.path.getsize(wl.index_path) if wl.index_path else 0
    attempted = m["attempted"] + o_attempted
    failed = m["failed"] + o_failed
    inputs = {
        "chunk_repeat_share": wl.chunk_repeats / wl.chunks if wl.chunks else 0.0,
        "doc_bytes_mean": mean(wl.item_bytes),
        "oov_share": wl.oov / len(wl.candidates) if wl.candidates else 0.0,
        "vocab_size": wl.index.vectorizer.vocab_size if wl.index is not None else 0,
        "posting_len_mean": posting_len,
        "blix_bytes": blix_bytes,
    }
    e2e = end_to_end(wl, setup, m)
    layers = per_layer(wl, tracer, setup, m, inputs) if tracer else None
    refs = m["reference_ms"]
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "stamp": stamp, "unit": wl.unit,
        "closed_loop": {"clients": 1, "think_time_s": 0},
        "samples": {"untraced": sum(not op[1] for op in m["ops"]),
                    "traced": sum(op[1] for op in m["ops"])},
        "setup_s": [{"wall": w, "scaled": s} for w, s in setup],
        "measured_wall_s": m["wall_s"],
        "reference_ms": {"nominal": refclock.nominal(wl.reference) * 1e3,
                         "kinds": wl.reference, "min": min(refs),
                         "median": statistics.median(refs), "max": max(refs)},
        "inputs": inputs,
        "checks": {"attempted": attempted, "failed": failed,
                   "error_rate": failed / attempted, "failures": wl.failures,
                   "oracle_queries": o_attempted, "errors": m["errors"]},
        "end_to_end": e2e,
        "end_to_end_wall": end_to_end(wl, setup, m, scaled=False),
        "per_layer": layers,
    }
    if tracer:
        traced = [op[3] for op in m["ops"] if op[1]]
        record["trace_overhead"] = {"untraced_ops_per_s": e2e["ops_per_s"],
                                    "traced_ops_per_s": len(traced) / sum(traced)}
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fp:
        json.dump(record, fp, indent=1)
    if tracer:
        tracer.write(str(OUT_DIR / f"{stem}.spans.jsonl"))
    for err in m["errors"]:
        print(err, file=sys.stderr)
    units = PER_LAYER_UNITS if tracer else END_TO_END_UNITS
    values = layers if tracer else e2e
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process), then
    one table of every end-to-end metric."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    for name, res in rows:
        print(f"{name} (operation: {WORKLOADS[name].unit}): correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']} "
              f"error_rate={res['failed'] / res['attempted']:.6g}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:32s} {v['value']:14.6g} {v['unit']}")
    return 0 if all(res["correct"] for _, res in rows) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
