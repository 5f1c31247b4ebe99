#!/usr/bin/env python3
"""The repository benchmark: three workloads of the FleXPath engine.

    python3 perfbench/run.py --workload topk_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --prove                  # steadiness proof, see README.md

Run from the root of a checkout.  Each run builds the CLI and the
OCaml harness (perfbench/harness) with dune, runs the workload in a
fresh process with a fresh work directory, checks every answer, and
prints one JSON object as its last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 the per-layer metrics, from a traced
run preceded by an untraced reference run of the same seed (their
difference is the tracing overhead).
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["topk_cold", "serve_hot", "ingest_churn"]
PROOF_RUNS = 10  # runs per set and workload in the steadiness proof
HARNESS = "_build/default/perfbench/harness/harness.exe"
CLI = "_build/default/bin/flexpath_cli.exe"
WORK_ROOT = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170

# Per-layer metrics (names and units are in BENCHMARK.json): the
# workload that measures each, and the end-to-end metric it should
# move.  A workload reports 0 for a layer it does not measure.
LAYER_ROLE = {
    "tpq.parse_ms": ("topk_cold", "query_p50_ms, topk_cold (share ~0: expect no change)"),
    "relax.penalty_ms": ("topk_cold", "query_p50_ms, topk_cold"),
    "relax.chain_ms": ("topk_cold", "query_p50_ms + query_p99_ms, topk_cold; query_p50_ms, ingest_churn"),
    "joins.exec_ms": ("topk_cold", "query_p99_ms + throughput_ops_s, topk_cold"),
    "joins.tuples_per_op": ("topk_cold", "explains joins.exec_ms"),
    "joins.sorted_tuples_per_op": ("topk_cold", "explains joins.exec_ms"),
    "joins.pruned_ratio": ("topk_cold", "explains joins.exec_ms"),
    "joins.holistic_pass_share": ("topk_cold", "explains joins.exec_ms"),
    "joins.answers_per_ktuple": ("topk_cold", "explains joins.exec_ms"),
    "flexpath.passes_per_op": ("topk_cold", "query_p99_ms, topk_cold"),
    "flexpath.restarts_per_op": ("topk_cold", "query_p99_ms, topk_cold"),
    "fulltext.matches_ms": ("topk_cold", "query_p50_ms, topk_cold and ingest_churn"),
    "xmldom.doc_parse_s": ("topk_cold", "setup_s, topk_cold"),
    "fulltext.index_build_s": ("topk_cold", "setup_s, topk_cold"),
    "stats.build_s": ("topk_cold", "setup_s, topk_cold"),
    "server.query_p50_ms": ("serve_hot", "query_p50_ms, serve_hot"),
    "server.query_p99_ms": ("serve_hot", "query_p99_ms, serve_hot"),
    "server.wire_p50_ms": ("serve_hot", "query_p50_ms, serve_hot"),
    "server.loop_lag_p99_ms": ("serve_hot", "query_p99_ms, serve_hot"),
    "qcache.hit_ratio": ("serve_hot", "throughput_ops_s, peak_rss_mb, serve_hot"),
    "qcache.bytes": ("serve_hot", "throughput_ops_s, peak_rss_mb, serve_hot"),
    "server.requests_failed": ("serve_hot", "failed ops, serve_hot"),
    "server.connections_dropped": ("serve_hot", "failed ops, serve_hot"),
    "storage.load_s": ("serve_hot", "setup_s, serve_hot"),
    "write_p99_ms": ("ingest_churn", "throughput_ops_s, ingest_churn (the write tail: rebuilds)"),
    "corpus.append_ms": ("ingest_churn", "throughput_ops_s, ingest_churn (appends are 3/4 of writes)"),
    "corpus.upsert_ms": ("ingest_churn", "throughput_ops_s, ingest_churn (the write tail)"),
    "corpus.delete_ms": ("ingest_churn", "throughput_ops_s, ingest_churn (the write tail)"),
    "ingest.parse_ms": ("ingest_churn", "corpus.append_ms, ingest_churn"),
    "corpus.merge_ms": ("ingest_churn", "throughput_ops_s, ingest_churn"),
    "storage.snapshot_bytes_per_merge": ("ingest_churn", "throughput_ops_s, ingest_churn"),
    "corpus.query_after_write_ms": ("ingest_churn", "query_p50_ms + query_p99_ms, ingest_churn"),
    "corpus.query_repeat_ms": ("ingest_churn", "throughput_ops_s, ingest_churn"),
    "qcache.churn_hit_ratio": ("ingest_churn", "query_p50_ms, ingest_churn"),
    "corpus.shard_skip_ratio": ("ingest_churn", "query_p50_ms, ingest_churn"),
    "wal.bytes_per_user_byte": ("ingest_churn", "corpus.append_ms, ingest_churn"),
    "corpus.write_amplification": ("ingest_churn", "corpus.append_ms, ingest_churn"),
    "corpus.unmerged_max": ("ingest_churn", "background pressure behind the write tail"),
    "corpus.staleness_max_ms": ("ingest_churn", "background pressure behind the write tail"),
    "trace.overhead_query_p50_ms": ("all", "traced minus untraced query_p50_ms"),
    "trace.overhead_throughput_ops_s": ("all", "traced minus untraced throughput_ops_s"),
}

# Span names whose mean self time per op is a per-layer metric.
SPAN_METRICS = {
    "tpq.parse": "tpq.parse_ms",
    "relax.penalty": "relax.penalty_ms",
    "relax.chain": "relax.chain_ms",
    "joins.exec": "joins.exec_ms",
}
# Side probes and set-up spans: mean per call (ms) or median per set-up (s).
PROBE_METRICS = {"fulltext.matches": "fulltext.matches_ms", "ingest.parse": "ingest.parse_ms"}
SETUP_METRICS = {
    "xmldom.doc_parse": "xmldom.doc_parse_s",
    "fulltext.index_build": "fulltext.index_build_s",
    "stats.build": "stats.build_s",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec(section):
    """A metric list of BENCHMARK.json ("end_to_end" or "per_layer")."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)[section]


# --------------------------------------------------------------------
# Statistics


def nearest_rank(sorted_values, p):
    """The p-th percentile by the nearest-rank rule: the smallest sample
    with at least p% of the samples at or below it.  A p99 needs at
    least 1000 samples, so that ten lie beyond it; None otherwise."""
    n = len(sorted_values)
    if n == 0 or (p > 50 and n * (100 - p) / 100 < 10 - 1e-9):
        return None
    return sorted_values[max(0, math.ceil(p / 100 * n) - 1)]


def slice_p99(values, size=1000):
    """query_p99_ms: the median, over consecutive slices of `size` samples
    in schedule order, of each slice's nearest-rank p99 (each slice has
    ten samples beyond it).  A run of fewer than 2 * size samples is one
    slice.  On a shared machine a burst of steal lasting a second or two
    moves a whole-run p99 by a third; the median slice does not move."""
    k = len(values) // size
    if k < 2:
        return nearest_rank(sorted(values), 99)
    return statistics.median(nearest_rank(sorted(values[i * size:(i + 1) * size]), 99) for i in range(k))


def placement(samples, p, share=0.8, width=0.01):
    """Check that the samples within +-1% of the p-th percentile's rank
    come from one op class.  samples: (latency, class) pairs.  Returns
    (ok, dominant class, its share of the window)."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(0, math.ceil(p / 100 * n) - 1)
    half = max(1, int(width * n))
    window = [c for _, c in ordered[max(0, rank - half):rank + half + 1]]
    best = max(set(window), key=window.count)
    frac = window.count(best) / len(window)
    return frac >= share, best, frac


def quartiles(values):
    return statistics.quantiles(values, n=4)


# --------------------------------------------------------------------
# Build and run


def repo_ok():
    return all(os.path.exists(p) for p in ["dune-project", "bin/flexpath_cli.ml", "lib/flexpath",
                                            "perfbench/harness/dune"])


def clean_env():
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env.pop("FLEXPATH_FAILPOINTS", None)
    env.pop("OCAMLRUNPARAM", None)
    return env


def build():
    cmd = ["dune", "build", "--root", ".", "./bin/flexpath_cli.exe", "./perfbench/harness/harness.exe"]
    proc = subprocess.run(cmd, env=clean_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=850)
    if proc.returncode != 0:
        log(proc.stdout)
        raise SystemExit("perfbench: build failed")


def run_harness(workload, seed, seconds, traced, tiny, tag):
    """One fresh harness process in a fresh work directory; returns the
    parsed sample file (and the span file path when traced)."""
    work = os.path.abspath(os.path.join(WORK_ROOT, "%s-%d-%s-%d" % (workload, seed, tag, os.getpid())))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out = os.path.join(work, "samples.tsv")
    trace_dir = os.path.abspath(os.path.join(WORK_ROOT, "trace"))
    spans = os.path.join(trace_dir, "%s-seed%d.spans.tsv" % (workload, seed))
    cmd = [os.path.abspath(HARNESS), workload, "--seed", str(seed), "--seconds", str(seconds),
           "--out", out, "--work", work, "--cli", os.path.abspath(CLI),
           "--digests", os.path.join(HERE, "topk_cold.digest")]
    if traced:
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace", "--spans", spans]
    if tiny:
        cmd.append("--tiny")
    # Its own process group, so a server the harness spawned is reaped
    # with it whatever happens.
    proc = subprocess.Popen(cmd, env=clean_env(), start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        err = "timed out after %d s" % RUN_TIMEOUT_S
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        shutil.rmtree(work, ignore_errors=True)
        log(err)
        raise SystemExit("perfbench: %s harness failed (exit %s)" % (workload, proc.returncode))
    data = parse_samples(out)
    shutil.rmtree(work, ignore_errors=True)
    data["spans_path"] = spans if traced else None
    return data


def parse_samples(path):
    d = {"setup": [], "ops": [], "fails": [], "layers": {}, "notes": [],
         "window_s": None, "rss_mb": None, "cpu_s": None, "steal": None}
    with open(path) as f:
        for line in f:
            rec = line.rstrip("\n").split("\t")
            tag = rec[0]
            if tag == "setup_s":
                d["setup"].append(float(rec[1]))
            elif tag == "op":
                d["ops"].append((rec[1], rec[2], float(rec[3]), rec[4] == "ok"))
            elif tag == "fail":
                d["fails"].append(rec[1])
            elif tag == "layer":
                d["layers"][rec[1]] = float(rec[2])
            elif tag == "note":
                d["notes"].append(rec[1])
            elif tag in ("window_s", "rss_mb", "cpu_s"):
                d[tag] = float(rec[1])
            elif tag == "steal":
                d["steal"] = int(rec[1])
    return d


# --------------------------------------------------------------------
# Metrics


def end_to_end(d):
    """End-to-end metrics, attempted/failed, and the placement verdicts."""
    queries = [(ms, cls) for cls, kind, ms, _ in d["ops"] if kind == "query"]
    lat = sorted(ms for ms, _ in queries)
    problems = []
    m = {}
    for name, p in (("query_p50_ms", 50), ("query_p99_ms", 99)):
        v = nearest_rank(lat, p)
        if v is not None and p == 99:
            v = slice_p99([ms for ms, _ in queries])
        if v is None:
            problems.append("%s: %d query samples, too few" % (name, len(lat)))
            continue
        ok, cls, frac = placement(queries, p)
        if not ok:
            problems.append("%s: only %.0f%% of the samples around its rank are %s" % (name, 100 * frac, cls))
        m[name] = (v, "ms")
    completed = sum(1 for op in d["ops"] if op[3])
    m["throughput_ops_s"] = (completed / d["window_s"], "ops/s")
    m["setup_s"] = (statistics.median(d["setup"]), "s")
    m["peak_rss_mb"] = (d["rss_mb"], "MiB")
    attempted = len(d["ops"])
    failed = min(attempted, len(d["fails"]))
    return m, attempted, failed, problems


def load_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            idx, op, name, start, end, parent = line.rstrip("\n").split("\t")
            spans.append((int(idx), int(op), name, int(start), int(end), int(parent)))
    return spans


def self_times(spans):
    """Per span: its duration minus the time its children cover (children
    of one span never overlap: the harness is single-threaded)."""
    child = {}
    for idx, _, _, s, e, parent in spans:
        if parent >= 0:
            child[parent] = child.get(parent, 0) + (e - s)
    return [(op, name, (e - s - child.get(idx, 0)) / 1e6) for idx, op, name, s, e, _ in spans]


def per_layer(workload, d, untraced):
    """Per-layer metrics of a traced run, the span table and the report."""
    vals = {name: 0.0 for name in LAYER_ROLE}
    vals.update({k: v for k, v in d["layers"].items() if k in vals})
    by_name = {}
    op_spans = {}
    if d["spans_path"]:
        for op, name, ms in self_times(load_spans(d["spans_path"])):
            by_name.setdefault(name, []).append((op, ms))
            op_spans.setdefault(op, {}).setdefault(name, 0.0)
            op_spans[op][name] += ms
    timed_ops = [op for op in op_spans if op > 0 and "op" in op_spans[op]]
    for span, metric in SPAN_METRICS.items():
        if timed_ops and span in by_name:
            vals[metric] = sum(op_spans[op].get(span, 0.0) for op in timed_ops) / len(timed_ops)
    for span, metric in PROBE_METRICS.items():
        if span in by_name:
            vals[metric] = statistics.mean(ms for _, ms in by_name[span])
    for span, metric in SETUP_METRICS.items():
        if span in by_name:
            per_rep = {}
            for op, ms in by_name[span]:
                per_rep[op] = per_rep.get(op, 0.0) + ms
            vals[metric] = statistics.median(per_rep.values()) / 1000.0
    classes = {}
    for cls, kind, ms, _ in d["ops"]:
        classes.setdefault(cls, []).append(ms)

    def class_median(cls):
        return statistics.median(classes[cls]) if cls in classes else 0.0

    traced_m, _, _, _ = end_to_end(d)
    untraced_m, _, _, _ = end_to_end(untraced)
    if workload == "serve_hot":
        client_p50 = nearest_rank(sorted(classes.get("query", [])), 50) or 0.0
        vals["server.wire_p50_ms"] = client_p50 - vals["server.query_p50_ms"]
    if workload == "ingest_churn":
        writes = sorted(ms for _, kind, ms, _ in d["ops"] if kind == "write")
        vals["write_p99_ms"] = nearest_rank(writes, 99) or 0.0
        vals["corpus.append_ms"] = class_median("write.append")
        vals["corpus.merge_ms"] = class_median("merge")
        vals["corpus.query_after_write_ms"] = class_median("query.after_write")
        vals["corpus.query_repeat_ms"] = class_median("query.repeat")
    vals["trace.overhead_query_p50_ms"] = traced_m["query_p50_ms"][0] - untraced_m["query_p50_ms"][0]
    vals["trace.overhead_throughput_ops_s"] = (traced_m["throughput_ops_s"][0]
                                               - untraced_m["throughput_ops_s"][0])
    report = trace_report(workload, d, untraced_m, traced_m, vals, by_name, op_spans, timed_ops)
    return vals, report


def trace_report(workload, d, untraced_m, traced_m, vals, by_name, op_spans, timed_ops):
    lines = ["", "== traced run: %s ==" % workload]
    if d["spans_path"]:
        lines.append("span file: %s" % d["spans_path"])
    if by_name:
        lines.append("%-24s %8s %12s %12s" % ("span (self time)", "count", "total ms", "mean ms"))
        for name in sorted(by_name):
            ms = [v for _, v in by_name[name]]
            lines.append("%-24s %8d %12.3f %12.4f" % (name, len(ms), sum(ms), sum(ms) / len(ms)))
    lines.append("")
    lines.append("%-34s %14s %-6s  %s" % ("per-layer metric", "value", "unit", "should move"))
    for m in load_spec("per_layer"):
        where, moves = LAYER_ROLE[m["name"]]
        if where in (workload, "all"):
            lines.append("%-34s %14.4f %-6s  %s" % (m["name"], vals[m["name"]], m["unit"], moves))
    lines.append("")
    lines.append("tracing overhead: query_p50_ms %+.4f ms (traced %.4f, untraced %.4f); "
                 "throughput_ops_s %+.2f (traced %.2f, untraced %.2f)"
                 % (vals["trace.overhead_query_p50_ms"], traced_m["query_p50_ms"][0],
                    untraced_m["query_p50_ms"][0], vals["trace.overhead_throughput_ops_s"],
                    traced_m["throughput_ops_s"][0], untraced_m["throughput_ops_s"][0]))
    if workload == "topk_cold" and timed_ops:
        # The ops within +-1% of the median's rank (op ids count from 1 in
        # schedule order): their layer self times should add up to the
        # untraced median plus the tracing overhead.
        ranked = sorted(range(1, len(d["ops"]) + 1), key=lambda op: d["ops"][op - 1][2])
        n = len(ranked)
        r = max(0, math.ceil(0.5 * n) - 1)
        half = max(1, int(0.01 * n))
        band = ranked[max(0, r - half):r + half + 1]
        parts = {name: statistics.mean(op_spans[op].get(name, 0.0) for op in band)
                 for name in ("tpq.parse", "relax.penalty", "relax.chain", "joins.exec", "op")}
        total = sum(parts[k] for k in ("tpq.parse", "relax.penalty", "relax.chain", "joins.exec"))
        lines.append("median band (%d ops): parse %.4f + penalty %.4f + chain %.4f + exec %.4f = %.4f ms "
                     "(+ %.4f ms outside the layers); untraced query_p50_ms %.4f ms, difference %+.4f ms, "
                     "tracing overhead %+.4f ms"
                     % (len(band), parts["tpq.parse"], parts["relax.penalty"], parts["relax.chain"],
                        parts["joins.exec"], total, parts["op"], untraced_m["query_p50_ms"][0],
                        total - untraced_m["query_p50_ms"][0], vals["trace.overhead_query_p50_ms"]))
    return lines


def diagnostics(d):
    return "steal %s ticks, cpu %.2f s, window %.2f s%s" % (
        d["steal"], d["cpu_s"] or 0.0, d["window_s"] or 0.0,
        "".join("; " + n for n in d["notes"]))


def one_run(workload, seed, seconds, traced, tiny=False):
    """(result dict for the JSON line, report lines, raw data)."""
    d = run_harness(workload, seed, seconds, False, tiny, "plain")
    m, attempted, failed, problems = end_to_end(d)
    whole = nearest_rank(sorted(ms for _, kind, ms, _ in d["ops"] if kind == "query"), 99)
    report = ["%s seed %d: %s; whole-run p99 %s ms" % (workload, seed, diagnostics(d), whole)]
    if traced:
        t = run_harness(workload, seed, seconds, True, tiny, "traced")
        vals, trace_lines = per_layer(workload, t, d)
        report += ["%s seed %d traced: %s" % (workload, seed, diagnostics(t))] + trace_lines
        _, t_attempted, t_failed, t_problems = end_to_end(t)
        attempted += t_attempted
        failed += t_failed
        problems += t_problems
        metrics = {m["name"]: {"value": vals[m["name"]], "unit": m["unit"]} for m in load_spec("per_layer")}
    else:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in m.items()}
    for f in d["fails"][:20]:
        report.append("FAILED: " + f)
    for p in problems:
        report.append("PLACEMENT: " + p)
    result = {"correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, report, d


# --------------------------------------------------------------------
# Steadiness proof


def prove(seconds, first_seed):
    """Two sets of runs of the same build, interleaved run by run (A B A B
    ...), each run a fresh process on its own seed."""
    bounds = {m["name"]: (m["bound"], m["better"]) for m in load_spec("end_to_end")}
    values = {"A": {}, "B": {}}
    all_ok = True
    for i in range(PROOF_RUNS):
        seed = first_seed + i
        for s in ("A", "B"):
            for w in WORKLOADS:
                result, report, d = one_run(w, seed, seconds, False)
                print("[%s %2d] %-12s seed %-4d correct=%s failed=%d  %s  | %s" % (
                    s, i + 1, w, seed, result["correct"], result["failed"],
                    " ".join("%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items()),
                    diagnostics(d)), flush=True)
                all_ok &= result["correct"]
                for k, v in result["metrics"].items():
                    values[s].setdefault((w, k), []).append(v["value"])
    print()
    print("%-12s %-17s %4s %10s %10s %10s %7s %10s %10s %10s %7s %6s  %s" % (
        "workload", "metric", "set", "q1", "median", "q3", "spread",
        "q1", "median", "q3", "spread", "bound", "verdict"))
    for w in WORKLOADS:
        for name, (bound, better) in bounds.items():
            a = values["A"].get((w, name))
            b = values["B"].get((w, name))
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            spread_a = (qa[2] - qa[0]) / qa[1]
            spread_b = (qb[2] - qb[0]) / qb[1]
            worse = (qb[1] - qa[1]) / qa[1] if better == "lower" else (qa[1] - qb[1]) / qa[1]
            medians_ok = worse <= bound
            spread_ok = spread_a <= bound and spread_b <= bound
            all_ok &= medians_ok and spread_ok
            print("%-12s %-17s %4s %10.4g %10.4g %10.4g %7.3f %10.4g %10.4g %10.4g %7.3f %6.2f  %s, %s"
                  " (B %+.1f%% worse than A; spread/bound %.2f, %.2f)" % (
                      w, name, "A|B", qa[0], qa[1], qa[2], spread_a, qb[0], qb[1], qb[2], spread_b, bound,
                      "medians agree" if medians_ok else "MEDIANS DIFFER",
                      "spreads within bound" if spread_ok else "SPREAD OVER BOUND",
                      100 * worse, spread_a / bound, spread_b / bound))
    print("\nsteadiness proof: %s" % ("PASS" if all_ok else "FAIL"))
    return all_ok


# --------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes (the benchmark's own tests)")
    ap.add_argument("--prove", action="store_true", help="steadiness proof: two interleaved sets of runs")
    args = ap.parse_args()
    if not args.prove and not args.workload:
        ap.error("--workload or --prove is required")
    if not repo_ok():
        log("perfbench: run from the root of a FleXPath checkout (dune-project, bin/, lib/ and "
            "perfbench/harness/ must be present)")
        return 2
    build()
    if args.prove:
        return 0 if prove(args.seconds, args.seed) else 1
    result, report, _ = one_run(args.workload, args.seed, args.seconds, args.trace == 1, args.tiny)
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
