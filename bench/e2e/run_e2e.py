#!/usr/bin/env python3
"""End-to-end benchmark of bgpcc over a synthetic collector day.

Builds the bgpcc-e2e program (bench/e2e, Release), generates and caches
the seeded corpora in a separate process, warms the page cache, runs the
workloads in fresh processes, checks every run's output against the
one-thread reference, the generator's truth file and the pinned digests,
and prints every metric by name with its unit. Standard library only.

    python3 bench/e2e/run_e2e.py [--seed N] [--reps 5] [--out set.json]
        Every workload --reps times, round-robin, one process per run;
        prints median, quartiles and sample count per metric.
    python3 bench/e2e/run_e2e.py --trace
        One traced run per workload: per-layer metrics, and
        build/e2e/trace-<workload>.json with the spans and obs export.
    python3 bench/e2e/run_e2e.py --compare A.json B.json
        Medians and quartiles of two --out sets, checked against the
        bounds in BENCHMARK.json.
    python3 bench/e2e/run_e2e.py --smoke
        All five workloads at 1/50 of paper scale, one timed and one traced
        run each, for correctness only.
    python3 bench/e2e/run_e2e.py --workload W --seed N --seconds S --trace 0|1
        One run of one workload; the last stdout line is a JSON object
        with correct / attempted / failed / metrics.

See README.md for what each workload and metric means.
"""

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
EXPECTED = HERE / "expected.json"

DEFAULT_SEED = 20200315
WORKLOADS = ["day_report", "day_report_1t", "day_stream", "day_packed",
             "live_epochs"]
CORPUS_OF = {"day_report": "day", "day_report_1t": "day",
             "day_stream": "day", "day_packed": "packed",
             "live_epochs": "live"}
PASS_WORKLOADS = {"day_report", "day_report_1t", "day_packed", "live_epochs"}
# MacroGen volume scale per corpus. The paper-scale day is 1/1000 and the
# paper-scale live day 1/12500; the benchmark runs 1/10 and 1/16 of those
# so that a run repeats each workload several times within run_seconds.
VOLUME = {"day": 1e-4, "packed": 1e-4, "live": 5e-6}
# --smoke: 1/50 of paper scale.
SMOKE_VOLUME = {"day": 2e-5, "packed": 2e-5, "live": 1.6e-6}
# Corpus directories kept per kind; older ones are removed.
KEEP_CORPORA = 12
TRUTH_COUNTERS = ["announcements", "withdrawals", "with_communities",
                  "community_occurrences", "unique_communities"]
PASSES = ["classifier", "per_session_types", "tomography", "community_stats",
          "duplicate_burst", "anomaly", "revealed", "exploration",
          "usage_classification"]
INGEST_STAGES = ["frame", "decode", "clean", "observe", "merge", "spill",
                 "run_merge", "window", "prefetch_wait"]
ANALYSIS_STAGES = ["snapshot_clone", "snapshot_merge", "checkpoint"]
MIB = 1024.0 * 1024.0


class BenchError(Exception):
    """A run that failed outright: no metrics can be reported."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def benchmark_spec():
    with open(BENCHMARK) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Build, corpora, processes.

def build_program(build_dir, no_build):
    exe = build_dir / "bgpcc-e2e"
    if no_build:
        if not exe.is_file():
            raise BenchError(f"--no-build: {exe} does not exist")
        return exe
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} is not a bgpcc source tree")
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "bgpcc-e2e",
                  "-j", jobs])
    with open(build_dir / "build.log", "w") as build_log:
        for step in steps:
            if subprocess.run(step, stdout=build_log,
                              stderr=subprocess.STDOUT).returncode != 0:
                build_log.flush()
                tail = (build_dir / "build.log").read_text()[-4000:]
                raise BenchError(f"build failed: {' '.join(step)}\n{tail}")
    return exe


def call(argv, timeout):
    """Runs one bgpcc-e2e process to completion; returns its stdout."""
    try:
        proc = subprocess.run([str(a) for a in argv], capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out after {timeout}s: {argv[1]}")
    if proc.returncode != 0:
        raise BenchError(f"{argv[1]} exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    return proc.stdout


def prepare_corpus(program, build_dir, kind, seed, smoke):
    """Generates (or reuses) a corpus and its reference; warms its files."""
    root = build_dir / "corpus"
    name = f"{kind}-{seed}" + ("-smoke" if smoke else "")
    directory = root / name
    volume = (SMOKE_VOLUME if smoke else VOLUME)[kind]
    out = call([program, "gen", "--corpus", kind, "--seed", seed,
                "--volume", repr(volume), "--out", directory], timeout=170)
    log(out.strip())
    reference = directory / "reference.json"
    if (not reference.is_file()
            or reference.stat().st_mtime < program.stat().st_mtime):
        call([program, "reference", "--dir", directory], timeout=170)
    os.utime(directory)
    siblings = sorted((d for d in root.iterdir()
                       if d.is_dir() and d.name.startswith(kind + "-")),
                      key=lambda d: d.stat().st_mtime, reverse=True)
    for stale in siblings[KEEP_CORPORA:]:
        shutil.rmtree(stale, ignore_errors=True)
    for path in directory.iterdir():  # warm the page cache
        with open(path, "rb") as f:
            while f.read(1 << 20):
                pass
    return directory


def run_program(program, build_dir, command, workload, corpus, extra, timeout):
    spill = build_dir / "spill" / f"{workload}-{os.getpid()}"
    try:
        out = call([program, command, "--workload", workload, "--dir", corpus,
                    "--spill-dir", spill] + extra, timeout=timeout)
    finally:
        shutil.rmtree(spill, ignore_errors=True)
    return json.loads(out.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Correctness.

def load_json(path):
    with open(path) as f:
        return json.load(f)


class Checker:
    """Checks run outputs against the corpus reference, truth and pins."""

    def __init__(self, workload, corpus, seed, smoke):
        self.workload = workload
        self.kind = CORPUS_OF[workload]
        self.reference = load_json(corpus / "reference.json")
        self.truth = load_json(corpus / "truth.json")
        self.global_problems = self._corpus_problems(seed, smoke)

    def _corpus_problems(self, seed, smoke):
        ref, problems = self.reference, []
        if ref["batch_stream_digest"] != ref["windowed_stream_digest"]:
            problems.append("batch and windowed reference streams differ")
        records = self.truth["records"]
        if not ref["records"] == ref["windowed_records"] == records:
            problems.append("reference record counts differ from truth")
        if (ref["dropped_unallocated_prefix"]
                != self.truth["dropped_unallocated_prefix"]):
            problems.append("§4 unallocated drops differ from truth")
        for key in TRUTH_COUNTERS:
            if ref["counters"][key] != self.truth[key]:
                problems.append(f"reference {key} differs from truth")
        if seed == DEFAULT_SEED and not smoke:
            pinned = load_json(EXPECTED)[self.kind]
            if ref["report_digest"] != pinned["report_digest"]:
                problems.append("report digest differs from expected.json")
            if ref["batch_stream_digest"] != pinned["stream_digest"]:
                problems.append("stream digest differs from expected.json")
        return problems

    def iteration(self, it):
        """Problems of one iteration."""
        ref, problems = self.reference, []
        if it["records"] != ref["records"]:
            problems.append(f"records {it['records']} != {ref['records']}")
        if self.workload in PASS_WORKLOADS:
            if it["digest"] != ref["report_digest"]:
                problems.append(f"report digest {it['digest']} != "
                                f"{ref['report_digest']}")
            for key in TRUTH_COUNTERS:
                if it["counters"][key] != self.truth[key]:
                    problems.append(f"{key} {it['counters'][key]} != truth "
                                    f"{self.truth[key]}")
        elif it["digest"] != ref["windowed_stream_digest"]:
            problems.append(f"stream digest {it['digest']} != windowed "
                            f"{ref['windowed_stream_digest']}")
        return problems

    def count(self, iterations):
        """(attempted, failed, problems) over a list of iterations."""
        failed, problems = 0, list(self.global_problems)
        for it in iterations:
            found = self.iteration(it)
            if found or self.global_problems:
                failed += 1
            problems += found
        return len(iterations), failed, problems


# ---------------------------------------------------------------------------
# Metrics.

def percentile(values, q):
    """Linear-interpolated quantile q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(raw):
    """The end-to-end metric values of one timed run."""
    its = raw["iterations"]
    epochs = [ms for it in its for ms in it["epoch_ms"]]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "wall_s": statistics.median(it["wall_s"] for it in its),
        "records_per_s": statistics.median(it["records"] / it["wall_s"]
                                           for it in its),
        "report_s": statistics.median(it["report_s"] for it in its),
        "epoch_p50_ms": statistics.median(epochs),
        "epoch_p90_ms": percentile(epochs, 0.9),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def obs_series(export, family):
    """Series of one metric family in an obs::render_json export."""
    for metric in export["metrics"]:
        if metric["name"] == family:
            return metric["series"]
    raise BenchError(f"obs export lacks {family}")


def obs_value(export, family, label=None, field="value"):
    total = 0.0
    for series in obs_series(export, family):
        if label is None or series["labels"].get(label[0]) == label[1]:
            total += float(series[field])
    return total


def per_layer(raw):
    """The per-layer metric values of one traced run."""
    seconds = collections.defaultdict(float)
    counts = collections.defaultdict(int)
    durations = collections.defaultdict(list)
    for span in raw["spans"]:
        d = (span["end_ns"] - span["start_ns"]) / 1e9
        seconds[span["name"]] += d
        counts[span["name"]] += span["count"]
        durations[span["name"]].append(d)
    m = {
        "mrt.inflate_s": seconds["mrt.inflate"],
        "mrt.inflate_mb": counts["mrt.inflate"] / MIB,
        "mrt.frame_s": seconds["mrt.frame"],
        "mrt.frame_records": counts["mrt.frame"],
        "bgp.decode_s": seconds["bgp.decode"],
        "bgp.decode_updates": counts["bgp.decode"],
        "core.explode_s": seconds["core.explode"],
        "core.explode_records": counts["core.explode"],
        "core.clean_s": seconds["core.clean"],
        "core.clean_kept_ratio": counts["core.clean"] / counts["core.explode"],
        "core.ingest_1t_s": seconds["core.ingest_1t"],
    }
    m["core.move_s"] = m["core.ingest_1t_s"] - sum(
        seconds[k] for k in ("mrt.inflate", "mrt.frame", "bgp.decode",
                             "core.explode", "core.clean"))
    m["core.spill_mb"] = raw["spill_bytes"] / MIB
    for p in PASSES:
        m[f"analytics.observe_s.{p}"] = seconds[f"analytics.observe.{p}"]
        m[f"analytics.state_mb.{p}"] = (
            counts[f"analytics.save_state.{p}"] / MIB)
    for k in ("finalize", "snapshot", "checkpoint", "restore"):
        m[f"analytics.{k}_s"] = seconds[f"analytics.{k}"]
    # The live-round metrics exist on live_epochs only; elsewhere they read 0.
    checkpoints = [s["count"] for s in raw["spans"]
                   if s["name"] == "live.checkpoint"]
    m["analytics.checkpoint_mb"] = checkpoints[-1] / MIB if checkpoints else 0.0
    for k in ("poll", "snapshot", "checkpoint", "render"):
        d = durations[f"live.{k}"]
        m[f"live.{k}_ms_p50"] = statistics.median(d) * 1e3 if d else 0.0
    work = raw["obs"]
    stage = {s: obs_value(work, "bgpcc_ingest_stage_seconds", ("stage", s),
                          "sum") for s in INGEST_STAGES}
    for s in INGEST_STAGES:
        m[f"obs.stage_s.{s}"] = stage[s]
    for s in ANALYSIS_STAGES:
        m[f"obs.analysis_s.{s}"] = obs_value(
            work, "bgpcc_analysis_stage_seconds", ("stage", s), "sum")
    m["obs.pool.queue_wait_s"] = obs_value(
        work, "bgpcc_pool_queue_wait_seconds", field="sum")
    tasks = obs_value(work, "bgpcc_pool_tasks_total")
    m["obs.pool.tasks"] = tasks
    hits = obs_value(work, "bgpcc_pool_help_hits_total")
    m["obs.pool.help_ratio"] = hits / tasks if tasks else 0.0
    # Ordering work whose result a discarding sink throws away.
    unused = stage["merge"] + stage["spill"] + stage["run_merge"]
    m["obs.unused_order_ratio"] = (unused / stage["window"]
                                   if stage["window"] else 0.0)
    m["tracing_overhead"] = raw["traced"]["wall_s"] / statistics.median(
        it["wall_s"] for it in raw["untraced"])
    return m


def metric_json(values, definitions):
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
            for d in definitions}


# ---------------------------------------------------------------------------
# Modes.

def timed_run(program, build_dir, workload, seed, seconds, smoke):
    """One fresh-process run: (metrics, attempted, failed, problems)."""
    corpus = prepare_corpus(program, build_dir, CORPUS_OF[workload], seed,
                            smoke)
    raw = run_program(program, build_dir, "run", workload, corpus,
                     ["--seconds", seconds], timeout=max(60, 8 * seconds))
    checker = Checker(workload, corpus, seed, smoke)
    its = ([raw["warmup"]] if "warmup" in raw else []) + raw["iterations"]
    attempted, failed, problems = checker.count(its)
    return end_to_end(raw), attempted, failed, problems


def traced_run(program, build_dir, workload, seed, smoke):
    """One traced run: (metrics, attempted, failed, problems)."""
    corpus = prepare_corpus(program, build_dir, CORPUS_OF[workload], seed,
                            smoke)
    untraced = "1" if smoke else "3"
    raw = run_program(program, build_dir, "trace", workload, corpus,
                     ["--untraced", untraced], timeout=170)
    checker = Checker(workload, corpus, seed, smoke)
    its = raw["untraced"] + [raw["traced"]]
    attempted, failed, problems = checker.count(its)
    attempted += 1
    if raw["kernel_digest"] != checker.reference["report_digest"]:
        failed += 1
        problems.append(f"layer-kernel report digest {raw['kernel_digest']} "
                        f"!= {checker.reference['report_digest']}")
    metrics = per_layer(raw)
    trace = {"workload": workload, "seed": seed, "metrics": metrics,
             "spans": raw["spans"], "obs": raw["obs"]}
    with open(build_dir / f"trace-{workload}.json", "w") as f:
        json.dump(trace, f)
    return metrics, attempted, failed, problems


def single(args, program, build_dir, spec):
    """One run of one workload in the result-line format."""
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload}")
    if args.trace:
        metrics, attempted, failed, problems = traced_run(
            program, build_dir, args.workload, args.seed, args.smoke)
        definitions = spec["per_layer"]
    else:
        metrics, attempted, failed, problems = timed_run(
            program, build_dir, args.workload, args.seed, args.seconds,
            args.smoke)
        definitions = spec["end_to_end"]
    for problem in problems:
        log(f"{args.workload}: {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": metric_json(metrics, definitions)}))
    return 0 if failed == 0 else 1


def quartiles(values):
    """First and third quartile by linear interpolation between the runs
    (the exclusive default would reach halfway to the extreme run when
    there are only five)."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def table2_shares(counters):
    types = counters["types"]
    total = sum(types.values())
    return "  ".join(f"{k} {100.0 * v / total:.1f}%" for k, v in types.items())


def trace_all(args, program, build_dir, spec):
    """One traced run per workload; prints its per-layer metrics."""
    units = {d["name"]: d["unit"] for d in spec["per_layer"]}
    failures = 0
    for w in WORKLOADS:
        metrics, _, failed, problems = traced_run(program, build_dir, w,
                                                  args.seed, args.smoke)
        failures += failed
        for problem in problems:
            log(f"{w}: {problem}")
        print(f"\n{w} (trace: {build_dir / f'trace-{w}.json'})")
        for name, value in metrics.items():
            print(f"  {name:40s} {value:14.6g} {units[name]}")
    return failures


def time_all(args, program, build_dir, spec):
    """--reps timed runs per workload, round-robin; prints the summary."""
    reps = 1 if args.smoke else args.reps
    rows, failures = [], 0
    for rep in range(reps):
        for w in WORKLOADS:
            started = time.monotonic()
            try:
                metrics, attempted, failed, problems = timed_run(
                    program, build_dir, w, args.seed, args.seconds, args.smoke)
            except BenchError as e:  # exited nonzero or timed out
                metrics, attempted, failed, problems = None, 0, 1, [str(e)]
            failures += failed
            for problem in problems:
                log(f"{w}: {problem}")
            log(f"rep {rep + 1}/{reps} {w}: {attempted} iterations, "
                f"{failed} failed, {time.monotonic() - started:.1f}s")
            rows.append({"workload": w, "seed": args.seed, "rep": rep,
                         "correct": failed == 0, "attempted": attempted,
                         "failed": failed, "metrics": metrics})

    for w in WORKLOADS:
        mine = [r for r in rows if r["workload"] == w]
        measured = [r for r in mine if r["metrics"] is not None]
        ratio = sum(1 for r in mine if not r["correct"]) / len(mine)
        print(f"\n{w}: {len(mine)} runs, failed_ratio {ratio:g}")
        for d in spec["end_to_end"] if measured else []:
            values = [r["metrics"][d["name"]] for r in measured]
            q1, q3 = quartiles(values)
            print(f"  {d['name']:14s} {d['unit']:5s} median "
                  f"{statistics.median(values):12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  n {len(values)}")
    for kind in sorted(set(CORPUS_OF.values())):
        name = f"{kind}-{args.seed}" + ("-smoke" if args.smoke else "")
        reference = build_dir / "corpus" / name / "reference.json"
        if reference.is_file():
            print(f"\nTable 2 type shares ({kind} corpus): "
                  f"{table2_shares(load_json(reference)['counters'])}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "rows": rows}, f, indent=1)
            f.write("\n")
    return failures


def orchestrate(args, program, build_dir, spec):
    failures = 0
    if not args.trace:
        failures += time_all(args, program, build_dir, spec)
    if args.trace or args.smoke:  # the smoke test covers the traced path too
        failures += trace_all(args, program, build_dir, spec)
    return 1 if failures else 0


def compare(path_a, path_b, spec):
    """Per workload and metric: both medians and quartiles vs the bound.
    A set holding a failed run (nonzero exit, timeout or a failed
    correctness check) is rejected before any verdict."""
    sets = [load_json(path_a)["rows"], load_json(path_b)["rows"]]
    status = 0
    for path, rows in zip((path_a, path_b), sets):
        for r in rows:
            if not r["correct"] or r["metrics"] is None:
                log(f"{path}: rep {r['rep']} of {r['workload']} failed "
                    f"({r['failed']} of {r['attempted']} iterations)")
                status = 1
    if status:
        log("run_e2e: a set with failed runs cannot be compared")
        return status
    workloads = [w for w in WORKLOADS
                 if any(r["workload"] == w for s in sets for r in s)]
    print(f"{'workload':14s} {'metric':14s} {'median A':>12s} {'q1-q3 A':>25s}"
          f" {'median B':>12s} {'q1-q3 B':>25s} {'B vs A':>8s} {'bound':>6s}"
          f"  verdict")
    for w in workloads:
        for d in spec["end_to_end"]:
            stats = []
            for rows in sets:
                values = [r["metrics"][d["name"]] for r in rows
                          if r["workload"] == w]
                if not values:
                    raise BenchError(f"{w} missing from one set")
                median = statistics.median(values)
                q1, q3 = quartiles(values)
                stats.append((median, q1, q3, (q3 - q1) / median))
            (ma, a1, a3, sa), (mb, b1, b3, sb) = stats
            worse = (mb - ma) / ma
            if d["better"] == "higher":
                worse = -worse
            if max(sa, sb) > d["bound"]:
                verdict = "unresolved"
            elif worse > d["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            if verdict != "ok":
                status = 1
            print(f"{w:14s} {d['name']:14s} {ma:12.6g} {a1:12.6g}-{a3:<12.6g}"
                  f" {mb:12.6g} {b1:12.6g}-{b3:<12.6g} {100 * worse:+7.2f}%"
                  f" {d['bound']:6.2f}  {verdict}")
    return status


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run one workload once")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        help="per-layer traced run instead of timed runs")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="write every run as a row (JSON)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--build-dir", default=str(ROOT / "build" / "e2e"))
    parser.add_argument("--no-build", action="store_true",
                        help="use the bgpcc-e2e already in --build-dir")
    args = parser.parse_args()
    try:
        spec = benchmark_spec()
        if args.compare:
            return compare(args.compare[0], args.compare[1], spec)
        if args.seconds is None:
            args.seconds = 0 if args.smoke else spec["run_seconds"]
        build_dir = Path(args.build_dir).resolve()
        program = build_program(build_dir, args.no_build)
        if args.workload:
            return single(args, program, build_dir, spec)
        return orchestrate(args, program, build_dir, spec)
    except (BenchError, OSError, KeyError, ValueError) as e:
        log(f"run_e2e: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
