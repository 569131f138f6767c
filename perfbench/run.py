#!/usr/bin/env python3
"""Benchmark of the omn toolkit: end to end through the omn commands a
user runs, and per layer through a traced in-process replica.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, both modes
    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

Run from the repository root. The first run builds bin/omn.exe and
perfbench/replica/replica.exe into .bench_build; inputs and results go
to .bench_work. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
perfbench/README.md lists the workloads and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import socket
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
OMN = os.path.join(BUILD_DIR, "default", "bin", "omn.exe")
REPLICA = os.path.join(BUILD_DIR, "default", "perfbench", "replica", "replica.exe")
# Set-up is repeated at least SETUP_MIN_REPS times and until
# SETUP_MIN_S have passed (at most SETUP_MAX_REPS), for a steady median.
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_S = 3, 11, 3.0
# A run must end within 180 s of its start (after the build); children
# are killed once this budget is spent.
DEADLINE_S = 170
STARTED = time.perf_counter()

# Results pinned when the benchmark was created.
INFOCOM05_DIAMETER = 6
# (drop probability, thinning seed) -> diameter of the thinned day 2.
THIN_DIAMETER = {}
for _s, _d in zip(range(1, 13), (10, 10, 10, 10, 10, 10, 10, 11, 10, 10, 10, 10)):
    THIN_DIAMETER[(0.9, _s)] = _d
for _s, _d in zip(range(1, 13), (7, 7, 7, 8, 7, 7, 7, 7, 8, 7, 8, 7)):
    THIN_DIAMETER[(0.99, _s)] = _d
STREAM_SAMPLE = {"sampled": 4, "diameter": 4, "ci_lo": 4, "ci_hi": 5}
# The sources the estimator samples (seed 0, 300 nodes); relabelling
# keeps them in place so the pinned estimate holds for every seed.
STREAM_SAMPLED_SOURCES = (0, 74, 187, 261)


class Failed(Exception):
    """A command that exited non-zero or whose result failed its check."""


def remaining():
    """Seconds a child may still take before the run's deadline."""
    return max(1.0, DEADLINE_S - (time.perf_counter() - STARTED))


def run(cmd, env=None):
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=remaining())
    except subprocess.TimeoutExpired:
        raise Failed(f"{' '.join(cmd)}: timed out")
    if p.returncode != 0:
        raise Failed(f"{' '.join(cmd)}: exit {p.returncode}: {p.stderr.strip()[-400:]}")
    return p


def omn(*args):
    return run([OMN, *map(str, args)])


def read_json(path):
    with open(path) as f:
        return json.load(f)


# --- workloads: set-up, timed command sequence, traced replica ---

class Infocom05Exact:
    """Fig. 9's headline: the Infocom05 preset's exact diameter."""
    max_hops = 12

    def setup(self, d, seed):
        path = os.path.join(d, "infocom05.omn")
        omn("gen", "--preset", "infocom05", "--seed", 1, "-o", path)
        benchlib.relabel_file(path, benchlib.permutation(seed, benchlib.header_nodes(path)))
        return {"files": [path], "params": {"relabel_seed": seed}}

    def commands(self, d, domains):
        out = os.path.join(d, f"diameter_{domains}.json")
        cmd = ["diameter", os.path.join(d, "infocom05.omn"), "--max-hops", self.max_hops,
               "--domains", domains, "-o", out]
        return [(cmd, out, self.check)]

    def check(self, result, out):
        if result["diameter"] != INFOCOM05_DIAMETER:
            raise Failed(f"{out}: diameter {result['diameter']}, pinned {INFOCOM05_DIAMETER}")

    def replica_args(self, d):
        return ["exact", "--input", os.path.join(d, "infocom05.omn"),
                "--max-hops", str(self.max_hops)]

    def replica_check(self, traces):
        if traces[0]["diameter"] != INFOCOM05_DIAMETER:
            raise Failed(f"replica diameter {traces[0]['diameter']}")


class RemovalSweep:
    """Fig. 10: Infocom06 day 2 thinned at P = 0.9 and 0.99."""
    max_hops = 14
    probs = (0.9, 0.99)

    def __init__(self):
        self.seeds = (1, 2, 3)

    def setup(self, d, seed):
        full = os.path.join(d, "infocom06.omn")
        omn("gen", "--preset", "infocom06", "--seed", 1, "-o", full)
        omn("transform", full, "--window", "86400:172800", "-o", os.path.join(d, "day2.omn"))
        os.remove(full)
        v = seed % 4
        self.seeds = (3 * v + 1, 3 * v + 2, 3 * v + 3)
        return {"files": [os.path.join(d, "day2.omn")],
                "params": {"drop_probs": list(self.probs), "thin_seeds": list(self.seeds)}}

    def thinned(self, d, domains, p, s):
        return os.path.join(d, f"thin_{domains}_{p}_{s}.omn")

    def commands(self, d, domains):
        seq = []
        for p in self.probs:
            for s in self.seeds:
                thin = self.thinned(d, domains, p, s)
                seq.append((["transform", os.path.join(d, "day2.omn"), "--drop-prob", p,
                             "--seed", s, "-o", thin], thin, None))
                out = os.path.join(d, f"diameter_{domains}_{p}_{s}.json")
                seq.append((["diameter", thin, "--max-hops", self.max_hops,
                             "--domains", domains, "-o", out], out,
                            lambda r, o, key=(p, s): self.check(r, o, key)))
        return seq

    def check(self, result, out, key):
        if result["diameter"] != THIN_DIAMETER[key]:
            raise Failed(f"{out}: diameter {result['diameter']}, pinned {THIN_DIAMETER[key]}")

    def replica_args(self, d):
        args = ["thin", "--input", os.path.join(d, "day2.omn"),
                "--max-hops", str(self.max_hops)]
        for p in self.probs:
            for s in self.seeds:
                args += ["--thin", f"{p}:{s}:{self.thinned(d, 1, p, s)}"]
        return args

    def replica_check(self, traces):
        for t in traces:
            if t["diameter"] != THIN_DIAMETER[(t["p"], t["seed"])]:
                raise Failed(f"replica diameter {t['diameter']} at p={t['p']} seed={t['seed']}")


class StreamSampled:
    """The scale path: a sharded 254k-contact trace, streamed and sampled."""
    max_hops = 10

    def setup(self, d, seed):
        index = os.path.join(d, "conference.idx")
        omn("gen", "--preset", "conference", "--nodes", 300, "--hours", 12, "--seed", 5,
            "--shards", 8, "-o", index)
        with open(index) as f:
            shards = [os.path.join(d, line.strip()) for line in f
                      if line.strip() and not line.startswith("#")]
        perm = benchlib.permutation(seed, 300, fixed=STREAM_SAMPLED_SOURCES)
        for s in shards:
            benchlib.relabel_file(s, perm)
        return {"files": [index] + shards, "params": {"relabel_seed": seed}}

    def commands(self, d, domains):
        out = os.path.join(d, f"diameter_{domains}.json")
        cmd = ["diameter", os.path.join(d, "conference.idx"), "--stream", "--sample", 4,
               "--ci-width", 20, "--domains", domains, "-o", out]
        return [(cmd, out, self.check)]

    def check(self, result, out):
        got = {"sampled": result["sample"]["sampled"], "diameter": result["diameter"],
               "ci_lo": result["sample"]["ci_lo"], "ci_hi": result["sample"]["ci_hi"]}
        if got != STREAM_SAMPLE:
            raise Failed(f"{out}: {got}, pinned {STREAM_SAMPLE}")

    def replica_args(self, d):
        return ["sampled", "--input", os.path.join(d, "conference.idx"),
                "--flat", os.path.join(d, "flat_copy.omn"), "--max-hops", str(self.max_hops),
                "--sample", "4", "--ci-width", "20"]

    def replica_check(self, traces):
        t = traces[0]
        got = {k: t[k] for k in STREAM_SAMPLE}
        if got != STREAM_SAMPLE or tuple(t["sampled_sources"]) != STREAM_SAMPLED_SOURCES:
            raise Failed(f"replica estimate {got} from sources {t['sampled_sources']}")


WORKLOADS = {"infocom05_exact": Infocom05Exact, "removal_sweep": RemovalSweep,
             "stream_sampled": StreamSampled}


# --- end to end ---

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def fail(self, msg):
        self.failures.append(msg)
        print(f"FAILED: {msg}", file=sys.stderr)


def run_sequence(wl, d, domains, tally):
    """Run the workload's commands at one domain count; return the wall
    time, the largest top_heap_words, and the parsed results by output."""
    env = dict(os.environ, OCAMLRUNPARAM="v=0x400")
    seq = wl.commands(d, domains)
    outcomes = []
    t0 = time.perf_counter()
    for cmd, out, _ in seq:
        try:
            p = subprocess.run([OMN, *map(str, cmd)], capture_output=True, text=True, env=env,
                               timeout=remaining())
        except subprocess.TimeoutExpired:
            p = subprocess.CompletedProcess(cmd, 124, "", "timed out")
        outcomes.append(p)
    wall = time.perf_counter() - t0
    heap = 0
    results = {}
    for (cmd, out, check), p in zip(seq, outcomes):
        tally.attempted += 1
        try:
            if p.returncode != 0:
                raise Failed(f"omn {cmd[0]}: exit {p.returncode}: {p.stderr.strip()[-400:]}")
            heap = max(heap, benchlib.top_heap_words(p.stderr) or 0)
            if check is not None:
                results[out] = benchlib.strip_manifest(read_json(out))
                check(results[out], out)
        except (Failed, OSError, ValueError, KeyError) as e:
            tally.fail(str(e))
    return wall, heap, seq, results


def check_domains_agree(seq1, res1, seq2, res2, tally):
    """--domains 2 outputs must equal --domains 1 outputs (result JSON
    without the manifest, thinned traces byte for byte)."""
    for (cmd1, out1, check), (_, out2, _) in zip(seq1, seq2):
        try:
            if check is None:
                with open(out1, "rb") as a, open(out2, "rb") as b:
                    same = a.read() == b.read()
            else:
                same = out1 in res1 and out2 in res2 and res1[out1] == res2[out2]
            if not same:
                raise Failed(f"omn {cmd1[0]}: --domains 2 output {out2} differs from {out1}")
        except (Failed, OSError) as e:
            tally.fail(str(e))


def end_to_end(wl, d, seconds, tally):
    """Alternate the 1- and 2-domain sequences until `seconds` have passed
    (at least once); return their wall times and peak heaps in MB."""
    totals, totals2, heaps = [], [], []
    start = time.perf_counter()
    while True:
        wall1, heap, seq1, res1 = run_sequence(wl, d, 1, tally)
        wall2, _, seq2, res2 = run_sequence(wl, d, 2, tally)
        check_domains_agree(seq1, res1, seq2, res2, tally)
        totals.append(wall1)
        totals2.append(wall2)
        heaps.append(heap * 8 / 1e6)
        if time.perf_counter() - start >= seconds:
            return totals, totals2, heaps


# --- per layer ---

def layer_metrics(out, spans, total_s, total_2dom_s):
    traces = out["traces"]
    rows = benchlib.journey_rounds(spans)
    self_s = benchlib.self_times(spans)
    accumulate = [s for s in spans if s["name"] == "delay_cdf.accumulate"]
    inserts = sum(t["insert_points"] for t in traces)
    parse_n = max(1, benchlib.count(spans, "trace_io.parse"))
    solve_s = benchlib.total_time(spans, "solve")
    untraced_s = sum(t["untraced_s"] for t in traces)

    def total(key):
        return sum(t.get(key, 0) for t in traces)

    def mean(key):
        return total(key) / len(traces)

    m = {
        "trace_io.load_s": (benchlib.total_time(spans, "trace_io.load"), "s"),
        "trace_stream.load_s": (benchlib.total_time(spans, "trace_stream.load"), "s"),
        "trace_io.parse_s": (benchlib.total_time(spans, "trace_io.parse") / parse_n, "s"),
        "trace_stream.parse_s":
            (benchlib.total_time(spans, "trace_stream.parse") / parse_n, "s"),
        "trace.create_s": (benchlib.total_time(spans, "trace.create"), "s"),
        "trace.live_mb": (out["live_mb"], "MB"),
        "transform.remove_random_s":
            (benchlib.total_time(spans, "transform.remove_random"), "s"),
        "journey.sweep_s": (self_s.get("journey.run", 0.0), "s"),
        "journey.sparse_sweep_s": (benchlib.sparse_sweep_s(rows), "s"),
        "journey.rounds": (sum(s["args"]["rounds"] for s in spans
                               if s["name"] == "journey.run"), "count"),
        "journey.inserts": (sum(s["args"]["changed"] for s in accumulate
                                if s["args"]["in_round"]), "count"),
        "frontier.points_kept": (total("points_kept"), "count"),
        "frontier.points_pruned": (total("points_pruned"), "count"),
        "frontier.insert_ns":
            (sum(t["insert_ns"] * t["insert_points"] for t in traces) / inserts
             if inserts else 0.0, "ns"),
        "delay_cdf.accumulate_s": (benchlib.total_time(spans, "delay_cdf.accumulate"), "s"),
        "delay_cdf.add_pair_calls": (sum(s["args"]["calls"] for s in accumulate), "count"),
        "delay_cdf.unchanged_add_share":
            (benchlib.unchanged_share(total("unchanged_adds"), total("hopk_calls")), "ratio"),
        "delay_cdf.merge_s": (benchlib.total_time(spans, "delay_cdf.merge"), "s"),
        "delay_cdf.partial_bytes": (mean("partial_bytes"), "B"),
        "delay_cdf.partial_codec_s": (mean("partial_codec_s"), "s"),
        "diameter_est.partials_s": (benchlib.total_time(spans, "diameter_est.partials"), "s"),
        "diameter_est.rest_s": (self_s.get("diameter_est.estimate", 0.0), "s"),
        "diameter_est.sampled": (total("sampled"), "count"),
        "diameter_est.rounds": (total("rounds"), "count"),
        "pool.efficiency": (benchlib.pool_efficiency(total_s, total_2dom_s), "ratio"),
        "pool.busy_s": (total("pool_busy_s"), "s"),
        "pool.tasks_stolen": (total("pool_tasks_stolen"), "count"),
        "bench.solve_s": (solve_s, "s"),
        "bench.trace_overhead": (solve_s / untraced_s if untraced_s else 0.0, "ratio"),
        "bench.layer_coverage": (benchlib.layer_coverage(spans), "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def traced(wl, d, total_s, total_2dom_s, tally):
    spans_path = os.path.join(d, "spans.json")
    tally.attempted += 1
    try:
        p = run([REPLICA, *wl.replica_args(d), "--spans", spans_path])
        out = json.loads(p.stdout)
        if not out["identical"]:
            raise Failed("traced replica is not bit-identical: " + "; ".join(out["mismatches"]))
        wl.replica_check(out["traces"])
    except (Failed, ValueError, KeyError) as e:
        tally.fail(str(e))
        return None
    return layer_metrics(out, benchlib.load_spans(spans_path), total_s, total_2dom_s)


# --- provenance ---

def provenance(inputs):
    try:
        digests = json.loads(run([REPLICA, "sha256", *inputs["files"]]).stdout)
    except (Failed, ValueError) as e:
        digests = {"error": str(e)}
    def output_of(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=30).stdout.strip() or None
        except OSError:
            return None
    commit = output_of(["git", "rev-parse", "HEAD"])
    ocaml = output_of(["ocamlfind", "ocamlopt", "-version"])
    return {
        "commit": commit,
        "source_sha256": benchlib.source_digest(".", ["bin", "lib", "perfbench"]),
        "host": socket.gethostname(), "platform": platform.platform(),
        "cores": os.cpu_count(), "ocaml": ocaml,
        "inputs": {"sha256": {os.path.basename(f): h for f, h in digests.items()},
                   "params": inputs["params"]},
    }


# --- main ---

def build():
    if shutil.which("dune") is None:
        sys.exit("perfbench: dune is not on PATH")
    # The shared dune cache lives outside the checkout; keep the build in it.
    p = subprocess.run(["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
                        "--profile", "release", "--cache=disabled", "bin/omn.exe",
                        "perfbench/replica/replica.exe"],
                       capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"perfbench: build failed:\n{p.stderr[-4000:]}")


def set_up(wl, d, seed, repeat):
    """Generate the inputs into fresh directories, once or (with repeat)
    as often as SETUP_* ask; keep the last set. Returns the inputs and
    the median set-up time."""
    times = []
    while not times or (repeat and len(times) < SETUP_MAX_REPS and (
            len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_S)):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        t0 = time.perf_counter()
        inputs = wl.setup(d, seed)
        times.append(time.perf_counter() - t0)
    return inputs, benchlib.median(times)


def run_one(workload, seed, seconds, trace):
    """One run of one workload; prints a line per metric and returns the
    result object of the run's last output line."""
    wl = WORKLOADS[workload]()
    d = os.path.join(WORK_DIR, workload)
    tally = Tally()
    try:
        inputs, setup_s = set_up(wl, d, seed, repeat=not trace)
    except (Failed, OSError) as e:
        sys.exit(f"perfbench: set-up failed: {e}")
    if trace:
        totals, totals2, heaps = end_to_end(wl, d, 0, tally)
        metrics = traced(wl, d, totals[0], totals2[0], tally)
        if metrics is None:
            metrics = {name: {"value": 0.0, "unit": "discarded"} for name in per_layer_names()}
    else:
        totals, totals2, heaps = end_to_end(wl, d, seconds, tally)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "total_s": {"value": benchlib.median(totals), "unit": "s"},
            "total_2dom_s": {"value": benchlib.median(totals2), "unit": "s"},
            "peak_heap_mb": {"value": benchlib.median(heaps), "unit": "MB"},
        }
    failed = len(tally.failures)
    record = {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        **provenance(inputs),
        "samples": {"total_s": totals, "total_2dom_s": totals2, "peak_heap_mb": heaps},
        "failed_frac": failed / tally.attempted, "failures": tally.failures,
        "metrics": metrics,
    }
    with open(os.path.join(WORK_DIR, "records.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    for name, m in metrics.items():
        print(f"{workload:16s} {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"{workload:16s} {'failed_frac':32s} {record['failed_frac']:.6g} ratio"
          f" ({failed} of {tally.attempted} commands)")
    return {"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                    help="'all' runs every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    a = ap.parse_args()
    if a.compare:
        return compare(*a.compare)
    if a.workload is None:
        ap.error("--workload is required")
    for need in ("dune-project", "bin/omn.ml", "lib", "perfbench/replica/replica.ml"):
        if not os.path.exists(need):
            sys.exit(f"perfbench: {need} not found; run from the repository root")
    build()
    global STARTED
    if a.workload != "all":
        STARTED = time.perf_counter()
        print(json.dumps(run_one(a.workload, a.seed, a.seconds, a.trace)))
        return
    results = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            STARTED = time.perf_counter()
            results.append(run_one(workload, a.seed, a.seconds, trace))
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results)}))


def per_layer_names():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)["per_layer"]]


def compare(old_path, new_path):
    def records(path):
        with open(path) as f:
            return [json.loads(line) for line in f if line.strip()]
    rows, unmatched = benchlib.compare(records(old_path), records(new_path))
    for workload, name, (before, spread0), (after, spread1) in rows:
        change = (after - before) / before * 100 if before else 0
        print(f"{workload:16s} {name:32s} median {before:.6g} -> {after:.6g} ({change:+.1f}%),"
              f" spread {spread0:.3f} -> {spread1:.3f}")
    for workload, side in unmatched:
        print(f"{workload:16s} inputs differ: present only in {side} records; not compared")


if __name__ == "__main__":
    main()
