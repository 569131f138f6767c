"""Arithmetic and file helpers of the benchmark, kept free of process
handling so that perfbench/test_benchlib.py can check them on synthetic
inputs."""

import hashlib
import json
import os
import random
import statistics

# Span names are "<module>.<call>"; these module prefixes are the layers.
LAYERS = ("trace_io", "trace_stream", "trace", "transform", "journey",
          "frontier", "delay_cdf", "diameter_est", "pool")

# A round is sparse when it inserts fewer descriptors than this share of
# the trace's contacts. The fixpoint round (nothing inserted) always is.
SPARSE_SHARE = 0.01


def median(values):
    return statistics.median(values)


def spread(values):
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def pool_efficiency(total_s, total_2dom_s, domains=2):
    return total_s / (domains * total_2dom_s)


def unchanged_share(unchanged, calls):
    return unchanged / calls if calls else 0.0


def is_sparse(changed, n_contacts, fixpoint):
    return fixpoint or changed < SPARSE_SHARE * n_contacts


# --- spans ---

def load_spans(path):
    """Spans of a Chrome trace-event file written by replica.exe, as
    dicts with seconds t0/t1, id, parent and args."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = []
    for e in events:
        args = dict(e.get("args", {}))
        t0 = e["ts"] / 1e6
        spans.append({"name": e["name"], "id": args.pop("id"),
                      "parent": args.pop("parent"), "t0": t0,
                      "t1": t0 + e["dur"] / 1e6, "args": args})
    return spans


def children_of(spans):
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    for v in kids.values():
        v.sort(key=lambda s: s["t0"])
    return kids


def self_times(spans):
    """Per span name, the summed duration minus the time its direct
    children cover (children of one span never overlap)."""
    kids = children_of(spans)
    out = {}
    for s in spans:
        own = (s["t1"] - s["t0"]) - sum(c["t1"] - c["t0"]
                                        for c in kids.get(s["id"], []))
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out


def total_time(spans, name):
    return sum(s["t1"] - s["t0"] for s in spans if s["name"] == name)


def count(spans, name):
    return sum(1 for s in spans if s["name"] == name)


def root_of(spans):
    by_id = {s["id"]: s for s in spans}

    def root(s):
        while s["parent"] in by_id:
            s = by_id[s["parent"]]
        return s
    return root


def journey_rounds(spans):
    """One (changed, sweep seconds, fixpoint, n_contacts) row per round of
    every Journey.run span. A round's sweep is the time since the previous
    on_round callback returned (or since the run began); the fixpoint
    round, which has no callback, runs from the last return to the end."""
    kids = children_of(spans)
    root = root_of(spans)
    rows = []
    for j in spans:
        if j["name"] != "journey.run":
            continue
        n_contacts = root(j)["args"]["n_contacts"]
        mark = j["t0"]
        for c in kids.get(j["id"], []):
            rows.append((c["args"]["changed"], c["t0"] - mark, False, n_contacts))
            mark = c["t1"]
        rows.append((0, j["t1"] - mark, True, n_contacts))
    return rows


def sparse_sweep_s(rows):
    return sum(s for changed, s, fix, n in rows if is_sparse(changed, n, fix))


def layer_coverage(spans, root_name="solve"):
    """Share of the time of the root spans named root_name that the
    self times of layer spans below them account for."""
    root = root_of(spans)
    kids = children_of(spans)
    roots = [s for s in spans if s["name"] == root_name and s["parent"] == -1]
    total = sum(s["t1"] - s["t0"] for s in roots)
    ids = {s["id"] for s in roots}
    covered = 0.0
    for s in spans:
        if s["id"] in ids or root(s)["id"] not in ids:
            continue
        if s["name"].split(".")[0] in LAYERS:
            covered += (s["t1"] - s["t0"]) - sum(
                c["t1"] - c["t0"] for c in kids.get(s["id"], []))
    return covered / total if total else 0.0


# --- inputs ---

def permutation(seed, n, fixed=()):
    """A seeded relabelling of nodes 0..n-1 that keeps `fixed` in place."""
    perm = list(range(n))
    movable = [i for i in range(n) if i not in set(fixed)]
    shuffled = list(movable)
    random.Random(seed).shuffle(shuffled)
    for src, dst in zip(movable, shuffled):
        perm[src] = dst
    return perm


def relabel_text(text, perm):
    """Rename the endpoints of every contact line of an omn trace; header
    and comment lines, and the time fields, are left byte for byte."""
    out = []
    for line in text.splitlines(keepends=True):
        if line.startswith("#") or not line.strip():
            out.append(line)
            continue
        a, b, rest = line.split(" ", 2)
        out.append(f"{perm[int(a)]} {perm[int(b)]} {rest}")
    return "".join(out)


def relabel_file(path, perm):
    with open(path) as f:
        text = f.read()
    with open(path, "w") as f:
        f.write(relabel_text(text, perm))


def header_nodes(path):
    with open(path) as f:
        for line in f:
            if line.startswith("# nodes "):
                return int(line.split()[2])
    raise ValueError(f"{path}: no '# nodes' header")


def top_heap_words(stderr):
    """top_heap_words from an OCaml runtime's v=0x400 exit report."""
    for line in stderr.splitlines():
        if line.startswith("top_heap_words:"):
            return int(line.split(":")[1])
    return None


def strip_manifest(result):
    return {k: v for k, v in result.items() if k != "manifest"}


def source_digest(root, dirs):
    """SHA-256 over the relative paths and bytes of the files under dirs,
    in sorted order: a content identity for checkouts without git."""
    h = hashlib.sha256()
    for d in dirs:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, d)):
            dirnames[:] = sorted(x for x in dirnames if not x.startswith(("_", ".")))
            for name in sorted(filenames):
                p = os.path.join(dirpath, name)
                h.update(os.path.relpath(p, root).encode() + b"\0")
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


# --- comparing result records ---

def workload_key(record):
    """Records are comparable only when they ran the same workload on the
    same generated inputs."""
    return (record["workload"], record["trace"],
            json.dumps(record["inputs"], sort_keys=True))


def compare(old_records, new_records):
    """Per comparable group and metric, the median and the interquartile
    spread of each side. Groups present on one side only are listed as
    unmatched, so that a generator change is never read as a speed
    change."""
    def group(records):
        g = {}
        for r in records:
            g.setdefault(workload_key(r), []).append(r)
        return g
    old, new = group(old_records), group(new_records)
    rows, unmatched = [], []
    for key in sorted(set(old) | set(new)):
        if key not in old or key not in new:
            unmatched.append((key[0], "old" if key in old else "new"))
            continue
        for name in sorted(old[key][0]["metrics"]):
            sides = [[r["metrics"][name]["value"] for r in g[key]] for g in (old, new)]
            rows.append((key[0], name, *[(median(v), spread(v)) for v in sides]))
    return rows, unmatched
