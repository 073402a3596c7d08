"""Compare the two sets of runs `repeat.sh` made; print REPEATABILITY.md."""

import json
import statistics
import sys

# Counts that are a pure function of the seed (marked # in README.md).
EXACT = [
    "graph.csr_bytes_per_edge",
    "local.push_work_per_q",
    "local.pushes_per_q",
    "local.touched_per_q",
    "local.push_support_per_q",
    "local.splice_support_per_q",
    "local.splice_mass_ratio",
    "local.sketch_mb",
    "local.repair_pushes_per_delta",
    "serve.full_share",
    "serve.cached_share",
    "serve.spliced_share",
    "serve.answers_repaired_per_delta",
    "serve.answers_dropped_per_delta",
    "serve.trace_events_per_req",
    "serve.diag_events_per_resp",
    "mem.allocs_per_req",
    "mem.alloc_kb_per_req",
    "mem.allocs_per_push",
    "linalg.spmv_bytes_per_nnz",
    "linalg.lanczos_matvecs",
    "partition.ncp_local_runs",
    "flow.mqi_calls",
]


def load(path):
    with open(path) as f:
        return json.load(f)


def main():
    bench = load(sys.argv[1])
    out = sys.argv[2]
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = [44061, 44062, 44063]
    bad = 0
    print("# Repeatability")
    print()
    print("Written by `benchmark/repeat.sh`: two sets of three `e2e` runs of every")
    print("workload on one commit (the same three seeds in both sets), and two")
    print("`traced` runs at the first seed. `worse by` is how much worse the second")
    print("set's median reads than the first's, as a share of the first; it must not")
    print("exceed the metric's bound. No gain is claimed: both sets are the same code.")
    print()
    print("## End-to-end medians")
    print()
    print("| workload | metric | unit | set 1 | set 2 | worse by | bound | ok |")
    print("|---|---|---|---:|---:|---:|---:|---|")
    for w in workloads:
        runs = {
            s: [load(f"{out}/e2e.{s}.{w}.{seed}.json") for seed in seeds] for s in (1, 2)
        }
        for s in (1, 2):
            for r in runs[s]:
                if not r["correct"] or r["failed"]:
                    bad += 1
        for m in bench["end_to_end"]:
            name = m["name"]
            med = {
                s: statistics.median(r["metrics"][name]["value"] for r in runs[s])
                for s in (1, 2)
            }
            delta = (med[2] - med[1]) / med[1]
            worse = delta if m["better"] == "lower" else -delta
            ok = worse <= m["bound"]
            bad += not ok
            print(
                f"| {w} | {name} | {m['unit']} | {med[1]:.6g} | {med[2]:.6g} "
                f"| {worse:+.3f} | {m['bound']} | {'yes' if ok else 'NO'} |"
            )
    print()
    print("## Counts that must repeat exactly")
    print()
    print("| workload | metric | run 1 | run 2 | equal |")
    print("|---|---|---:|---:|---|")
    for w in workloads:
        a = load(f"{out}/traced.1.{w}.json")
        b = load(f"{out}/traced.2.{w}.json")
        for r in (a, b):
            if not r["correct"] or r["failed"]:
                bad += 1
        for name in EXACT:
            x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
            if x == 0 and y == 0:
                continue
            bad += x != y
            print(f"| {w} | {name} | {x!r} | {y!r} | {'yes' if x == y else 'NO'} |")
    print()
    if bad:
        print(f"Result: {bad} disagreement(s) or failed run(s).")
    else:
        print("Result: every median within its bound, every count identical, every run correct.")


main()
