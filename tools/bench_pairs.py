#!/usr/bin/env python3
"""Alternating perfbench pairs of two commits, written to BENCH_<parent>.json.

    python3 tools/bench_pairs.py PARENT CHANGE [--seeds 0-9]
        [--workloads osc-sparse,glyco-long,osc-penalty] [--out DIR]

Run it inside a git checkout of the project.  Each commit is checked out
into its own `git worktree` under one temporary directory, removed at the
end.  For every workload and seed s both commits run

    python3 perfbench/run.py --workload W --seed s --seconds 40 --trace 0

in their own worktree: the parent first for even s, the change first for
odd s, so a slow stretch of a shared host falls on both sides alike.  The
file holds, per workload and side, each run's end-to-end metrics, its
correct flag, failed operations and set-up CPU repeats (setup_cpu_s, of
which setup_s is the median); per metric the median and quartiles of each
side, the number of pairs in which the change is lower, and a verdict
("claim met", "regression" or "neither", by verdict() against the bounds
in the checkout's BENCHMARK.json, which it only reads); the joint
recoveries per method; and whether the last round's report.json,
tables.csv and ltp.csv are byte-identical in each pair.  For a pair whose
files differ it also names the report.json records, by (method, run), that
changed, with whether their term sets or joint_success changed, and the
methods of the tables.csv and ltp.csv rows that changed.  perfbench/ is
run as it is in each commit, not modified.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

WORKLOADS = ("osc-sparse", "glyco-long", "osc-penalty")
COMMAND = ("python3 perfbench/run.py --workload {W} --seed {S} --seconds 40 "
           "--trace 0")
REPORT_FILES = ("report.json", "tables.csv", "ltp.csv")
SIDES = ("parent", "change")
# Per-run records kept beside the metrics but not summarised; setup_cpu_s
# holds each run's set-up repeats, so a set-up claim shows their spread.
PER_RUN = ("seeds", "failed", "correct", "setup_cpu_s")


def git(cwd, *args):
    return subprocess.run(["git", *args], cwd=cwd, check=True, text=True,
                          capture_output=True).stdout.strip()


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_perfbench(tree, workload, seed):
    """(stdout result, result file, report bytes) of one run in tree."""
    cmd = COMMAND.format(W=workload, S=seed).split()
    proc = subprocess.run(cmd, cwd=tree, text=True, capture_output=True)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {tree} exited "
                 f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    tag = f"{workload}-seed{seed}-trace0"
    out = os.path.join(tree, "perfbench", "out")
    with open(os.path.join(out, f"result-{tag}.json")) as fh:
        details = json.load(fh)
    outputs = {}
    for name in REPORT_FILES:
        with open(os.path.join(out, "report", tag, name), "rb") as fh:
            outputs[name] = fh.read()
    return json.loads(proc.stdout.strip().splitlines()[-1]), details, outputs


def report_changes(parent, change):
    """Which records and CSV rows differ between two sides' report files."""
    old, new = ({(r["method"], r["run"]): r for r in
                 json.loads(side["report.json"])["records"]}
                for side in (parent, change))
    out = {"records": []}
    for m, k in sorted(old.keys() | new.keys()):
        a, b = old.get((m, k), {}), new.get((m, k), {})
        if a != b:
            out["records"].append({
                "method": m, "run": k,
                "term_sets_changed": a.get("term_sets") != b.get("term_sets"),
                "joint_success_changed":
                    a.get("joint_success") != b.get("joint_success")})
    for name in REPORT_FILES[1:]:
        rows = [set(side[name].decode().splitlines())
                for side in (parent, change)]
        out[name] = sorted({row.split(",")[0] for row in rows[0] ^ rows[1]
                            if not row.startswith("#")})
    return out


def verdict(entry, spec):
    """"claim met", "regression" or "neither" for one metric's summary.

    spec is the metric's end_to_end entry in BENCHMARK.json (None if it has
    none): "better" says which way is better ("lower" without a spec), and
    "bound" is the fraction of the parent's median by which the change's
    median may be worse.  A claim is met when the change is better in at
    least 9 of every 10 pairs and its median beats the parent's by more than
    the parent's quartile spread; a regression is a median worse than the
    bound allows (never, without a bound).
    """
    sign = -1.0 if spec and spec.get("better") == "higher" else 1.0
    parent, change = entry["parent"], entry["change"]
    gain = sign * (parent["median"] - change["median"])
    better = (entry["change_lower_pairs"] if sign > 0
              else entry["pairs"] - entry["change_lower_pairs"]
              - entry["equal_pairs"])
    spread = parent["quartiles"][1] - parent["quartiles"][0]
    if 10 * better >= 9 * entry["pairs"] and gain > spread:
        return "claim met"
    if spec and "bound" in spec and -gain > spec["bound"] * abs(
            parent["median"]):
        return "regression"
    return "neither"


def summary(runs, metrics, specs):
    """Median, quartiles, change-lower pair count and verdict per metric;
    specs maps a metric to its BENCHMARK.json end_to_end entry."""
    out = {}
    for k in metrics:
        entry = {}
        for side in SIDES:
            v = runs[side][k]
            q = statistics.quantiles(v, n=4, method="inclusive") \
                if len(v) > 1 else [v[0]] * 3
            entry[side] = {"median": statistics.median(v),
                           "quartiles": [q[0], q[2]]}
        pairs = list(zip(runs["parent"][k], runs["change"][k]))
        entry["change_lower_pairs"] = sum(c < p for p, c in pairs)
        entry["equal_pairs"] = sum(c == p for p, c in pairs)
        entry["pairs"] = len(pairs)
        entry["verdict"] = verdict(entry, specs.get(k))
        out[k] = entry
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,2,5-7")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--out", default=".", help="directory for the file")
    args = ap.parse_args(argv)
    top = git(".", "rev-parse", "--show-toplevel")
    shas = {s: git(top, "rev-parse", getattr(args, s)) for s in SIDES}
    short = {s: git(top, "rev-parse", "--short", shas[s]) for s in SIDES}
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")
    with open(os.path.join(top, "BENCHMARK.json")) as fh:
        specs = {m["name"]: m for m in json.load(fh)["end_to_end"]}

    record = {
        "parent": short["parent"],
        "change": git(top, "log", "-1", "--format=%s", shas["change"]),
        "change_commit": short["change"],
        "command": COMMAND.format(W="W", S="S"),
        "order": "even seeds parent first, odd seeds change first",
        "machine": None, "source": {}, "pairs": {}, "summary": {},
        "joint_success": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {s: os.path.join(tmp, s) for s in SIDES}
        try:
            for s in SIDES:
                git(top, "worktree", "add", "--detach", trees[s], shas[s])
            for w in workloads:
                runs = {s: {k: [] for k in PER_RUN} for s in SIDES}
                joint = {s: {} for s in SIDES}
                identical, changes = [], []
                for seed in seeds:
                    order = SIDES if seed % 2 == 0 else SIDES[::-1]
                    outputs = {}
                    for s in order:
                        result, details, outputs[s] = run_perfbench(
                            trees[s], w, seed)
                        r = runs[s]
                        r["seeds"].append(seed)
                        r["failed"].append(result["failed"])
                        r["correct"].append(result["correct"])
                        r["setup_cpu_s"].append(details["setup_cpu_s"])
                        for k, m in result["metrics"].items():
                            r.setdefault(k, []).append(m["value"])
                        for q in details["quality"]:
                            for m, ok in q["joint_success"].items():
                                joint[s][m] = joint[s].get(m, 0) + int(ok)
                        machine = dict(details["machine"])
                        record["source"][s] = {
                            "git_commit": machine.pop("git_commit"),
                            "source_sha256": machine.pop("source_sha256")}
                        record["machine"] = record["machine"] or machine
                        print(f"{w} seed {seed} {s}: "
                              + json.dumps(result["metrics"]),
                              file=sys.stderr, flush=True)
                    same = outputs["parent"] == outputs["change"]
                    identical.append(same)
                    changes.append(None if same else report_changes(
                        outputs["parent"], outputs["change"]))
                metrics = [k for k in runs["parent"] if k not in PER_RUN]
                record["pairs"][w] = dict(runs, outputs_identical=identical,
                                          outputs_changed=changes)
                record["summary"][w] = summary(runs, metrics, specs)
                record["joint_success"][w] = joint
        finally:
            for s in SIDES:
                if os.path.isdir(trees[s]):
                    git(top, "worktree", "remove", "--force", trees[s])
            git(top, "worktree", "prune")
    path = os.path.join(args.out, f"BENCH_{short['parent']}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
