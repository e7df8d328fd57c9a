"""Alternating A/B pairs of the benchmark: a parent commit against HEAD.

    python3 tools/ab_pairs.py --workload chain_scale --seed 21 --pairs 10
    python3 tools/ab_pairs.py --workload chain_scale --seed 21 --pairs 20 --setup-only

The parent (`--parent`, default HEAD~1) and HEAD are both checked out with
`git worktree` under one temporary directory, as sibling directories whose
names have the same length, so neither side runs from a longer or different
path.  Uncommitted changes under src/ or perfbench/ would not be measured, so
the tool refuses to run with any.  Each pair runs `perfbench/run.py` once on
each side, the parent first in even pairs and the change first in odd ones,
so a drift of the machine does not favour one side.  For every metric it
prints both medians, both quartiles and the number of pairs the change won
(by the direction in BENCHMARK.json), and the relative change of the
medians, in the direction that is worse.  A metric is flagged `worse` when
that change passes its BENCHMARK.json bound, and `unresolved` when the
parent's own spread (its quartile distance over its median) is wider than
the bound, unless every run of the change is better than every run of the
parent.  It prints the operations each side attempted and failed, and writes
every pair, with both commit hashes, to bench/BENCH_<workload>_seed<N>.json
(..._setup.json with --setup-only).
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True, check=True).stdout.strip()


def checkout_paths(tmp: Path) -> dict[str, Path]:
    """Where each side is checked out: siblings under `tmp`, names of one length."""
    return {"parent": tmp / "parent", "change": tmp / "change"}


def run_side(root: Path, args) -> dict:
    """One run of perfbench/run.py in the checkout `root`: its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--setup-only"] if args.setup_only else ["--seconds", str(args.seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if args.setup_only:
        return {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {"setup_s": {"value": result["setup_s"], "unit": "s"}}}
    return result


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(a: list[float], b: list[float], lower: bool, bound: float) -> tuple[float, str]:
    """(relative change of the medians, positive when worse; its flag) of the
    change's runs `b` against the parent's runs `a`."""
    pq1, pmed, pq3 = quartiles(a)
    worse = (statistics.median(b) - pmed) / pmed * (1 if lower else -1) if pmed else 0.0
    if worse > bound:
        return worse, "worse"
    all_better = max(b) < min(a) if lower else min(b) > max(a)
    if pmed and (pq3 - pq1) / abs(pmed) > bound and not all_better:
        return worse, "unresolved"
    return worse, "ok"


def summarize(pairs: list[dict], better: dict, bounds: dict) -> dict:
    """Per metric: medians, quartiles and wins of the change over the parent,
    the relative change of the medians (positive when worse) and its flag."""
    out = {}
    for name in pairs[0]["parent"]["metrics"]:
        a = [p["parent"]["metrics"][name]["value"] for p in pairs]
        b = [p["change"]["metrics"][name]["value"] for p in pairs]
        lower = better.get(name, "lower") == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(a), quartiles(b)
        worse, flag = verdict(a, b, lower, bounds[name])
        out[name] = {"better": "lower" if lower else "higher", "wins": wins, "pairs": len(pairs),
                     "parent": {"median": pmed, "q1": pq1, "q3": pq3},
                     "change": {"median": cmed, "q1": cq1, "q3": cq3},
                     "worse_by": worse, "bound": bounds[name], "flag": flag}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--parent", default="HEAD~1", help="the commit to compare with")
    p.add_argument("--setup-only", action="store_true", help="time setups only (run.py --setup-only)")
    p.add_argument("--out", type=Path, help="where to write the pairs (default under bench/)")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if git("status", "--porcelain", "--", "src", "perfbench"):
        p.exit(2, "ab_pairs: src/ or perfbench/ has uncommitted changes, which would not be measured; "
                  "commit or stash them first\n")
    commits = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", "HEAD")}
    tmp = Path(tempfile.mkdtemp(prefix="ab_pairs_"))
    sides = checkout_paths(tmp)

    pairs = []
    try:
        for side, root in sides.items():
            git("worktree", "add", "--detach", str(root), commits[side])
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_side(sides[side], args)
            pairs.append(pair)
            metric = "setup_s" if args.setup_only else "estimates_per_s"
            line = "  ".join(f"{side} {pair[side]['metrics'][metric]['value']:.6g}" for side in ("parent", "change"))
            print(f"pair {i + 1}/{args.pairs} ({order[0]} first): {metric} {line}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        git("worktree", "prune")

    summary = summarize(pairs, better, bounds)
    print(f"{'metric':20s} {'parent median [q1, q3]':40s} {'change median [q1, q3]':40s} wins   worse by")
    for name, row in summary.items():
        cell = lambda s: f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"
        print(f"{name:20s} {cell(row['parent']):40s} {cell(row['change']):40s} {row['wins']:2d}/{row['pairs']:<3d}"
              f"{row['worse_by']:+.1%} (bound {row['bound']:.0%}) {row['flag']}")
    for side in ("parent", "change"):
        attempted = sum(pr[side]["attempted"] for pr in pairs)
        failed = sum(pr[side]["failed"] for pr in pairs)
        print(f"{side}: {attempted} operations attempted, {failed} failed")
    bad = [(side, i) for i, pr in enumerate(pairs) for side in ("parent", "change")
           if not pr[side]["correct"]]
    if bad:
        print(f"runs reporting correct: false: {bad}")

    suffix = "_setup" if args.setup_only else ""
    out = args.out or ROOT / "bench" / f"BENCH_{args.workload}_seed{args.seed}{suffix}.json"
    out.parent.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": None if args.setup_only else args.seconds,
        "setup_only": args.setup_only,
        "parent": commits["parent"], "change": commits["change"],
        "command": "python3 perfbench/run.py", "summary": summary, "pairs": pairs,
    }
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"pairs written to {out.relative_to(ROOT) if out.is_relative_to(ROOT) else out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
