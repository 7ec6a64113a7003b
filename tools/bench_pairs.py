"""Paired benchmark runs of a base commit against the working tree.

Usage:
    python3 tools/bench_pairs.py BASE OUT [--pairs N] [--seconds S]
                                 [--seed K] [--workload NAME ...]

BASE is a commit of this repository and OUT the JSON file to write.  The
committed files of BASE are exported (git archive) into a temporary
directory, and `python3 perfbench/run.py --workload W --seed K --seconds S
--trace 0` runs there ("parent") and in the working tree ("change"),
alternately: pair 0 runs the parent first, pair 1 the change, and so on,
so that neither side always runs on the warmer host.  N pairs run per
workload (default 10), the workloads of BENCHMARK.json by default.

For each workload and end-to-end metric of BENCHMARK.json, the printout
gives both sides' medians, the ratio change / parent of the medians, the
pairs out of N in which the change was better (by the metric's "better"
direction), the exact two-sided sign-test p-value of those wins, and
whether the change's median lies beyond the parent's interquartile range
on the better side.  OUT holds that summary, every
run's result (the last line of run.py's output, with its pair and which
side ran first) and the environment each side reported.  Standard
library only; nothing under perfbench/ is changed.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def export(commit: str, dest: Path) -> None:
    """Write the files of commit, as committed, under dest."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in tree: the result line as a dict, with the
    environment line's content under "environment"."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record = {"correct": False, "metrics": {},
                  "error": proc.stderr.strip()[-2000:]}
    record["exit_code"] = proc.returncode
    for line in lines:
        if line.startswith("environment "):
            record["environment"] = json.loads(line[len("environment "):])
    return record


def sign_test(wins: int, losses: int) -> float:
    """The exact two-sided sign-test p-value of wins against losses, ties
    left out: twice the binomial(n, 1/2) tail at the smaller count, at
    most 1.  10 wins of 10 give 2 / 2^10 = 0.00195."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def summarize(runs: dict, metrics: list[dict]) -> dict:
    """runs maps a workload to {"parent": [...], "change": [...]}, the
    i-th record of each side from pair i; metrics are BENCHMARK.json's
    end-to-end entries.  Returns, per workload and metric present on
    both sides: each side's median, the parent's quartiles, the ratio of
    the medians, the pairs in which the change was better, the sign-test
    p-value of those wins against the pairs in which it was worse, and
    whether its median lies beyond the parent's interquartile range on
    the better side."""
    out = {}
    for workload, sides in runs.items():
        out[workload] = {}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            pairs = [(p["metrics"][name]["value"],
                      c["metrics"][name]["value"])
                     for p, c in zip(sides["parent"], sides["change"])
                     if name in p.get("metrics", {})
                     and name in c.get("metrics", {})]
            if not pairs:
                continue
            parent = [p for p, _ in pairs]
            change = [c for _, c in pairs]
            mp, mc = statistics.median(parent), statistics.median(change)
            q1, _, q3 = (statistics.quantiles(parent, n=4)
                         if len(parent) > 1 else (mp, mp, mp))
            wins = sum((c < p) if lower else (c > p) for p, c in pairs)
            losses = sum((c > p) if lower else (c < p) for p, c in pairs)
            beyond = (mc < mp - (q3 - q1)) if lower else (mc > mp + (q3 - q1))
            out[workload][name] = {
                "unit": metric["unit"], "better": metric["better"],
                "parent_median": mp, "change_median": mc,
                "parent_quartiles": [q1, q3],
                "ratio": mc / mp if mp else None,
                "wins": wins, "pairs": len(pairs),
                "sign_p": sign_test(wins, losses),
                "beyond_parent_iqr": beyond,
            }
    return out


def main(argv: list[str]) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("out", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", args.base],
        check=True, capture_output=True, text=True).stdout.strip()
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    environment = {}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        export(commit, trees["parent"])
        for workload in workloads:
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    record = run_once(trees[side], workload, args.seed,
                                      args.seconds)
                    environment.setdefault(side,
                                           record.pop("environment", None))
                    record.update(pair=pair, first=order[0])
                    runs[workload][side].append(record)
                    value = record.get("metrics", {}).get("solution_s", {})
                    print(f"{workload} pair {pair} {side}: solution_s "
                          f"{value.get('value')}", flush=True)
    summary = summarize(runs, bench["end_to_end"])
    args.out.write_text(json.dumps({
        "about": (f"python3 tools/bench_pairs.py {args.base} "
                  f"{args.out.name} --pairs {args.pairs} --seconds "
                  f"{args.seconds:g} --seed {args.seed}: parent {commit} "
                  "against the working tree, alternating which side runs "
                  "first"),
        "environment": environment, "summary": summary, "runs": runs,
    }, indent=1) + "\n")
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            ratio = "n/a" if s["ratio"] is None else f"{s['ratio']:.4f}"
            print(f"{workload:<14} {name:<12} parent {s['parent_median']:.6g}"
                  f" change {s['change_median']:.6g} ratio {ratio} better in"
                  f" {s['wins']} of {s['pairs']} (sign-test p"
                  f" {s['sign_p']:.3g})"
                  f"{' beyond parent IQR' if s['beyond_parent_iqr'] else ''}")
    failed = any(not r.get("correct", False) for sides in runs.values()
                 for side in sides.values() for r in side)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
