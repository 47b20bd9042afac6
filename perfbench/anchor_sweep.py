"""Seed sweep that froze QUAD_ANCHOR_TOLERANCE for quad-sde-ensemble.

Runs the quad-sde-ensemble workload once per bench seed, through the same
child process and bounds.csv reader as the benchmark, and records each
terminal core's relative deviation from its analytic anchor.

    OPENBLAS_NUM_THREADS=1 python3 perfbench/anchor_sweep.py --seeds 0-39 \
        > perfbench/anchor_sweep.json
    OPENBLAS_NUM_THREADS=1 python3 perfbench/anchor_sweep.py --seeds 0-39 \
        --steps 600 > perfbench/anchor_sweep_steps600.json

Run from the root of a checkout. ``--steps`` changes the run length (burn-in
stays half of it, as in the workload and in criterion 8); the 600-step sweep
is the evidence that the workload's 300 steps do not shift the cores. The
recorded 300-step file is the evidence for the tolerance in workloads.py;
rerunning it must not be used to widen it.
"""

import argparse
import json
import math
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import Runner  # noqa: E402
from workloads import BOUND_REPORTS, QUAD_ANCHORS, make_config, read_bounds  # noqa: E402


def _seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def summarize(rows, steps):
    """The sweep with each core's deviation statistics and the tolerance rule.

    The tolerance is the widest of mean +- 4.5 sd over both cores, rounded up
    to 0.05: under a normal fit a correct program then fails the check about
    once in 10^5 runs per core.
    """
    stats = {}
    for name in QUAD_ANCHORS:
        devs = [r[f"{name}.rel_dev"] for r in rows]
        mean, sd = statistics.mean(devs), statistics.stdev(devs)
        stats[name] = {"mean": mean, "sd": sd, "sem": sd / math.sqrt(len(devs)),
                       "min": min(devs), "max": max(devs)}
    widest = max(abs(s["mean"]) + 4.5 * s["sd"] for s in stats.values())
    return {"anchors": QUAD_ANCHORS, "grid": "16 dataset x 4 run seeds",
            "steps": steps, "rel_dev": stats,
            "tolerance": round(math.ceil(widest / 0.05) * 0.05, 2), "runs": rows}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seed_range, default=_seed_range("0-39"))
    parser.add_argument("--steps", type=int, default=300)
    args = parser.parse_args()
    work = ROOT / ".perfbench_runs" / "anchor-sweep"
    rows = []
    for seed in args.seeds:
        command, config = make_config("quad-sde-ensemble", seed)
        config["train"].update(steps=args.steps, burn_in=args.steps // 2)
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config))
        runner = Runner(ROOT, work, command, config_path,
                        time.clock_gettime(time.CLOCK_MONOTONIC))
        record = runner.child(work / "out")
        if record["exit_code"] != 0:
            sys.exit(f"seed {seed}: exit code {record['exit_code']}")
        _, by_name = read_bounds(work / "out")
        row = {"seed": seed}
        for name, anchor in QUAD_ANCHORS.items():
            core = float(by_name[BOUND_REPORTS[name][0]]["core"])
            row[name] = core
            row[f"{name}.rel_dev"] = core / anchor - 1.0
        rows.append(row)
        print(json.dumps(row), file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    json.dump(summarize(rows, args.steps), sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
