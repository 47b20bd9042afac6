"""Repo benchmark: fresh-process CLI workloads with output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (it needs ``src/gradnoise`` and
``BENCHMARK.json``). It writes the workload's config, derived from
``--seed``, into ``.perfbench_runs/<workload>-seed<N>-<pid>/`` and then, one
fresh process at a time (``perfbench/child.py``):

1. invokes ``gradnoise.harness.run_cli`` with ``--config/--out --jobs 1``
   until ``--seconds`` have passed, at least once, checking each
   invocation's outputs and recording the sha256 of every output file;
2. times pairs of start-ups, PAIRS_BEFORE_INVOCATION before each
   invocation and more after the last until there are SAMPLES: the
   reference (``Runner.reference``) and a set-up alone (start, import
   ``gradnoise``, validate the config, exit). The invocations' own set-up
   times count as set-up samples too.

``--jobs`` is pinned to 1: the thread pool the CLI uses by default was
slower than serial on quad-sde-ensemble and used 30-40% more CPU (see
README.md); a parallel runner gets its own workload.

With ``--trace 0`` the end-to-end metrics are medians over the invocations,
wall and CPU time divided by ``ref_s``, the median reference start-up;
``setup_s`` is the median set-up sample, and ``setup_ref`` the same divided
by ``ref_s``; ``success_ratio`` is 1 - failed/attempted operations. With
``--trace 1`` the first invocation runs under ``tracer.py`` and the rest
untraced; the per-layer metrics come from the traced one, and
``trace.overhead_s`` is its wall time minus the untraced median; the spans
stay in ``spans.npz`` next to ``result.json``.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics listed in BENCHMARK.json, each with its unit.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, check_outputs, make_config  # noqa: E402

# Start-ups jitter by +-20% from one to the next (the machine's speed
# changes within a second), so a run needs many of them for steady medians.
SAMPLES = 12
PAIRS_BEFORE_INVOCATION = 3
# A run must end within 180 s; no child may outlive this deadline.
DEADLINE_S = 170.0


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _git_commit(root):
    """HEAD of the checkout if it is a git work tree, else None."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        ).stdout.strip() or None
    except OSError:
        return None


class Runner:
    """Starts the child processes of one benchmark run, one at a time."""

    def __init__(self, root, work, command, config_path, started):
        self.root = root
        self.work = work
        self.command = command
        self.config_path = config_path
        self.deadline = started + DEADLINE_S
        self.count = 0

    def reference(self):
        """Start-up seconds of a fresh interpreter importing numpy and scipy.

        This is what every invocation's set-up pays minus ``gradnoise``
        itself, timed the same way, so no change to the package moves it,
        while it speeds up and slows down with the machine as the workloads
        do.
        """
        return self.child(self.work / "reference", reference=True)["setup_s"]

    def child(self, out, setup_only=False, reference=False, spans=None):
        self.count += 1
        result = self.work / f"child{self.count}.json"
        log = self.work / f"child{self.count}.stderr"
        argv = [sys.executable, str(HERE / "child.py"), str(result), "",
                str(self.root / "src"), self.command, str(self.config_path),
                str(out)]
        if setup_only:
            argv.append("--setup-only")
        if reference:
            argv.append("--reference")
        if spans:
            argv += ["--trace", str(spans)]
        with open(log, "w") as err:
            argv[3] = repr(_now())
            proc = subprocess.run(argv, stdout=err, stderr=err, cwd=self.root,
                                  timeout=max(self.deadline - _now(), 1.0))
        if proc.returncode != 0 or not result.is_file():
            raise RuntimeError(f"child exited {proc.returncode}; see {log}:\n"
                               + log.read_text()[-2000:])
        return json.loads(result.read_text())


def _invoke(runner, workload, command, config, index, spans=None):
    out = runner.work / f"out{index}"
    record = runner.child(out, spans=spans)
    attempted, failed, messages = check_outputs(
        workload, command, config, out, record["exit_code"])
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    record.update(attempted=attempted, failed=failed, messages=messages,
                  output_bytes=sum(p.stat().st_size for p in files),
                  sha256={str(p.relative_to(out)): _sha256(p) for p in files})
    shutil.rmtree(out, ignore_errors=True)
    return record


def _metric_specs(root, trace):
    bench = json.loads((root / "BENCHMARK.json").read_text())
    return bench["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description="gradnoise repo benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = _now()

    root = Path.cwd()
    if not (root / "src" / "gradnoise" / "harness.py").is_file():
        print(f"no gradnoise sources under {root / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    specs = _metric_specs(root, args.trace)
    sys.path.insert(0, str(root / "src"))
    command, config = make_config(args.workload, args.seed)

    work = root / ".perfbench_runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=1, sort_keys=True) + "\n")
    runner = Runner(root, work, command, config_path, started)

    invocations = []
    traced = None
    t0 = _now()
    if args.trace:
        spans = work / "spans.npz"
        traced = _invoke(runner, args.workload, command, config, 0, spans=spans)
    refs, setups = [], []

    def sample_pair():
        refs.append(runner.reference())
        setups.append(runner.child(work / "setup-only", setup_only=True))

    while not invocations or _now() - t0 < args.seconds:
        for _ in range(PAIRS_BEFORE_INVOCATION):
            sample_pair()
        invocations.append(_invoke(runner, args.workload, command, config,
                                   len(invocations) + 1))
    while len(refs) < SAMPLES:
        sample_pair()
    environment = dict(setups[0]["environment"], git_commit=_git_commit(root),
                       config_sha256=_sha256(config_path),
                       blas_threads_env={k: os.environ.get(k) for k in (
                           "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")})

    checked = invocations + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    for r in checked:
        for message in r["messages"]:
            print(f"check failed: {message}", file=sys.stderr)
    digests = [r["sha256"] for r in checked]
    identical = all(d == digests[0] for d in digests)
    history_path = root / ".perfbench_runs" / "digests.json"
    history = json.loads(history_path.read_text()) if history_path.is_file() else {}
    key = f"{args.workload}/seed{args.seed}"
    identical_across_runs = history.setdefault(key, digests[0]) == digests[0]
    history_path.write_text(json.dumps(history, indent=1, sort_keys=True) + "\n")

    if args.trace:
        from tracer import summarize

        values = summarize(spans)
        values["harness.output_bytes"] = traced["output_bytes"]
        values["trace.overhead_s"] = traced["wall_s"] - statistics.median(
            r["wall_s"] for r in invocations)
    else:
        ref_s = statistics.median(refs)
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in invocations),
            "cpu_s": statistics.median(r["cpu_s"] for r in invocations),
            "ref_s": ref_s,
            "setup_s": statistics.median(r["setup_s"] for r in setups + invocations),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in invocations),
            "success_ratio": 1.0 - failed / attempted,
        }
        values["wall_ref"] = values["wall_s"] / ref_s
        values["cpu_ref"] = values["cpu_s"] / ref_s
        values["setup_ref"] = values["setup_s"] / ref_s
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
               for s in specs}

    (work / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "command": command,
        "environment": environment,
        "setup_samples": [r["setup_s"] for r in setups + invocations],
        "reference_samples": refs, "values": values,
        "invocations": invocations, "traced": traced,
        "outputs_identical_within_run": identical,
        "outputs_identical_across_runs": identical_across_runs,
        "metrics": metrics,
    }, indent=1, sort_keys=True) + "\n")
    print(f"{args.workload} seed {args.seed}: {len(invocations)} invocation(s), "
          f"{len(setups) + len(invocations)} set-up samples; "
          f"env {json.dumps(environment)}")
    print(f"outputs byte-identical within run: {identical}; with earlier runs "
          f"of this seed: {identical_across_runs}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print("  raw seconds (recorded, not gated): " + ", ".join(
            f"{k} = {values[k]:.6g}" for k in ("wall_s", "cpu_s", "ref_s")))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
