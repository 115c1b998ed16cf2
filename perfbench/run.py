"""Benchmark of the intpoints command line: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload, each in a fresh single-threaded interpreter
(child.py), one after another (a closed loop with one client), until the next
pass would end after S seconds; at least MIN_PASSES run.  With --trace 0
every pass is untraced, and the gated times are read at one reference host
speed (speed.py): set-up against bursts of probes just before the child
starts and just after it has set up, the ops against probes that run between
them.  They are medians: over passes, and over SETUPS set-ups, the passes'
and those of children that stop after setting up, spread over the run.  With
--trace 1 untraced and traced passes alternate, and the per-layer metrics
come from the traced ones.  Every op's output is checked in every pass.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it print the same metrics, and those
that are not gated, for a reader.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed
import tracing
from workloads import ROOT, UNSEEDED, WORKLOADS

CHILD = Path(__file__).resolve().parent / "child.py"
MIN_PASSES = 3
SETUPS = 15
# A run must end within 180 s, even when a pass is much slower than usual.
HARD_LIMIT_S = 170
# op latency percentiles need this many ops in one pass, so that at least
# ten samples lie beyond the percentile
P50_MIN_OPS = 20
P90_MIN_OPS = 100


class PassFailed(Exception):
    pass


def run_child(workload: str, seed: int, mode: str, workdir: Path, index: int, timeout: float) -> dict:
    """One child.py in MODE (run, trace or setup), with the times the parent measures."""
    result = workdir / f"child{index}.json"
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(CHILD), workload, str(seed), mode, str(workdir), str(result)]
    host_probe_s = speed.burst()
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    spawn = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"child {index} ({mode}) still running after {timeout:.0f} s") from None
    ended = time.monotonic()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0 or not result.is_file():
        raise PassFailed(f"child {index} ({mode}) exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    p = json.loads(result.read_text())
    result.unlink()
    p["traced"] = mode == "trace"
    p["setup_s"] = p["setup_end"] - spawn
    probe_s = statistics.median(host_probe_s + p["setup_probe_s"])
    p["setup_ref_s"] = p["setup_s"] * speed.REFERENCE_PROBE_S / probe_s
    p["lifetime_s"] = ended - spawn
    p["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return p


def run_passes(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[list[dict], list[dict]]:
    """The passes of a run, and with --trace 0 the set-ups: the untraced
    passes, topped up by set-up-only children so that they reach SETUPS,
    spread evenly over the run."""
    passes: list[dict] = []
    setups: list[dict] = []
    fewest = 2 if trace else 1  # a traced run needs an untraced pass to compare
    began = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        timeout = HARD_LIMIT_S - (time.monotonic() - began)
        index = len(passes) + len(setups)
        p = run_child(workload, seed, "trace" if traced else "run", workdir, index, timeout)
        passes.append(p)
        if not trace:
            setups.append(p)
            while len(setups) < SETUPS * min(1.0, (time.monotonic() - began) / seconds):
                timeout = HARD_LIMIT_S - (time.monotonic() - began)
                index = len(passes) + len(setups)
                setups.append(run_child(workload, seed, "setup", workdir, index, timeout))
        elapsed = time.monotonic() - began
        next_end = elapsed + statistics.median(p["lifetime_s"] for p in passes)
        if next_end > seconds and (len(passes) >= MIN_PASSES or (next_end > HARD_LIMIT_S and len(passes) >= fewest)):
            return passes, setups


def _line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<32} {value:>14.6g} {unit:<6} {note}".rstrip()


def end_to_end(untraced: list[dict], setups: list[dict]) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Gated metrics (medians over untraced passes) and report lines for them,
    for the same times as the clock read them, and for the op latency
    percentiles, which only some workloads have."""
    n = len(untraced)
    metrics = {
        "setup_s": (statistics.median(p["setup_ref_s"] for p in setups), "s"),
        "wall_ref_s": (statistics.median(p["wall_ref_s"] for p in untraced), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in untraced) / 1024, "MB"),
    }
    notes = {"setup_s": f"median of {len(setups)} set-ups"}
    lines = [_line(name, v, unit, notes.get(name, f"median of {n} passes")) for name, (v, unit) in metrics.items()]
    for name, key, sample in (("setup_clock_s", "setup_s", setups), ("wall_s", "wall_s", untraced)):
        lines.append(_line(name, statistics.median(p[key] for p in sample), "s", "as the clock read it; not gated"))
    ops_per_pass = len(untraced[0]["op_s"])
    latencies = [1000 * t for p in untraced for t in p["op_s"]]
    if ops_per_pass >= P50_MIN_OPS:
        lines.append(_line("op_p50_ms", statistics.median(latencies), "ms", f"{len(latencies)} samples"))
    else:
        lines.append(f"  op_p50_ms: not reported, {ops_per_pass} ops per pass < {P50_MIN_OPS}")
    if ops_per_pass >= P90_MIN_OPS:
        p90 = statistics.quantiles(latencies, n=10)[-1]
        lines.append(_line("op_p90_ms", p90, "ms", f"{len(latencies)} samples"))
    else:
        lines.append(f"  op_p90_ms: not reported, {ops_per_pass} ops per pass < {P90_MIN_OPS}")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "intpoints" / "__init__.py").is_file():
        print(f"error: no intpoints source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        passes, setups = run_passes(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(len(p["op_s"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    seed_note = "seed ignored: inputs fixed by the paper" if args.workload in UNSEEDED else f"seed {args.seed}"
    print(f"workload {args.workload} ({seed_note}): {len(untraced)} untraced, {len(traced)} traced passes,"
          f" {len(untraced[0]['op_s'])} ops per pass")
    for f in failures[:10]:
        print(f"  FAILED op {f['op']} ({f['argv']}): {'; '.join(f['errors'])}")

    if args.trace:
        metrics, missing = tracing.layer_metrics(traced, untraced)
        units = {name: unit for name, (unit, _, _) in tracing.LAYER_METRICS.items()}
        out = {name: (value, units[name]) for name, value in metrics.items()}
        for name, (value, unit) in out.items():
            print(_line(name, value, unit))
        gone = {key for p in traced for key in p["missing"]}
        for name in missing:
            needs = [key for key in tracing.LAYER_METRICS[name][2] if key in gone]
            print(f"  {name}: MISSING (wrap target not found: {', '.join(needs)})")
    else:
        out, lines = end_to_end(untraced, setups)
        print("\n".join(lines))
    print(_line("fail_ratio", len(failures) / attempted, "1", f"{len(failures)} of {attempted} ops"))

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
