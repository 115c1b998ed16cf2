"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED MODE WORKDIR RESULT

Builds the workload's inputs from the seed, times a burst of host-speed
probes (speed.py), runs its ops one after another through
``intpoints.cli.main`` with stdout and stderr captured in memory, checks
every output once the last op has ended, and writes the pass as JSON to
RESULT.  MODE is ``run``, ``trace`` or ``setup``.  With ``trace`` every layer
boundary records spans (see tracing.py); with ``run`` probes run between the
ops' bytecodes instead, and the times reported leave them out; ``setup``
stops after the burst.  run.py starts one of these per pass, with PYTHONPATH
pointing at the checkout's ``src``.  Nothing here warms the sieve or the modular
caches: a command-line user pays for them on every call.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def run(workload: str, seed: int, mode: str, workdir: Path) -> dict:
    import intpoints
    from intpoints import cli

    import speed
    import tracing
    import workloads

    src = (workloads.ROOT / "src").resolve()
    if not Path(intpoints.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported {intpoints.__file__}, not the package under {src}")
    ops = workloads.build(workload, seed, workdir)
    setup_end = time.monotonic()
    setup_probe_s = speed.burst()
    if mode == "setup":
        return {"setup_end": setup_end, "setup_probe_s": setup_probe_s}

    tracer = tracing.Tracer() if mode == "trace" else None
    probes = None if tracer else speed.Probes()
    if tracer:
        tracer.install()
    else:
        probes.start()
    results = []
    first = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer:
            tracer.op = index
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a raising op is a failed op, not a failed pass
            rc = f"raised {type(exc).__name__}: {exc}"
        results.append((start, time.perf_counter(), rc, out.getvalue()))
    last = time.perf_counter()
    if probes:
        probes.stop()
        probe_time, wall_ref = probes.probe_time, probes.reference_seconds(first, last)
    else:
        probe_time, wall_ref = (lambda begin, end: 0.0), None
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    reference = workloads.load_reference()
    failures = []
    for index, (op, (_, _, rc, stdout)) in enumerate(zip(ops, results)):
        errors = workloads.check(op, rc, stdout, reference)
        if errors:
            failures.append({"op": index, "argv": " ".join(op.argv), "errors": errors[:5]})
    return {
        "setup_end": setup_end,
        "setup_probe_s": setup_probe_s,
        "wall_s": last - first - probe_time(first, last),
        "wall_ref_s": wall_ref,
        "op_s": [end - start - probe_time(start, end) for start, end, _, _ in results],
        "peak_rss_kb": peak_rss_kb,
        "output_bytes": sum(len(r[3].encode()) for r in results),
        "failures": failures,
        "spans": tracer.spans if tracer else [],
        "counts": dict(tracer.counts) if tracer else {},
        "missing": tracer.missing if tracer else [],
    }


def main(argv: list[str]) -> None:
    workload, seed, mode, workdir, result = argv
    if mode not in ("run", "trace", "setup"):
        raise SystemExit(f"unknown mode {mode!r}")
    payload = run(workload, int(seed), mode, Path(workdir))
    Path(result).write_text(json.dumps(payload))


if __name__ == "__main__":
    main(sys.argv[1:])
