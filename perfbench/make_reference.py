"""Rewrite reference.json from the program as it is now.

    PYTHONPATH=src python3 perfbench/make_reference.py

Runs one op for every input any seed can draw (workloads.every_reference_op),
applies the checks that do not need a reference, and records each op's exit
code and output digest (for modsearch: size and exactness).  Rewrite the
reference only when an output is meant to change, and say so in the change.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import workloads


def main() -> int:
    from intpoints import cli

    reference = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=workloads.ROOT) as tmp:
        for op in workloads.every_reference_op(Path(tmp)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(list(op.argv))
            entry = workloads.reference_entry(op, rc, out.getvalue())
            errors = workloads.check(op, rc, out.getvalue(), {op.ref_key: entry})
            if errors:
                print(f"error: {' '.join(op.argv)}: {errors}", file=sys.stderr)
                return 1
            if reference.setdefault(op.ref_key, entry) != entry:
                print(f"error: {op.ref_key}: outputs differ between inputs", file=sys.stderr)
                return 1
    lines = [f"{json.dumps(key)}: {json.dumps(entry, sort_keys=True)}" for key, entry in sorted(reference.items())]
    workloads.REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(reference)} entries to {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
