"""Record the reference summaries that the benchmark checks runs against.

    python3 bench/record_reference.py

Runs every catalogue member of every workload once through ``delaysync
run`` from ./src and writes bench/reference.json.  Re-record only when a
change to the results is intended, and say so where the change is recorded.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import checks
import scenarios
from run import WORK, import_program


def main() -> int:
    cli = import_program().cli
    work = WORK / "reference"
    reference = {}
    for workload in scenarios.WORKLOADS:
        reference[workload] = {}
        for key in scenarios.catalogue(workload):
            member = scenarios.write_member(workload, key, work)
            out = work / "out"
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["run", str(member.path), "--out", str(out)])
            if rc != 0:
                print(f"{workload}/{key}: exit code {rc}", file=sys.stderr)
                return 1
            digest = checks.summary_digest((out / "summary.txt").read_text())
            reference[workload][key] = digest
            print(f"{workload}/{key}: {digest}")
    checks.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
