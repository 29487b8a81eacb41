"""Record the digests the correctness gate compares against.

    python3 bench/record.py

Run once at the commit whose outputs are taken as correct; it rewrites
bench/expected.json.  Digests are of canonical, name-sorted forms, so they
do not depend on the seed.  Known-defect and other error cases are judged
by their documented behaviour instead and are not recorded.
"""

from __future__ import annotations

import json
import os
import random
import shutil

import run
import workloads


def main() -> None:
    tmp = os.path.join(run.ROOT, ".bench_tmp", f"record-{os.getpid()}")
    os.makedirs(tmp)
    expected: dict = {}
    try:
        for name in ("construct", "cli"):
            _, work = run.setup(name, 0, tmp, expected)
            for op in work.ops:
                result, _ = run.run_op(op, work.state)
                if op.fingerprint is not None:
                    expected[op.name] = op.fingerprint(result)
        invcat = run.fresh_invcat()
        bases, expansions = workloads.query_structures(invcat, random.Random(0))
        expected["query"] = {name: workloads.digest(workloads.canon_category(ic)) for name, ic in bases.items()}
        for (base, variant), sz in expansions.items():
            expected["query"][f"{base}:{variant}"] = workloads.digest(workloads.canon_category(sz.ic))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
