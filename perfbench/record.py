"""Record the expected outputs of every op workload's input pool.

    python3 perfbench/record.py

Runs each pool input once, refuses to record an output that fails its
own verdict (verify PASS, zero unattributed violations), and writes
``golden.json``.  Re-record only when a change is meant to alter the
program's outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys

from run import import_program
from workloads import GOLDEN, OP_WORKLOADS


def main() -> int:
    import_program()
    golden: dict[str, dict] = {}
    for name, cls in OP_WORKLOADS.items():
        wl = cls(0, None)
        golden[name] = {}
        for key in sorted(wl.pool):
            summary = wl.summarize(wl.op(wl.pool[key]))
            wl.golden = {key: wl.record(key, summary)}
            errors = wl.check(key, summary)
            if errors:
                print("\n".join(errors), file=sys.stderr)
                return 1
            golden[name][key] = wl.golden[key]
            print(f"{name} {key}: {golden[name][key]}")
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
