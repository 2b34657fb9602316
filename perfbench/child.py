"""Run the positroids CLI and report what the parent cannot see from outside.

    python3 perfbench/child.py REPORT NAME ARGV...

Runs `positroids.cli.main(ARGV)` as `python3 -m positroids.cli ARGV` would.
When NAME is not `-`, the generator the CLI imports as NAME
(`all_necklaces` for the oracle, `enumerate_sparse_paving` for the census)
is wrapped first, so that each item it hands out is stamped with
`time.perf_counter()` once the CLI asks for the next one, that is, once the
item has been dealt with.  On Linux that clock is the system's monotonic
clock, so the parent can compare the stamps with its own readings.  A stamp
costs well under a microsecond against a millisecond or more of work per
item.

When the command ends, REPORT receives a JSON object with the stamps and
`hwm_kb`, this process's peak resident set since it started running
Python.  The parent cannot use the peak that wait4 reports: Linux carries
the peak from before exec over, which is the parent's own size at fork.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from positroids import cli


def peak_kb() -> int:
    """VmHWM of this process image; ru_maxrss where /proc is missing."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    path, name, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    stamps: list[float] = []
    if name != "-":
        inner = getattr(cli, name)

        def stamped(*args, **kwargs):
            for item in inner(*args, **kwargs):
                yield item
                stamps.append(time.perf_counter())

        setattr(cli, name, stamped)
    try:
        return cli.main(argv)
    finally:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"stamps": stamps, "hwm_kb": peak_kb()}, handle)


if __name__ == "__main__":
    raise SystemExit(main())
