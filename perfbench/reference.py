"""Fixed reference workload: a yardstick for how fast the host is right now.

    python3 perfbench/reference.py

It imports nothing from abrsim, so no change to the program moves its time.
Its mix resembles the simulator's hot loop: heap pushes and pops of
tuples on a heap of about 50k entries, small allocations and integer
arithmetic.  The benchmark times it, like a simulator run, from process
start to exit, before and after every measured run, with one copy per
process the workload keeps busy; see ``perfbench/run.py``.
"""

import heapq
import sys

PENDING = 50_000
STEPS = 400_000
EXPECTED = 1_224_818


def main() -> int:
    heap: list = []
    x = 12345
    total = 0
    for i in range(STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x, i, (i, x & 255)))
        if len(heap) > PENDING:
            _time, _seq, payload = heapq.heappop(heap)
            total += payload[1] & 7
    return 0 if total == EXPECTED else 1


if __name__ == "__main__":
    sys.exit(main())
