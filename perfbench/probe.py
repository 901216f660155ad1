"""Host speed probe: a fixed kernel, timed in a process of its own.

The benchmark starts this script next to its timed loop and, between ops,
writes one line to its standard input for each timing it wants.  The script
answers each line with the seconds that one run of the kernel took.  It
shares no memory with the program under test, so the program's heap and
allocator state cannot move the timings; a first, untimed run of the kernel
before each timing refills the processor caches that the program's last op
left cold.  It ends when its standard input closes.
"""

from __future__ import annotations

import gc
import sys
import time
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import det  # noqa: E402

_rng = Random(0)
MATRIX = [[_rng.randint(-9, 9) for _ in range(16)] for _ in range(16)]


def kernel() -> None:
    """An exact 16×16 determinant, tuple freezing, string sorting and dict lookups."""
    det(MATRIX)
    tuple(tuple(row) for row in MATRIX)
    sorted(str(v * v) for row in MATRIX for v in row)
    table = {i: str(i) for i in range(200)}
    [table[i] for i in range(200)]


def main() -> None:
    gc.disable()
    for _ in sys.stdin:
        kernel()
        t0 = time.perf_counter()
        kernel()
        sys.stdout.write(f"{time.perf_counter() - t0!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
