"""The host-speed probe of ``serve-mixed``: how fast the server's CPU runs.

On the shared hosts this benchmark was built on, each vCPU's speed drifts
on its own (one-second medians of a fixed kernel on the two vCPUs of one
host did not correlate), so the speed that matters is that of the CPU the
server is pinned to, at the time a request ran there.  This process is
pinned to the same CPU under ``SCHED_IDLE``: it runs only when the server
does not want the CPU, and a waking server thread preempts it at once.
It runs the reference kernel (``common._kernel``) back to back and times
each run in thread CPU time, which leaves out the time the server held
the CPU.

Each line it reads on standard input asks for the samples taken since
the previous line; it answers with one JSON line of
``[[end, kernel_seconds], ...]``, ``end`` on the ``perf_counter`` clock
(``CLOCK_MONOTONIC``, shared by every process on the host).  It exits at
end of input.

    python3 perfbench/probe.py CPU
"""

import gc
import json
import os
import select
import sys
from time import perf_counter, thread_time

from common import _kernel


def main() -> int:
    cpu = int(sys.argv[1])
    os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    gc.disable()
    samples = []
    print("ready", flush=True)
    while True:
        start = thread_time()
        _kernel()
        samples.append((perf_counter(), thread_time() - start))
        if select.select([sys.stdin], [], [], 0)[0]:
            if not sys.stdin.readline():
                return 0
            print(json.dumps(samples), flush=True)
            samples = []


if __name__ == "__main__":
    sys.exit(main())
