"""The ``serve-mixed`` server: ``repro.server.serve`` in its own process.

Prints one JSON line with the bound TCP port once the listener accepts,
then serves until a ``shutdown`` request, and prints its peak resident
set as its last line.  The recent-request ring is sized by the caller to
hold the whole run, so queue and handler times of every request can be
read back with the ``recent`` request.  The process, and so every
thread of the server, is pinned to one CPU, the one the host-speed probe
(``probe.py``) watches.

    python3 perfbench/server_proc.py RECENT_CAPACITY CPU
"""

import json
import os
import sys

from common import peak_rss_mb

from repro.server import ServerConfig, serve

WORKERS = 2


def main() -> int:
    recent, cpu = int(sys.argv[1]), int(sys.argv[2])
    os.sched_setaffinity(0, {cpu})

    def ready(server) -> None:
        print(json.dumps({"port": server.tcp_address[1]}), flush=True)

    serve(ServerConfig(workers=WORKERS, recent_requests=recent),
          host="127.0.0.1", port=0, ready=ready)
    print(json.dumps({"peak_rss_mb": peak_rss_mb()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
