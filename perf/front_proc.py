"""The serving front as its own process, as it would run in deployment.

``targets.WireTarget`` starts this file as a child so the load generator
and the gateway do not share an interpreter lock.  The child hosts one
``ServingFront`` (gateway + supervisor + workers) and answers control
requests on stdin/stdout, one ``protocol.encode_body`` JSON line each:

``health``  supervisor ``health()`` and the gateway's counters
``rss``     resident bytes of this process and of each worker
``call``    replay requests through ``Supervisor.call`` *inside* this
            process and return each call's nanoseconds and answer -- the
            slice of the trace that excludes client, socket and gateway
``stop``    close the front and exit (so does end-of-file on stdin)
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys
import time
from pathlib import Path
from typing import Any, Dict

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def rss_bytes(pid: "int | str" = "self") -> int:
    """VmRSS of one process from /proc; 0 when it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def _serve(front: Any, started_s: float) -> None:
    from repro.service.frontend import protocol

    def send(value: Dict[str, Any]) -> None:
        sys.stdout.buffer.write(protocol.encode_body(value) + b"\n")
        sys.stdout.buffer.flush()

    host, port = front.address
    send({"host": host, "port": port, "spawn_s": started_s})
    supervisor = front.supervisor
    for line in sys.stdin.buffer:
        request = protocol.decode_body(line)
        command = request["cmd"]
        if command == "stop":
            break
        if command == "health":
            send({"supervisor": supervisor.health(),
                  "gateway": dict(front.gateway.counters)})
        elif command == "rss":
            workers = [rss_bytes(child.pid)
                       for child in multiprocessing.active_children()]
            send({"front": rss_bytes(), "workers": workers})
        elif command == "call":
            elapsed, answers = [], []
            clock = time.perf_counter_ns
            for op, dataset, value in request["requests"]:
                begin = clock()
                answer = supervisor.call(op, dataset=dataset, value=value)
                elapsed.append(clock() - begin)
                answers.append(answer)
            send({"ns": elapsed, "answers": answers})
        else:
            send({"error": f"unknown command {command!r}"})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--store-root", required=True)
    args = parser.parse_args()
    try:
        from repro.service.frontend import ServingFront
    except ImportError as exc:
        print(f"front_proc: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    begin = time.perf_counter()
    front = ServingFront(workers=args.workers, store_root=args.store_root).start()
    try:
        _serve(front, time.perf_counter() - begin)
    finally:
        front.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
