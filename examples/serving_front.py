#!/usr/bin/env python3
"""The serving front, end to end (ISSUE 9): escape the single process.

Boots the full serving stack -- asyncio TCP gateway, supervisor, two
worker *processes* over one shared artifact store -- and drives it the way
an operator would:

1. attach an immutable dataset (every worker loads the same
   content-addressed artifact) and serve queries and batches over the
   wire;
2. attach a mutable dataset (homed on one worker), apply change batches,
   and read the new versions back;
3. share one mutable session between caller threads running a skewed
   90/10 read/write loop -- each thread on its own connection -- and
   read every write back;
4. show the supervision story a remote `stats()` carries (`frontend`
   section: worker health, restarts, retries).

The script is also CI's ``frontend-smoke``: it exits non-zero if any
operation errors or if the client counts a single protocol error.

Run:  python examples/serving_front.py
"""

import random
import time
from concurrent.futures import ThreadPoolExecutor

from repro.incremental.changes import ChangeKind, TupleChange
from repro.service import ServingFront
from repro.service.frontend import RemoteClient

SEED = 20130826
SIZE = 2**14
OPERATIONS = 600
THREADS = 3


def section(title):
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def main() -> None:
    data = tuple(range(SIZE))
    with ServingFront(workers=2) as front:
        host, port = front.address
        print(f"serving front up on {host}:{port} with 2 worker processes")
        client = RemoteClient(host, port)

        section("1. Immutable dataset: served by every worker")
        ds = client.attach(
            "events", data, kinds=["list-membership", "minimum-range-query"]
        )
        print("membership(7)    ->", ds.query("list-membership", 7))
        print("membership(-1)   ->", ds.query("list-membership", -1))
        batch = [("list-membership", q) for q in (0, SIZE - 1, SIZE)]
        print("batch            ->", ds.query_batch(batch))

        section("2. Mutable dataset: homed, versioned, journaled")
        mut = client.attach(
            "inbox", tuple(range(64)), kinds=["list-membership"], mutable=True
        )
        print("membership(99)   ->", mut.query("list-membership", 99))
        ack = mut.apply_changes([TupleChange(ChangeKind.INSERT, (99,))])
        print("apply_changes    ->", ack)
        print("membership(99)   ->", mut.query("list-membership", 99))
        assert mut.query("list-membership", 99) is True

        section("3. Caller threads share a mutable session: 90/10 read/write")
        wl = client.attach("traffic", data, kinds=["list-membership"], mutable=True)

        def traffic(worker):
            rng = random.Random(SEED + worker)
            writes = 0
            for step in range(OPERATIONS // THREADS):
                if step % 10 == 9:  # a fresh key per write, read back at once
                    value = SIZE + step * THREADS + worker
                    wl.apply_changes([TupleChange(ChangeKind.INSERT, (value,))])
                    writes += 1
                else:  # cubing a uniform draw crowds reads onto the low keys
                    value = int(SIZE * rng.random() ** 3)
                assert wl.query("list-membership", value) is True, value
            return writes

        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            # map() re-raises whatever a thread raised: any error ends the script
            writes = sum(pool.map(traffic, range(THREADS)))
        elapsed = time.perf_counter() - started
        operations = OPERATIONS // THREADS * THREADS
        print(
            f"{operations} ops ({operations - writes} reads / {writes} "
            f"writes) at {operations / elapsed:,.0f} ops/s on {THREADS} threads"
        )
        assert wl.stats()["version"] == writes

        section("4. One stats() call: engine counters + the supervision story")
        stats = wl.stats()
        print("queries served   ->", stats["kinds"]["list-membership"]["queries"])
        print("frontend         ->", stats["frontend"])
        assert stats["frontend"]["healthy_workers"] == 2

        for session in (ds, mut, wl):
            session.detach()
        assert client.protocol_errors == 0, client.protocol_errors
        client.close()
    print()
    print("clean shutdown; zero errors, zero protocol errors")


if __name__ == "__main__":
    main()
