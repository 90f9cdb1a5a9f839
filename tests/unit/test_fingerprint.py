"""Golden dataset fingerprints: the content addresses of the artifact store.

Every stored artifact is keyed by ``dataset_fingerprint``, so a change to
the bytes it hashes silently orphans every artifact ever written.  These
digests pin the machine-word column frames (``P<typecode>``), whatever form
a value column takes at rest: a run of ints below 2^18 (which ``pack``
stores as two byte lanes and a 2-bit plane), one below 2^8, and a
two-attribute int relation.  No clocks.
"""

from __future__ import annotations

import random

import pytest

from repro.storage.fingerprint import dataset_fingerprint
from repro.storage.relation import uniform_int_relation


def _run(bits, seed):
    rng = random.Random(seed)
    return tuple(rng.randrange(1 << bits) for _ in range(1000))


@pytest.mark.parametrize(
    "make,digest",
    [
        (lambda: _run(18, 42), "ddfad9a8f13cdd80d1564348978cb7e95158ceb96f094576dd590a0ddab234c5"),
        (lambda: _run(8, 43), "66dd3d1e4c945ed0e94435b4b3083a83283e8ae33b712c2378b9ae79f47c97cb"),
        (
            lambda: uniform_int_relation(500, random.Random(44), value_range=(0, (1 << 18) - 1)),
            "7ea0b4c67c1180ac927efe1b77f897c185622397e116c2e7275711c91962889b",
        ),
    ],
    ids=["ints-below-2^18", "ints-below-2^8", "int-relation"],
)
def test_fingerprint_is_pinned(make, digest):
    assert dataset_fingerprint(make()) == digest
