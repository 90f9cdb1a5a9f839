"""Every serializable catalog scheme's artifact layout, pinned.

``dump(preprocess(D0))`` is hashed for one fixed workload per query class
and paired with the scheme's ``artifact_version``: a change to what a
scheme writes that keeps its version fails here, because a file written by
the previous layout would then be opened -- and mis-read -- by the new
``load``.  A deliberate layout change bumps the version and re-pins both
halves of the pair together.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.catalog import CATALOG
from repro.core.cost import CostTracker

SIZE, SEED = 256, 7

#: scheme name -> (artifact_version, sha256 of its dump at SIZE / SEED).
GOLDEN = {
    "btree-point": (7, "f693991fc28ef6dc873fe9754ba1162442f98d446981ff488a6f4c4df71ad3c7"),
    "btree-range": (7, "19405aa6eccfa92897a571ab7da3618dd7cb184d82e4d7d7234033370b889e13"),
    "hash-point": (6, "1c8e2c566b638b66016bf8020c93fd288c16ef6a98c0a04198e8bc5cf6ae8706"),
    "sort+binary-search": (5, "140a074f7ca374e63cf688fde96066c23c35e495159a8ee26443d2e0a295dcca"),
    "fischer-heun": (7, "9f0708c00296da6a6da51a44f121e22557ebeaa62ea15c9a83c610d75b8a6c2f"),
    "sparse-table": (5, "c0f15646681d25d40c2003f75fbc3f09f47f1b71a7ecb6ed49da960a2f1efb9a"),
    "euler-tour-rmq": (5, "25ef4368346f12b011b39aa6238dd71bbd158a247cae7d78d03507e657f963f6"),
    "dag-lca-bitset": (1, "b800dfef207f1bca60fe04031e8cdfedc37db4968b5339e9a2552abc19b47959"),
    "transitive-closure": (1, "ae5abcd316ffe77a5d28360722c7761bdb0c53e5f8f4444bdf4df79b33f31221"),
    "bds-position-run": (3, "13dfa8dc180189ad76c116c12c363043f966bfe9f842528232b851159d2e4ee6"),
    "gate-value-table": (1, "607fd1c9e25a680ca2d2cfe525fdd59a2d0f9d31d1c299e3f351b074de292ee2"),
    "buss-kernel": (1, "8974f8b47517da35a2e2142ebbc33b44db51421ee85957be35eeeead19922ae6"),
    "alternating-winning-sets": (1, "b4e22d3ef45fe638fe398502b260b6d14652958aa1c8fd24044116db57f60662"),
    "threshold-algorithm": (5, "ebe7a27974b950c86d156de955fa891e4f1f5d08f5751af3b73e147ae09788a9"),
}


def _serializable_schemes():
    for row in CATALOG:
        if row.query_class is None:
            continue
        for factory in row.schemes:
            scheme = row.make(factory)
            if scheme.serializable:
                yield pytest.param(row, factory, id=scheme.name)


def test_every_serializable_scheme_is_pinned():
    names = sorted(param.id for param in _serializable_schemes())
    assert names == sorted(GOLDEN)


@pytest.mark.parametrize("row,factory", _serializable_schemes())
def test_layout_changes_only_with_a_version_bump(row, factory):
    query_class, scheme = row.make(row.query_class), row.make(factory)
    data, _ = query_class.sample_workload(SIZE, SEED, 1)
    blob = scheme.dump(scheme.preprocess(data, CostTracker()))
    pinned = (scheme.artifact_version, hashlib.sha256(blob).hexdigest())
    assert pinned == GOLDEN[scheme.name], (
        f"{scheme.name}: the dump changed; bump artifact_version and re-pin "
        "both halves of the pair"
    )
