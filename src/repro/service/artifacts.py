"""The preprocessing-artifact store: Pi-structures as durable files.

A built Pi-structure is addressed by an :class:`ArtifactKey` --
``(dataset fingerprint, scheme name, params)`` -- and stored as one file:

.. code-block:: text

    +--------+---------+------------+---------------+-----------+
    | magic  | version | header len | header (JSON) |  payload  |
    | 6 B    | u16 BE  | u32 BE     | UTF-8         |  bytes    |
    +--------+---------+------------+---------------+-----------+

The JSON header repeats the key and carries the payload's SHA-256 and
length, so :meth:`ArtifactStore.get` can detect truncation, bit rot and
key collisions before a single payload byte reaches ``pickle``.  It is
written in one canonical serialisation (sorted keys, no whitespace) and a
file whose header bytes are not exactly that serialisation of what they
parse to is corrupt: no flipped byte can hide in JSON's own slack.  Writes go
through a temp file plus :func:`os.replace`, so readers never observe a
half-written artifact even with concurrent builders.

Version mismatches (the store format or a scheme's ``artifact_version``)
raise :class:`~repro.core.errors.ArtifactVersionError` -- the caller treats
that exactly like a miss and rebuilds, which is always safe because
artifacts are pure caches of PTIME-recomputable state.

    >>> import tempfile
    >>> from repro.service.artifacts import ArtifactKey, ArtifactStore
    >>> store = ArtifactStore(tempfile.mkdtemp())
    >>> key = ArtifactKey(fingerprint="ab" * 32, scheme="demo-scheme", params="|v1")
    >>> _ = store.put(key, b"pi-structure-bytes")
    >>> store.get(key)
    b'pi-structure-bytes'
    >>> store.contains(key), store.delete(key), store.contains(key)
    (True, True, False)
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.core.errors import ArtifactCorruptionError, ArtifactVersionError
from repro.service import faults

__all__ = ["ArtifactKey", "ArtifactStore", "MAGIC", "FORMAT_VERSION"]

#: File magic: never a valid pickle or JSON prefix, so foreign files fail fast.
MAGIC = b"\x89PIART"

#: Bumped whenever the container layout (not a payload) changes shape, or
#: every fingerprint does: v2 = canonical header bytes + column fingerprints.
FORMAT_VERSION = 2

_HEADER_STRUCT = struct.Struct(">HI")  # (format version, header length)


def _header_bytes(header: dict) -> bytes:
    """The one serialisation of a header that :meth:`ArtifactStore.get` accepts."""
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _slug(text: str) -> str:
    """A filesystem-safe rendering of a scheme name ('sort+binary-search')."""
    return re.sub(r"[^A-Za-z0-9._-]+", "-", text).strip("-") or "scheme"


@dataclass(frozen=True)
class ArtifactKey:
    """Identity of one persisted Pi-structure.

    ``params`` is a canonical string for anything that changes the built
    structure beyond the dataset -- scheme parameters, and the scheme's
    ``artifact_version`` (two layouts of the same logical structure must not
    alias).
    """

    fingerprint: str
    scheme: str
    params: str = ""

    def filename(self) -> str:
        # The scheme name is part of the digest because the directory name is
        # only a lossy slug of it: two schemes that slug identically must
        # still get distinct paths.
        identity = f"{self.scheme}\x00{self.params}".encode("utf-8")
        return f"{self.fingerprint}-{hashlib.sha256(identity).hexdigest()[:12]}.pia"

    def as_header(self) -> Dict[str, str]:
        return {
            "fingerprint": self.fingerprint,
            "scheme": self.scheme,
            "params": self.params,
        }


class ArtifactStore:
    """Durable, corruption-checked storage for serialized Pi-structures."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: ArtifactKey) -> Path:
        return self.root / _slug(key.scheme) / key.filename()

    # -- writing ---------------------------------------------------------------

    def put(self, key: ArtifactKey, payload: bytes) -> Path:
        """Persist ``payload`` under ``key`` atomically; returns the path."""
        faults.on_store_write(key)
        header = dict(key.as_header())
        header["payload_len"] = len(payload)
        header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
        header_bytes = _header_bytes(header)

        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # The ".part" suffix keeps half-written (or crash-orphaned) temp
        # files out of the "*/*.pia" globs of keys()/size_bytes().
        descriptor, temp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".part"
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(MAGIC)
                handle.write(_HEADER_STRUCT.pack(FORMAT_VERSION, len(header_bytes)))
                handle.write(header_bytes)
                handle.write(payload)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        return path

    # -- reading ---------------------------------------------------------------

    def get(self, key: ArtifactKey) -> Optional[bytes]:
        """The payload stored under ``key``, or None when absent.

        Raises :class:`ArtifactCorruptionError` on any integrity failure and
        :class:`ArtifactVersionError` on a format mismatch; a missing file is
        a plain miss (None).
        """
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None
        blob = faults.on_store_read(key, blob)
        header, payload = self._parse(blob, path)
        for field_name, expected in key.as_header().items():
            if header.get(field_name) != expected:
                raise ArtifactCorruptionError(
                    f"{path}: header {field_name!r} is {header.get(field_name)!r}, "
                    f"expected {expected!r} (key collision or tampering)"
                )
        return payload

    def _parse(self, blob: bytes, path: Path) -> Tuple[dict, bytes]:
        prefix_len = len(MAGIC) + _HEADER_STRUCT.size
        if len(blob) < prefix_len:
            raise ArtifactCorruptionError(f"{path}: truncated before header")
        if blob[: len(MAGIC)] != MAGIC:
            raise ArtifactCorruptionError(f"{path}: bad magic; not an artifact file")
        version, header_len = _HEADER_STRUCT.unpack_from(blob, len(MAGIC))
        if version != FORMAT_VERSION:
            raise ArtifactVersionError(
                f"{path}: store format v{version}, this build reads v{FORMAT_VERSION}"
            )
        header_end = prefix_len + header_len
        if len(blob) < header_end:
            raise ArtifactCorruptionError(f"{path}: truncated inside header")
        stored = blob[prefix_len:header_end]
        try:
            header = json.loads(stored.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ArtifactCorruptionError(f"{path}: unreadable header") from exc
        if not isinstance(header, dict) or _header_bytes(header) != stored:
            raise ArtifactCorruptionError(f"{path}: header is not in canonical form")
        payload = blob[header_end:]
        if len(payload) != header.get("payload_len"):
            raise ArtifactCorruptionError(
                f"{path}: payload is {len(payload)} bytes, header promised "
                f"{header.get('payload_len')}"
            )
        digest = hashlib.sha256(payload).hexdigest()
        if digest != header.get("payload_sha256"):
            raise ArtifactCorruptionError(f"{path}: payload checksum mismatch")
        return header, payload

    # -- maintenance -----------------------------------------------------------

    def contains(self, key: ArtifactKey) -> bool:
        return self._path(key).is_file()

    def delete(self, key: ArtifactKey) -> bool:
        """Remove one artifact; returns False when it was absent."""
        try:
            self._path(key).unlink()
            return True
        except FileNotFoundError:
            return False

    def keys(self) -> Iterator[ArtifactKey]:
        """Keys of every readable artifact (corrupt files are skipped)."""
        for path in sorted(self.root.glob("*/*.pia")):
            try:
                header, _ = self._parse(path.read_bytes(), path)
            except (ArtifactCorruptionError, ArtifactVersionError, OSError):
                continue
            yield ArtifactKey(
                fingerprint=header["fingerprint"],
                scheme=header["scheme"],
                params=header.get("params", ""),
            )

    def size_bytes(self) -> int:
        """Total on-disk footprint of the store."""
        return sum(path.stat().st_size for path in self.root.glob("*/*.pia"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactStore(root={str(self.root)!r})"
