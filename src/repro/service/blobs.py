"""Content-addressed target shipping: blob store + image manifests.

The remote backend used to ship filesystem *paths* inside its shard
payloads, so every ``profipy worker`` had to mount the coordinator's
disk.  This module replaces that identity with content:

* :class:`BlobStore` — files keyed by ``sha256(content)``, written with
  the same atomic discipline as ``job.json`` (unique temp + fsync +
  ``os.replace``), so a killed writer never leaves a torn blob and
  concurrent writers of the same digest are safe (the bytes are
  identical by construction).  An optional ``max_bytes`` bound turns a
  store into a worker-side LRU cache: least-recently-used blobs are
  evicted once the bound is exceeded (the worker just re-fetches them).

* :class:`ImageManifest` — the content-addressed identity of a staged
  :class:`~repro.sandbox.image.SandboxImage`: sorted
  ``{relpath: {digest, mode, size}}`` entries plus the image env.  The
  manifest's canonical JSON bytes are deterministic, so manifests of
  identical trees are byte-identical and ``tree_digest`` (sha256 over
  those bytes) *is* the image's identity — a re-campaign over an
  unchanged tree ships nothing but digests.  ``materialize`` rebuilds
  the tree byte-identically (permission bits included) from any store
  holding the blobs, which is what frees workers from the coordinator's
  filesystem.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import stat
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.fsutil import IGNORED_DIRS, atomic_write_bytes, remove_tree

_DIGEST_RE = re.compile(r"[0-9a-f]{64}")

#: Permission bits preserved through a manifest round-trip.  Only the
#: classic rwx bits travel: setuid/sticky bits on a fault-injection
#: target are at best an accident, and dropping them keeps materialized
#: trees safe to run from.
_MODE_MASK = 0o777


def blob_digest(data: bytes) -> str:
    """The store key for ``data``: its sha256 hex digest."""
    return hashlib.sha256(data).hexdigest()


def validate_digest(digest: object) -> str:
    """``digest`` as a normalized store key, or ``ValueError``."""
    if not isinstance(digest, str) or not _DIGEST_RE.fullmatch(
            digest.lower()):
        raise ValueError(
            f"blob digest must be 64 hex chars, got {digest!r}"
        )
    return digest.lower()


class BlobStore:
    """Content-addressed file store keyed by ``sha256(content)``.

    Layout: ``<root>/<digest[:2]>/<digest>`` (fanned out so one
    directory never holds the whole corpus).  Writes are atomic and
    idempotent — putting bytes that are already stored is a no-op apart
    from an LRU touch.  With ``max_bytes`` set, :meth:`put_bytes` evicts
    least-recently-used blobs past the bound (recency is the file
    mtime, bumped on every get/put).
    """

    def __init__(self, root: str | Path,
                 max_bytes: int | None = None) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes

    def path(self, digest: str) -> Path:
        digest = validate_digest(digest)
        return self.root / digest[:2] / digest

    def has(self, digest: str) -> bool:
        return self.path(digest).is_file()

    def missing(self, digests) -> list[str]:
        """The sorted subset of ``digests`` this store does not hold —
        the batched answer behind ``POST /v1/blobs/missing``."""
        return sorted({validate_digest(digest) for digest in digests
                       if not self.has(digest)})

    def put_bytes(self, data: bytes, digest: str | None = None) -> str:
        """Store ``data``; returns its digest.

        A caller-supplied ``digest`` (the PUT URL's) is verified against
        the content — a mismatch is a corrupt upload and raises
        ``ValueError`` rather than poisoning the store.
        """
        if not isinstance(data, bytes):
            raise ValueError("blob content must be bytes")
        actual = blob_digest(data)
        if digest is not None and validate_digest(digest) != actual:
            raise ValueError(
                f"blob content hashes to {actual}, not the declared "
                f"digest {digest}"
            )
        path = self.path(actual)
        if path.is_file():
            self._touch(path)
        else:
            atomic_write_bytes(path, data)
            if self.max_bytes is not None:
                self.evict()
        return actual

    def get_bytes(self, digest: str) -> bytes:
        """The blob's content; ``KeyError`` when absent (the API layer
        maps it to ``unknown_blob``)."""
        path = self.path(digest)
        try:
            data = path.read_bytes()
        except OSError:
            raise KeyError(f"unknown blob {validate_digest(digest)}") \
                from None
        self._touch(path)
        return data

    def total_bytes(self) -> int:
        return sum(path.stat().st_size for path in self._iter_blobs())

    def evict(self) -> list[str]:
        """Drop least-recently-used blobs until the store fits
        ``max_bytes``; returns the evicted digests.  No-op without a
        bound (coordinator-side stores keep everything)."""
        if self.max_bytes is None:
            return []
        blobs = []
        for path in self._iter_blobs():
            try:
                info = path.stat()
            except OSError:
                continue
            blobs.append((info.st_mtime, path.name, path, info.st_size))
        total = sum(size for _mtime, _name, _path, size in blobs)
        evicted: list[str] = []
        # Oldest mtime first; the name tie-break keeps eviction
        # deterministic when a burst of puts lands in one clock tick.
        # The most recent blob is never evicted — a single blob larger
        # than the bound must stay usable by the shard that fetched it.
        for _mtime, name, path, size in sorted(blobs)[:-1]:
            if total <= self.max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted.append(name)
        return evicted

    def _iter_blobs(self):
        for shard_dir in self.root.iterdir():
            if not shard_dir.is_dir():
                continue
            for path in shard_dir.iterdir():
                if path.is_file() and _DIGEST_RE.fullmatch(path.name):
                    yield path

    @staticmethod
    def _touch(path: Path) -> None:
        try:
            os.utime(path)
        except OSError:
            pass  # recency is advisory; a read-only cache still works


@dataclass
class ImageManifest:
    """Content-addressed identity of a staged sandbox image tree.

    ``entries`` maps each file's POSIX relpath to its ``digest`` /
    ``mode`` (permission bits, so ``+x`` workload scripts survive the
    wire) / ``size``.  Iteration order is irrelevant: the canonical
    form sorts keys, so identical trees always produce byte-identical
    manifests and therefore the same :attr:`tree_digest`.
    """

    entries: dict[str, dict] = field(default_factory=dict)
    env: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_tree(cls, root: str | Path, env: dict[str, str] | None = None,
                  store: BlobStore | None = None) -> "ImageManifest":
        """Snapshot ``root`` (skipping :data:`IGNORED_DIRS`, like the
        staging copy does); with ``store``, every file's blob is
        ingested so the manifest is immediately servable."""
        root = Path(root)
        entries: dict[str, dict] = {}
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(name for name in dirnames
                                 if name not in IGNORED_DIRS)
            for name in sorted(filenames):
                path = Path(dirpath) / name
                data = path.read_bytes()
                digest = (store.put_bytes(data) if store is not None
                          else blob_digest(data))
                entries[path.relative_to(root).as_posix()] = {
                    "digest": digest,
                    "mode": stat.S_IMODE(path.stat().st_mode) & _MODE_MASK,
                    "size": len(data),
                }
        return cls(entries=entries, env=dict(env or {}))

    @classmethod
    def from_image(cls, image,
                   store: BlobStore | None = None) -> "ImageManifest":
        """Snapshot a staged :class:`SandboxImage` (tree + env)."""
        return cls.from_tree(image.staging_dir, env=image.env, store=store)

    def canonical_bytes(self) -> bytes:
        """The manifest's deterministic wire form: identical trees →
        identical bytes, which makes :attr:`tree_digest` an identity."""
        return json.dumps(
            {"entries": self.entries, "env": self.env},
            sort_keys=True, separators=(",", ":"),
        ).encode("utf-8")

    @property
    def tree_digest(self) -> str:
        return blob_digest(self.canonical_bytes())

    def digests(self) -> list[str]:
        """Sorted unique blob digests this image needs (the batch a
        dispatcher asks each worker about before uploading)."""
        return sorted({entry["digest"] for entry in self.entries.values()})

    def total_bytes(self) -> int:
        return sum(int(entry["size"]) for entry in self.entries.values())

    def to_dict(self) -> dict:
        return {
            "entries": {relpath: dict(entry)
                        for relpath, entry in self.entries.items()},
            "env": dict(self.env),
            "tree_digest": self.tree_digest,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ImageManifest":
        if not isinstance(data, dict) or "entries" not in data:
            raise ValueError(
                'image manifest must be an object with an "entries" key'
            )
        entries: dict[str, dict] = {}
        for relpath, entry in dict(data["entries"]).items():
            if not isinstance(relpath, str) or not isinstance(entry, dict):
                raise ValueError(
                    f"malformed manifest entry for {relpath!r}"
                )
            rel = Path(relpath)
            if rel.is_absolute() or ".." in rel.parts:
                # A hostile manifest must not write outside the
                # materialization root.
                raise ValueError(
                    f"manifest relpath escapes the tree: {relpath!r}"
                )
            entries[relpath] = {
                "digest": validate_digest(entry.get("digest")),
                "mode": int(entry.get("mode", 0o644)) & _MODE_MASK,
                "size": int(entry.get("size", 0)),
            }
        manifest = cls(entries=entries, env=dict(data.get("env") or {}))
        declared = data.get("tree_digest")
        if declared is not None and declared != manifest.tree_digest:
            raise ValueError(
                f"manifest declares tree digest {declared}, but its "
                f"entries hash to {manifest.tree_digest}"
            )
        return manifest

    def materialize(self, dest: str | Path, store: BlobStore) -> Path:
        """Rebuild the tree byte-identically under ``dest`` from
        ``store`` (permission bits restored).  A blob the store lacks
        raises ``KeyError`` naming the file — the dispatcher was
        supposed to upload it first."""
        dest = Path(dest)
        remove_tree(dest)
        dest.mkdir(parents=True, exist_ok=True)
        for relpath in sorted(self.entries):
            entry = self.entries[relpath]
            try:
                data = store.get_bytes(entry["digest"])
            except KeyError:
                raise KeyError(
                    f"unknown blob {entry['digest']} (manifest file "
                    f"{relpath!r}); upload it before materializing"
                ) from None
            atomic_write_bytes(dest / relpath, data,
                               mode=int(entry["mode"]) & _MODE_MASK)
        return dest


__all__ = [
    "BlobStore",
    "ImageManifest",
    "blob_digest",
    "validate_digest",
]
