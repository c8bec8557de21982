"""Memory-mapped, content-addressed storage for packed unfoldings.

A :class:`~repro.tensor.PackedUnfolding` is by far the largest object the
driver builds — ``n_rows × block_count × n_words`` uint64 words.  This
store writes those words to disk once (atomic temp+rename, like the
resilience checkpoints) and hands back an unfolding whose ``words`` array
is a read-only :func:`numpy.memmap` over the file, so the OS pages blocks
in on demand instead of the driver holding the whole thing resident.

Files are content-addressed by the sha256 of the header and words, so
flushing an identical unfolding twice writes one file, and a corrupted or
truncated file is detected at load time.  The layout is a fixed 128-byte
JSON header (magic, mode, n_rows, block_count, block_width) followed by
the raw little-endian uint64 words in C order.

Downstream consumers never notice the difference: each partition's slab
is a zero-copy plain-ndarray view of the mapping
(:func:`~repro.core.partition.build_partition_data`), which numpy reads
like any array; a delta patch copies a slab before writing to it, and the
spill store spills the views by reference to the file rather than by
value (:mod:`repro.storage.spill`).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile

import numpy as np

__all__ = ["MmapUnfoldingStore", "HEADER_BYTES"]

#: Fixed header size; JSON metadata padded with spaces to this length.
HEADER_BYTES = 128

_MAGIC = "repro-unfolding-v1"


class MmapUnfoldingStore:
    """Content-addressed on-disk store for packed-unfolding words.

    With ``directory=None`` the store owns a fresh temp directory and
    removes it on :meth:`close`; an explicit directory is left in place
    (only the files this store wrote belong to it).
    """

    def __init__(self, directory: "str | None" = None):
        self._owns_directory = directory is None
        if directory is None:
            directory = tempfile.mkdtemp(prefix="repro-unfoldings-")
        else:
            os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self._open_maps: list[np.memmap] = []

    # ------------------------------------------------------------------
    def save(self, packed) -> str:
        """Write ``packed``'s words to a content-addressed file; return path.

        Idempotent: an unfolding with identical content maps to the same
        file, which is not rewritten.
        """
        header = self._header(packed)
        words = np.ascontiguousarray(packed.words, dtype="<u8")
        digest = hashlib.sha256()
        digest.update(header)
        digest.update(words.tobytes())
        path = os.path.join(self.directory, digest.hexdigest()[:32] + ".unf")
        if not os.path.exists(path):
            staging = path + ".tmp"
            with open(staging, "wb") as stream:
                stream.write(header)
                stream.write(words.tobytes())
            os.replace(staging, path)
        return path

    def load(self, path: str):
        """A :class:`PackedUnfolding` whose words are memory-mapped read-only."""
        from ..tensor.packed import PackedUnfolding

        meta = self._read_header(path)
        shape = (meta["n_rows"], meta["block_count"], meta["n_words"])
        expected = HEADER_BYTES + int(np.prod(shape)) * 8
        actual = os.path.getsize(path)
        if actual != expected:
            raise ValueError(
                f"unfolding file {path} is {actual} bytes, expected "
                f"{expected} — truncated or corrupt"
            )
        words = np.memmap(
            path, dtype="<u8", mode="r", offset=HEADER_BYTES, shape=shape
        )
        self._open_maps.append(words)
        return PackedUnfolding.from_words(
            meta["mode"], meta["n_rows"], meta["block_count"],
            meta["block_width"], words.view(np.uint64),
        )

    def flush(self, packed):
        """Save ``packed`` and return a memmap-backed replacement for it.

        The usual call site drops its reference to the in-memory original
        right after, letting the ~``nbytes`` of driver RAM go while the
        unfolding stays fully usable.
        """
        return self.load(self.save(packed))

    def close(self) -> None:
        """Release mappings; delete the directory if this store created it."""
        self._open_maps.clear()
        if self._owns_directory:
            shutil.rmtree(self.directory, ignore_errors=True)

    def __enter__(self) -> "MmapUnfoldingStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _header(self, packed) -> bytes:
        meta = {
            "magic": _MAGIC,
            "mode": int(packed.mode),
            "n_rows": int(packed.n_rows),
            "block_count": int(packed.block_count),
            "block_width": int(packed.block_width),
            "n_words": int(packed.n_words),
        }
        encoded = json.dumps(meta, sort_keys=True).encode("ascii")
        if len(encoded) > HEADER_BYTES:
            raise ValueError("unfolding header metadata too large")
        return encoded.ljust(HEADER_BYTES)

    def _read_header(self, path: str) -> dict:
        with open(path, "rb") as stream:
            raw = stream.read(HEADER_BYTES)
        if len(raw) < HEADER_BYTES:
            raise ValueError(f"unfolding file {path} has no complete header")
        try:
            meta = json.loads(raw.decode("ascii").rstrip())
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise ValueError(f"unfolding file {path} has a malformed header") from None
        if meta.get("magic") != _MAGIC:
            raise ValueError(
                f"unfolding file {path} has magic {meta.get('magic')!r}, "
                f"expected {_MAGIC!r}"
            )
        return meta

    def __repr__(self) -> str:
        return f"MmapUnfoldingStore(directory={self.directory!r})"
