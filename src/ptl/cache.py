"""On-disk result cache with checksums and atomic writes.

Records are JSON files named by the hash of their key; keys embed a code
version hash over the package sources, so any algorithm change invalidates
stale entries.  Writes go through a temp file and an atomic rename.
Payloads carry a checksum over their canonical JSON; solver payloads are
additionally re-verified on load by the caller's verify hook, by `get` and
by `verify_all` alike.

SHA-256 is CPython's own (`_sha2`, `_sha256` before 3.12; `hashlib` only on a
build without it): the same digests, without the OpenSSL that `hashlib` loads
(2.4 MB, 3 ms a command).  Paths are strings: no `pathlib`, no `tempfile`.
"""

from __future__ import annotations

import json
import os
from os.path import basename, dirname, exists, isfile, join

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


class CacheCorruption(Exception):
    pass


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(text: str) -> str:
    return sha256(text.encode("utf-8")).hexdigest()


_code_version_cache: str | None = None


def code_version() -> str:
    """Hash of the package sources; part of every cache key."""
    global _code_version_cache
    if _code_version_cache is None:
        root = dirname(__file__)
        h = sha256()
        for name in sorted(n for n in os.listdir(root) if n.endswith(".py")):
            with open(join(root, name), "rb") as fh:
                h.update(name.encode() + fh.read())
        _code_version_cache = h.hexdigest()[:16]
    return _code_version_cache


class ResultCache:
    """Content-addressed store; a None directory disables caching."""

    def __init__(self, cache_dir: str | os.PathLike | None):
        self.dir = os.fspath(cache_dir) if cache_dir else None
        if self.dir:
            os.makedirs(self.dir, exist_ok=True)

    def _path(self, key: dict) -> str:
        return join(self.dir, _digest(canonical_json(key)) + ".json")

    @staticmethod
    def _read(path: str) -> dict:
        try:
            with open(path) as fh:
                record = json.loads(fh.read())
        except (OSError, json.JSONDecodeError) as exc:
            raise CacheCorruption(f"unreadable cache record {basename(path)}: {exc}") from exc
        if not isinstance(record, dict):
            raise CacheCorruption(f"cache record {basename(path)} is not a record")
        return record

    def get(self, key: dict, verify=None):
        if not self.dir:
            return None
        path = self._path(key)
        if not exists(path):
            return None
        record = self._read(path)
        if record.get("key") != key:
            raise CacheCorruption(f"cache record {basename(path)} key mismatch")
        payload = record.get("payload")
        if record.get("checksum") != _digest(canonical_json(payload)):
            raise CacheCorruption(f"cache record {basename(path)} checksum mismatch")
        if verify is not None and not verify(payload):
            raise CacheCorruption(f"cache record {basename(path)} failed re-verification")
        return payload

    def put(self, key: dict, payload) -> None:
        if not self.dir:
            return
        record = {"key": key, "checksum": _digest(canonical_json(payload)), "payload": payload}
        path = self._path(key)
        tmp = f"{path}.{os.urandom(8).hex()}.tmp"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)  # as mkstemp does
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(canonical_json(record))
            os.replace(tmp, path)
        except BaseException:
            if exists(tmp):
                os.unlink(tmp)
            raise

    def entries(self) -> list[str]:
        """The records' paths; raises CacheCorruption on an entry named
        like a record that is not a file, such as a directory."""
        if not self.dir:
            return []
        paths = [join(self.dir, n) for n in sorted(os.listdir(self.dir)) if n.endswith(".json")]
        for path in paths:
            if not isfile(path):
                raise CacheCorruption(f"cache entry {basename(path)} is not a file")
        return paths

    def verify_all(self, verifier) -> int:
        """Load every record through `get`, with the hook `verifier(key)`
        builds from its key (None: checksum only); raises CacheCorruption
        on damage."""
        paths = self.entries()
        for path in paths:
            key = self._read(path).get("key")
            if not isinstance(key, dict) or self._path(key) != path:
                raise CacheCorruption(f"cache record {basename(path)} key mismatch")
            self.get(key, verify=verifier(key))
        return len(paths)

    def clear(self) -> int:
        """Remove every record; raises CacheCorruption as `entries` does,
        removing none, and on a record that cannot be removed."""
        paths = self.entries()
        for path in paths:
            try:
                os.unlink(path)
            except OSError as exc:
                raise CacheCorruption(f"cannot remove cache record {basename(path)}: {exc}") from exc
        return len(paths)
