"""On-disk result cache with checksums and atomic writes.

Records are JSON files named by the hash of their key; keys embed a code
version hash over the package sources, so any algorithm change invalidates
stale entries.  Writes go through a temp file and an atomic rename.
Payloads carry a checksum over their canonical JSON; solver payloads are
additionally re-verified on load by the caller's verify hook, by `get` and
by `verify_all` alike.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path


class CacheCorruption(Exception):
    pass


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_code_version_cache: str | None = None


def code_version() -> str:
    """Hash of the package sources; part of every cache key."""
    global _code_version_cache
    if _code_version_cache is None:
        root = Path(__file__).parent
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(path.name.encode())
            h.update(path.read_bytes())
        _code_version_cache = h.hexdigest()[:16]
    return _code_version_cache


class ResultCache:
    """Content-addressed store; a None directory disables caching."""

    def __init__(self, cache_dir: str | os.PathLike | None):
        self.dir = Path(cache_dir) if cache_dir else None
        if self.dir:
            self.dir.mkdir(parents=True, exist_ok=True)

    def _path(self, key: dict) -> Path:
        return self.dir / (_digest(canonical_json(key)) + ".json")

    @staticmethod
    def _read(path: Path) -> dict:
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CacheCorruption(f"unreadable cache record {path.name}: {exc}") from exc
        if not isinstance(record, dict):
            raise CacheCorruption(f"cache record {path.name} is not a record")
        return record

    def get(self, key: dict, verify=None):
        if not self.dir:
            return None
        path = self._path(key)
        if not path.exists():
            return None
        record = self._read(path)
        if record.get("key") != key:
            raise CacheCorruption(f"cache record {path.name} key mismatch")
        payload = record.get("payload")
        if record.get("checksum") != _digest(canonical_json(payload)):
            raise CacheCorruption(f"cache record {path.name} checksum mismatch")
        if verify is not None and not verify(payload):
            raise CacheCorruption(f"cache record {path.name} failed re-verification")
        return payload

    def put(self, key: dict, payload) -> None:
        if not self.dir:
            return
        record = {
            "key": key,
            "checksum": _digest(canonical_json(payload)),
            "payload": payload,
        }
        path = self._path(key)
        fd, tmp = tempfile.mkstemp(dir=self.dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(canonical_json(record))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def entries(self) -> list[Path]:
        """The records; raises CacheCorruption on an entry named like a
        record that is not a file, such as a directory."""
        if not self.dir:
            return []
        paths = sorted(self.dir.glob("*.json"))
        for path in paths:
            if not path.is_file():
                raise CacheCorruption(f"cache entry {path.name} is not a file")
        return paths

    def verify_all(self, verifier) -> int:
        """Load every record through `get`, with the hook `verifier(key)`
        builds from its key (None: checksum only); raises CacheCorruption
        on damage."""
        paths = self.entries()
        for path in paths:
            key = self._read(path).get("key")
            if not isinstance(key, dict) or self._path(key) != path:
                raise CacheCorruption(f"cache record {path.name} key mismatch")
            self.get(key, verify=verifier(key))
        return len(paths)

    def clear(self) -> int:
        """Remove every record; raises CacheCorruption as `entries` does,
        removing none, and on a record that cannot be removed."""
        paths = self.entries()
        for path in paths:
            try:
                path.unlink()
            except OSError as exc:
                raise CacheCorruption(f"cannot remove cache record {path.name}: {exc}") from exc
        return len(paths)
