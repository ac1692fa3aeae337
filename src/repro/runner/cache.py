"""Content-addressed on-disk cache of executed shards.

An entry's key digests everything that determines one shard's output:
the experiment's spec (entry point, parameters, sharding plan), the
seed, the shard index and a digest of every ``repro`` source file.
Touch any source file and every key changes — stale hits are
structurally impossible, so there is no invalidation logic, only a
directory of ``<key>.shard.pkl`` files that can be deleted at will.

Each entry is one executed :class:`~repro.runner.sharding.ShardResult`
plus its original compute cost (wall seconds, kernel events), which the
runner reports for cache hits in ``BENCH_runner.json``.  The shard is
the cache's only granularity: a run whose shards all come from the
cache still merges them (:func:`repro.runner.pool.run_experiments`), so
a warm run, a resumed run and a cold run take one path.  Every
completed shard is durable the moment it merges back, which is what
makes an interrupted ``repro run STUDY1 --users 1_000_000`` resumable:
a second invocation recomputes only the shards the interruption lost.
Payloads are pickled (shard data is exactly what already crosses the
worker process boundary); the key's source digest makes stale loads
structurally impossible, pickle compatibility included.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Optional

from repro.runner.registry import ExperimentSpec
from repro.runner.sharding import ShardResult

__all__ = ["ResultCache", "source_digest", "default_cache_dir"]

#: Bump when the on-disk entry layout changes.
_FORMAT_VERSION = 1

_source_digest_cache: Optional[str] = None


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``.repro_cache`` under the working dir."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


def source_digest() -> str:
    """SHA-256 over every ``repro`` source file (path + contents).

    Computed once per process; any change to the package produces new
    cache keys for every experiment.
    """
    global _source_digest_cache
    if _source_digest_cache is None:
        import repro

        package_root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x00")
        _source_digest_cache = digest.hexdigest()
    return _source_digest_cache


class ResultCache:
    """Directory of content-addressed executed shards."""

    def __init__(self, root: Path | str | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()

    def shard_key(self, spec: ExperimentSpec, seed: int, index: int) -> str:
        """Content address for one ``(spec, seed, shard index)`` unit."""
        material = json.dumps(
            {
                "format": _FORMAT_VERSION,
                "spec": spec.cache_token(),
                "seed": seed,
                "shard": index,
                "sources": source_digest(),
            },
            sort_keys=True,
        )
        return hashlib.sha256(material.encode()).hexdigest()

    def _shard_path(self, key: str) -> Path:
        return self.root / f"{key}.shard.pkl"

    def get_shard(
        self, spec: ExperimentSpec, seed: int, index: int
    ) -> Optional[ShardResult]:
        """The cached executed shard for this key, or ``None``.

        Loaded shards carry no observability payload: observed runs
        bypass the cache entirely.
        """
        path = self._shard_path(self.shard_key(spec, seed, index))
        try:
            payload = pickle.loads(path.read_bytes())
        except (OSError, pickle.UnpicklingError, EOFError):
            return None
        return ShardResult(
            experiment_id=payload["experiment_id"],
            index=payload["index"],
            data=payload["data"],
            events=payload["events"],
            wall_s=payload["wall_s"],
        )

    def put_shard(
        self, spec: ExperimentSpec, seed: int, index: int, result: ShardResult
    ) -> None:
        """Store one executed shard (atomically; obs payload excluded)."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._shard_path(self.shard_key(spec, seed, index))
        payload = {
            "experiment_id": result.experiment_id,
            "index": result.index,
            "data": result.data,
            "events": result.events,
            "wall_s": result.wall_s,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_bytes(pickle.dumps(payload, protocol=4))
        tmp.replace(path)
