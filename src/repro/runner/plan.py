"""Work plans: the cartesian product a sweep will execute.

A :class:`WorkPlan` is an ordered, duplicate-free list of
:class:`RunSpec` cells.  Each cell carries the *serialized* instance
(``Instance.to_dict``) so it can be shipped to a worker process without
re-reading files, plus a content-addressed cache key

    ``(instance content hash, algorithm, canonical params JSON)``

that makes re-runs of the same sweep skip completed cells regardless of
instance file names or generation order.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

from repro.core.instance import Instance

__all__ = [
    "DuplicateCellWarning",
    "instance_content_hash",
    "cache_key",
    "RunSpec",
    "WorkPlan",
]


class DuplicateCellWarning(UserWarning):
    """A ``(instance, algorithm, params)`` cell was added twice to one
    plan; the duplicate is dropped at construction."""


def instance_content_hash(instance: Instance) -> str:
    """Content hash over the mathematically relevant part of an instance.

    Covers machine count and the job multiset (id, size, class); the
    display name and class labels are deliberately excluded so renaming
    an instance file does not invalidate its cached results.
    """
    payload = {
        "m": instance.num_machines,
        "jobs": [[j.id, j.size, j.class_id] for j in instance.jobs],
    }
    blob = json.dumps(payload, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def cache_key(
    instance_hash: str, algorithm: str, params: Mapping[str, Any]
) -> str:
    """Stable identity of one sweep cell."""
    canonical = json.dumps(
        dict(params), sort_keys=True, separators=(",", ":"), default=str
    )
    return f"{instance_hash}:{algorithm}:{canonical}"


@dataclass
class RunSpec:
    """One plan cell: run ``algorithm(**params)`` on one instance.

    ``instance_payload`` is the serialized instance, or ``None`` for a
    *deferred* cell (``WorkPlan.add(..., defer_payload=True)``): the
    executing backend then fetches the payload from the sweep's
    repository at run time — the ``sharded`` backend's workers fetch
    their own payloads this way.  The cache key is always available:
    the content hash is computed at plan time either way.
    """

    instance_name: str
    instance_hash: str
    instance_payload: Optional[dict]
    algorithm: str
    params: Dict[str, Any] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def key(self) -> str:
        return cache_key(self.instance_hash, self.algorithm, self.params)


class WorkPlan:
    """Ordered, deduplicated collection of sweep cells."""

    def __init__(self) -> None:
        self._specs: List[RunSpec] = []
        self._keys: set[str] = set()
        # id(instance) -> (instance, hash, payload); the strong reference
        # keeps the id stable for the cache's lifetime.
        self._instance_cache: Dict[int, tuple] = {}
        self.duplicates_skipped = 0

    def _hash_and_payload(self, instance) -> tuple:
        """Hash and serialize each distinct instance once, not per cell."""
        cached = self._instance_cache.get(id(instance))
        if cached is None or cached[0] is not instance:
            cached = (
                instance,
                instance_content_hash(instance),
                instance.to_dict(),
            )
            self._instance_cache[id(instance)] = cached
        return cached[1], cached[2]

    def add(
        self,
        ref,
        algorithm: str,
        params: Optional[Mapping[str, Any]] = None,
        *,
        defer_payload: bool = False,
    ) -> Optional[RunSpec]:
        """Append one cell for an :class:`~repro.runner.repository.InstanceRef`
        (or any object with ``name``/``instance``/``meta`` attributes).

        Cells whose cache key is already in the plan are skipped with a
        :class:`DuplicateCellWarning` (and counted in
        :attr:`duplicates_skipped`) — a silently double-added cell would
        double-count in summaries and defeat the resumable cache.

        ``defer_payload=True`` leaves :attr:`RunSpec.instance_payload`
        unset so the backend fetches it from the sweep's repository at
        execution time (see :class:`RunSpec`).
        """
        instance_hash, payload = self._hash_and_payload(ref.instance)
        spec = RunSpec(
            instance_name=ref.name,
            instance_hash=instance_hash,
            instance_payload=None if defer_payload else payload,
            algorithm=algorithm,
            params=dict(params or {}),
            meta=dict(ref.meta),
        )
        if spec.key in self._keys:
            self.duplicates_skipped += 1
            warnings.warn(
                f"WorkPlan: skipping duplicate cell {ref.name!r} × "
                f"{algorithm!r} × {spec.params!r} (same content hash, "
                "algorithm and params as an earlier cell)",
                DuplicateCellWarning,
                stacklevel=2,
            )
            return None
        self._keys.add(spec.key)
        self._specs.append(spec)
        return spec

    @classmethod
    def from_product(
        cls,
        refs: Iterable,
        algorithms: Sequence[str],
        params_grid: Optional[Sequence[Mapping[str, Any]]] = None,
        *,
        defer_payloads: bool = False,
    ) -> "WorkPlan":
        """Cartesian product instances × algorithms × parameter sets."""
        plan = cls()
        grid = list(params_grid) if params_grid else [{}]
        for ref in refs:
            for algorithm in algorithms:
                for params in grid:
                    plan.add(
                        ref, algorithm, params, defer_payload=defer_payloads
                    )
        return plan

    @property
    def specs(self) -> List[RunSpec]:
        return list(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self) -> Iterator[RunSpec]:
        return iter(self._specs)
