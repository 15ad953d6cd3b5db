"""Instance collections for sweeps.

An :class:`InstanceRepository` is an ordered set of named
:class:`InstanceRef` entries.  Repositories are built either from a
directory of instance JSON files (``Instance.to_dict`` format, as
written by ``python -m repro generate``) or from the
:mod:`repro.workloads` random families over a ``families × machines ×
sizes × seeds`` grid.

Execution backends fetch serialized instances through
:meth:`InstanceRepository.fetch_payload` — the IO boundary that
*deferred* plan cells (``WorkPlan.from_product(...,
defer_payloads=True)``) resolve through at run time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

import json

from repro.core.instance import Instance
from repro.workloads import generate

__all__ = ["InstanceRef", "InstanceRepository"]


@dataclass
class InstanceRef:
    """A named instance plus provenance metadata (family, seed, path…)."""

    name: str
    instance: Instance
    meta: Dict[str, Any] = field(default_factory=dict)


class InstanceRepository:
    """Ordered collection of instances a sweep runs over."""

    def __init__(self, refs: Sequence[InstanceRef] = ()) -> None:
        self._refs: List[InstanceRef] = []
        self._by_name: Dict[str, InstanceRef] = {}
        for ref in refs:
            self._add_ref(ref)

    def _add_ref(self, ref: InstanceRef) -> InstanceRef:
        if ref.name in self._by_name:
            raise ValueError(f"duplicate instance name {ref.name!r}")
        self._by_name[ref.name] = ref
        self._refs.append(ref)
        return ref

    def add(
        self,
        instance: Instance,
        name: Optional[str] = None,
        **meta: Any,
    ) -> InstanceRef:
        """Register one instance (name defaults to ``instance.name``)."""
        return self._add_ref(
            InstanceRef(name=name or instance.name, instance=instance, meta=meta)
        )

    @classmethod
    def from_directory(
        cls, path: Union[str, Path], pattern: str = "*.json"
    ) -> "InstanceRepository":
        """Load every instance JSON file under ``path`` (sorted by name)."""
        root = Path(path)
        if not root.is_dir():
            raise FileNotFoundError(f"instance directory not found: {root}")
        repo = cls()
        for file in sorted(root.glob(pattern)):
            with open(file) as handle:
                instance = Instance.from_dict(json.load(handle))
            repo.add(instance, name=file.stem, source=str(file))
        if not len(repo):
            raise FileNotFoundError(
                f"no instance files matching {pattern!r} in {root}"
            )
        return repo

    @classmethod
    def from_families(
        cls,
        families: Sequence[str],
        machine_counts: Sequence[int],
        sizes: Sequence[int],
        seeds: Sequence[int],
    ) -> "InstanceRepository":
        """Generate a ``families × machines × sizes × seeds`` grid from
        the :mod:`repro.workloads` random families."""
        repo = cls()
        for family in families:
            for m in machine_counts:
                for size in sizes:
                    for seed in seeds:
                        instance = generate(family, m, size, seed)
                        repo.add(
                            instance,
                            name=f"{family}-m{m}-s{size}-seed{seed}",
                            family=family,
                            m=m,
                            size=size,
                            seed=seed,
                        )
        return repo

    def names(self) -> List[str]:
        return [ref.name for ref in self._refs]

    def get(self, name: str) -> InstanceRef:
        """Look up one ref by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no instance named {name!r} in repository") from None

    def fetch_payload(self, name: str) -> dict:
        """Serialized instance for ``name`` — the IO boundary deferred
        plan cells resolve through (see module docstring)."""
        return self.get(name).instance.to_dict()

    def __len__(self) -> int:
        return len(self._refs)

    def __iter__(self) -> Iterator[InstanceRef]:
        return iter(self._refs)
