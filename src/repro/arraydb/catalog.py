"""The database catalog: named tables, arrays and vault attachments."""

from __future__ import annotations

from typing import Dict, Union

from repro.arraydb.array import SciQLArray
from repro.arraydb.errors import CatalogError
from repro.arraydb.table import Table

Relation = Union[Table, SciQLArray]


class Catalog:
    """Name → object registry with case-insensitive lookup."""

    def __init__(self) -> None:
        self._objects: Dict[str, Relation] = {}

    @staticmethod
    def _key(name: str) -> str:
        return name.lower()

    def create(self, obj: Relation, replace: bool = False) -> None:
        key = self._key(obj.name)
        if key in self._objects and not replace:
            raise CatalogError(f"object {obj.name!r} already exists")
        self._objects[key] = obj

    def drop(self, name: str, if_exists: bool = False) -> None:
        key = self._key(name)
        if key not in self._objects:
            if if_exists:
                return
            raise CatalogError(f"no object named {name!r}")
        del self._objects[key]

    def get(self, name: str) -> Relation:
        obj = self._objects.get(self._key(name))
        if obj is None:
            raise CatalogError(f"no table or array named {name!r}")
        return obj

    def exists(self, name: str) -> bool:
        return self._key(name) in self._objects

    def get_table(self, name: str) -> Table:
        obj = self.get(name)
        if not isinstance(obj, Table):
            raise CatalogError(f"{name!r} is not a table")
        return obj

    def get_array(self, name: str) -> SciQLArray:
        obj = self.get(name)
        if not isinstance(obj, SciQLArray):
            raise CatalogError(f"{name!r} is not an array")
        return obj

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, name: str) -> bool:
        return self.exists(name)
