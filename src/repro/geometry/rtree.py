"""R-tree spatial index.

Strabon accelerates spatial joins with an index over geometry envelopes; we
do the same.  The tree supports Sort-Tile-Recursive bulk loading (the tile
order computed in numpy, from an ``(n, 4)`` box array or from envelopes),
incremental insertion (quadratic-split R-tree), deletion (Guttman's, without
reinsertion) and envelope queries.

A leaf keeps its entries as two flat lists — the boxes' coordinates, four
floats per entry, and the payloads — so a packed tree costs a few objects
per leaf, not per entry: 20 000 geofences packed by row number are about
1 300 leaves.
"""

from __future__ import annotations

import math
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.geometry.envelope import Envelope


class _Node:
    __slots__ = ("is_leaf", "children", "boxes", "items", "envelope")

    def __init__(
        self,
        is_leaf: bool,
        children: Optional[List["_Node"]] = None,
        boxes: Optional[List[float]] = None,
        items: Optional[List[Any]] = None,
    ) -> None:
        self.is_leaf = is_leaf
        self.children: List["_Node"] = [] if children is None else children
        #: Leaf entries: ``minx, miny, maxx, maxy`` per entry, flat, and
        #: the payloads, in the same order.
        self.boxes: List[float] = [] if boxes is None else boxes
        self.items: List[Any] = [] if items is None else items
        self.envelope: Optional[Envelope] = None

    def recompute_envelope(self) -> None:
        if self.is_leaf:
            b = self.boxes
            self.envelope = (
                Envelope(
                    min(b[0::4]), min(b[1::4]), max(b[2::4]), max(b[3::4])
                )
                if b
                else None
            )
        else:
            envs = [c.envelope for c in self.children if c.envelope]
            self.envelope = Envelope.union_all(envs) if envs else None

    def entries(self) -> List[Tuple[Envelope, Any]]:
        b = self.boxes
        return [
            (Envelope(b[j], b[j + 1], b[j + 2], b[j + 3]), item)
            for j, item in zip(range(0, len(b), 4), self.items)
        ]

    def set_entries(self, entries: List[Tuple[Envelope, Any]]) -> None:
        self.boxes = [c for env, _ in entries for c in env.as_tuple()]
        self.items = [item for _, item in entries]
        self.recompute_envelope()


class RTree:
    """A dynamic R-tree mapping envelopes to arbitrary payloads."""

    def __init__(self, max_entries: int = 16) -> None:
        if max_entries < 4:
            raise ValueError("max_entries must be at least 4")
        self._max = max_entries
        self._min = max(2, max_entries // 3)
        self._root = _Node(is_leaf=True)
        self._size = 0

    @classmethod
    def bulk_load(
        cls,
        items: Iterable[Tuple[Envelope, Any]],
        max_entries: int = 16,
    ) -> "RTree":
        """Sort-Tile-Recursive packing: near-optimal leaves for static data."""
        entries = list(items)
        boxes = np.array(
            [env.as_tuple() for env, _ in entries], dtype=np.float64
        ).reshape(-1, 4)
        return cls.pack(boxes, [item for _, item in entries], max_entries)

    @classmethod
    def pack(
        cls,
        boxes: np.ndarray,
        items: Sequence[Any],
        max_entries: int = 16,
    ) -> "RTree":
        """STR packing of an ``(n, 4)`` array of ``minx, miny, maxx,
        maxy`` rows; entry ``i`` carries ``items[i]`` (from a sequence,
        or a numpy array such as row numbers)."""
        tree = cls(max_entries=max_entries)
        n = len(boxes)
        tree._size = n
        if not n:
            return tree
        order, starts = _str_tiles(boxes, max_entries)
        flat = boxes[order].ravel().tolist()
        if isinstance(items, np.ndarray):
            payloads = items[order].tolist()
        else:
            payloads = [items[i] for i in order.tolist()]
        level = [
            _Node(
                True,
                boxes=flat[4 * start : 4 * end],
                items=payloads[start:end],
            )
            for start, end in zip(starts.tolist(), starts[1:].tolist() + [n])
        ]
        envelopes = _tile_envelopes(boxes[order], starts, level)
        while len(level) > 1:
            order, starts = _str_tiles(envelopes, max_entries)
            nodes = [level[i] for i in order.tolist()]
            level = [
                _Node(False, children=nodes[start:end])
                for start, end in zip(
                    starts.tolist(), starts[1:].tolist() + [len(nodes)]
                )
            ]
            envelopes = _tile_envelopes(envelopes[order], starts, level)
        tree._root = level[0]
        return tree

    def __len__(self) -> int:
        return self._size

    @property
    def envelope(self) -> Optional[Envelope]:
        return self._root.envelope

    # -- insertion -------------------------------------------------------

    def insert(self, envelope: Envelope, item: Any) -> None:
        self._size += 1
        split = self._insert(self._root, envelope, item)
        if split is not None:
            old_root = self._root
            new_root = _Node(is_leaf=False)
            new_root.children = [old_root, split]
            new_root.recompute_envelope()
            self._root = new_root

    def _insert(
        self, node: _Node, envelope: Envelope, item: Any
    ) -> Optional[_Node]:
        if node.is_leaf:
            node.boxes.extend(envelope.as_tuple())
            node.items.append(item)
            node.envelope = (
                envelope
                if node.envelope is None
                else node.envelope.union(envelope)
            )
            if len(node.items) > self._max:
                return self._split_leaf(node)
            return None
        child = self._choose_subtree(node, envelope)
        split = self._insert(child, envelope, item)
        if split is not None:
            node.children.append(split)
        node.recompute_envelope()
        if len(node.children) > self._max:
            return self._split_branch(node)
        return None

    @staticmethod
    def _choose_subtree(node: _Node, envelope: Envelope) -> _Node:
        best = None
        best_growth = math.inf
        best_area = math.inf
        for child in node.children:
            env = child.envelope
            assert env is not None
            grown = env.union(envelope)
            growth = grown.area - env.area
            if growth < best_growth or (
                growth == best_growth and env.area < best_area
            ):
                best = child
                best_growth = growth
                best_area = env.area
        assert best is not None
        return best

    def _split_leaf(self, node: _Node) -> _Node:
        group_a, group_b = _quadratic_split(
            node.entries(), key=lambda e: e[0], min_fill=self._min
        )
        node.set_entries(group_a)
        sibling = _Node(is_leaf=True)
        sibling.set_entries(group_b)
        return sibling

    def _split_branch(self, node: _Node) -> _Node:
        group_a, group_b = _quadratic_split(
            node.children, key=lambda c: c.envelope, min_fill=self._min
        )
        node.children = group_a
        node.recompute_envelope()
        sibling = _Node(is_leaf=False)
        sibling.children = group_b
        sibling.recompute_envelope()
        return sibling

    # -- deletion --------------------------------------------------------

    def remove(self, envelope: Envelope, item: Any) -> bool:
        """Remove the entry holding ``item`` (an equal payload: the same
        object, for objects compared by identity, or the same row
        number), inserted under ``envelope``; False when there is none.

        Guttman's delete without reinsertion: the entry is looked for
        only under nodes whose envelope contains ``envelope``, emptied
        nodes are dropped, the envelopes along the path shrink, and a
        root left with one child is replaced by it.  Underfull nodes
        stay (they only cost probe time), so a removal never re-packs.
        """
        path = self._find(self._root, envelope, item)
        if path is None:
            return False
        self._size -= 1
        for depth in range(len(path) - 1, 0, -1):
            node = path[depth]
            if node.items or node.children:
                node.recompute_envelope()
            else:
                path[depth - 1].children.remove(node)
        self._root.recompute_envelope()
        while not self._root.is_leaf and len(self._root.children) == 1:
            self._root = self._root.children[0]
        if not self._root.is_leaf and not self._root.children:
            self._root = _Node(is_leaf=True)
        return True

    def _find(
        self, node: _Node, envelope: Envelope, item: Any
    ) -> Optional[List[_Node]]:
        """Drop ``item``'s entry from the subtree at ``node``; the path
        from ``node`` to the leaf that held it, or None."""
        if node.envelope is None or not node.envelope.contains(envelope):
            return None
        if node.is_leaf:
            for index, payload in enumerate(node.items):
                if payload is item or payload == item:
                    del node.items[index]
                    del node.boxes[4 * index : 4 * index + 4]
                    return [node]
            return None
        for child in node.children:
            path = self._find(child, envelope, item)
            if path is not None:
                return [node] + path
        return None

    # -- queries ---------------------------------------------------------

    def search(self, envelope: Envelope) -> Iterator[Any]:
        """Yield payloads whose envelopes intersect ``envelope``."""
        if self._root.envelope is None:
            return
        minx, miny = envelope.minx, envelope.miny
        maxx, maxy = envelope.maxx, envelope.maxy
        stack = [self._root]
        while stack:
            node = stack.pop()
            env = node.envelope
            if (
                env is None
                or env.minx > maxx
                or env.maxx < minx
                or env.miny > maxy
                or env.maxy < miny
            ):
                continue
            if node.is_leaf:
                b = node.boxes
                for j, item in zip(range(0, len(b), 4), node.items):
                    if (
                        b[j] <= maxx
                        and b[j + 2] >= minx
                        and b[j + 1] <= maxy
                        and b[j + 3] >= miny
                    ):
                        yield item
            else:
                stack.extend(node.children)

    def search_point(self, x: float, y: float) -> Iterator[Any]:
        yield from self.search(Envelope(x, y, x, y))

    def payloads(self) -> List[Any]:
        """Every payload, in the order :meth:`items` yields them."""
        return [item for node in self._leaves() for item in node.items]

    def items(self) -> Iterator[Tuple[Envelope, Any]]:
        for node in self._leaves():
            yield from node.entries()

    def _leaves(self) -> Iterator[_Node]:
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node
            else:
                stack.extend(node.children)


def _quadratic_split(items: list, key: Callable, min_fill: int):
    """Guttman's quadratic split."""
    assert len(items) >= 2
    worst = None
    seeds = (0, 1)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            ei, ej = key(items[i]), key(items[j])
            waste = ei.union(ej).area - ei.area - ej.area
            if worst is None or waste > worst:
                worst = waste
                seeds = (i, j)
    i, j = seeds
    group_a = [items[i]]
    group_b = [items[j]]
    env_a = key(items[i])
    env_b = key(items[j])
    rest = [it for idx, it in enumerate(items) if idx not in (i, j)]
    for it in rest:
        remaining = len(rest) - (len(group_a) + len(group_b) - 2)
        if len(group_a) + remaining <= min_fill:
            group_a.append(it)
            env_a = env_a.union(key(it))
            continue
        if len(group_b) + remaining <= min_fill:
            group_b.append(it)
            env_b = env_b.union(key(it))
            continue
        env = key(it)
        growth_a = env_a.union(env).area - env_a.area
        growth_b = env_b.union(env).area - env_b.area
        if growth_a <= growth_b:
            group_a.append(it)
            env_a = env_a.union(env)
        else:
            group_b.append(it)
            env_b = env_b.union(env)
    return group_a, group_b


def _str_tiles(
    boxes: np.ndarray, max_entries: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Sort-Tile-Recursive tiling of an ``(n, 4)`` box array.

    Returns the tile order (a permutation of the rows) and where each
    tile starts in it.  The boxes are cut by centre x into about
    sqrt(n / max_entries) vertical slices, each slice is ordered by
    centre y and cut into tiles of ``max_entries``; both sorts are
    stable, so equal centres keep their input order.
    """
    n = len(boxes)
    leaf_count = math.ceil(n / max_entries)
    slice_count = max(1, math.ceil(math.sqrt(leaf_count)))
    slice_size = math.ceil(n / slice_count)
    cx = (boxes[:, 0] + boxes[:, 2]) / 2.0
    cy = (boxes[:, 1] + boxes[:, 3]) / 2.0
    order = np.argsort(cx, kind="stable")
    starts = []
    for start in range(0, n, slice_size):
        part = order[start : start + slice_size]
        order[start : start + slice_size] = part[
            np.argsort(cy[part], kind="stable")
        ]
        starts.extend(range(start, start + len(part), max_entries))
    return order, np.array(starts, dtype=np.intp)


def _tile_envelopes(
    boxes: np.ndarray, starts: np.ndarray, nodes: List[_Node]
) -> np.ndarray:
    """Each tile's envelope, from boxes already in tile order; node
    ``i`` of ``nodes`` is tile ``i`` and takes its envelope."""
    envelopes = np.stack(
        [
            np.minimum.reduceat(boxes[:, 0], starts),
            np.minimum.reduceat(boxes[:, 1], starts),
            np.maximum.reduceat(boxes[:, 2], starts),
            np.maximum.reduceat(boxes[:, 3], starts),
        ],
        axis=1,
    )
    for node, env in zip(nodes, envelopes.tolist()):
        node.envelope = Envelope(*env)
    return envelopes
