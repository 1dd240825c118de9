"""R-tree spatial index.

Strabon accelerates spatial joins with an index over geometry envelopes; we
do the same.  The tree supports Sort-Tile-Recursive bulk loading,
incremental insertion (quadratic-split R-tree), deletion (Guttman's, without
reinsertion) and envelope queries.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Iterator, List, Optional, Tuple

from repro.geometry.envelope import Envelope


class _Node:
    __slots__ = ("is_leaf", "children", "entries", "envelope")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.children: List["_Node"] = []
        self.entries: List[Tuple[Envelope, Any]] = []
        self.envelope: Optional[Envelope] = None

    def recompute_envelope(self) -> None:
        if self.is_leaf:
            envs = [env for env, _ in self.entries]
        else:
            envs = [c.envelope for c in self.children if c.envelope]
        self.envelope = Envelope.union_all(envs) if envs else None


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
        tree = cls(max_entries=max_entries)
        entries = list(items)
        tree._size = len(entries)
        if not entries:
            return tree
        leaves = [
            _make_leaf(chunk) for chunk in _str_pack(entries, max_entries)
        ]
        level = leaves
        while len(level) > 1:
            packed = _str_pack(
                [(node.envelope, node) for node in level], max_entries
            )
            level = [_make_branch([n for _, n in chunk]) for chunk in packed]
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
            node.entries.append((envelope, item))
            node.recompute_envelope()
            if len(node.entries) > self._max:
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
            node.entries, key=lambda e: e[0], min_fill=self._min
        )
        node.entries = group_a
        node.recompute_envelope()
        sibling = _Node(is_leaf=True)
        sibling.entries = group_b
        sibling.recompute_envelope()
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
        """Remove the entry holding ``item`` (by identity), inserted
        under ``envelope``; False when there is none.

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
            if node.entries or node.children:
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
            for index, (_, payload) in enumerate(node.entries):
                if payload is item:
                    del node.entries[index]
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
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.envelope is None or not node.envelope.intersects(envelope):
                continue
            if node.is_leaf:
                for env, item in node.entries:
                    if env.intersects(envelope):
                        yield item
            else:
                stack.extend(node.children)

    def search_point(self, x: float, y: float) -> Iterator[Any]:
        yield from self.search(Envelope(x, y, x, y))

    def items(self) -> Iterator[Tuple[Envelope, Any]]:
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from node.entries
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


def _str_pack(entries: list, max_entries: int) -> List[list]:
    """Sort-Tile-Recursive tiling of (envelope, payload) pairs."""
    n = len(entries)
    leaf_count = math.ceil(n / max_entries)
    slice_count = max(1, math.ceil(math.sqrt(leaf_count)))
    by_x = sorted(entries, key=lambda e: e[0].center[0])
    slice_size = math.ceil(n / slice_count)
    chunks: List[list] = []
    for s in range(0, n, slice_size):
        vertical = sorted(
            by_x[s : s + slice_size], key=lambda e: e[0].center[1]
        )
        for t in range(0, len(vertical), max_entries):
            chunks.append(vertical[t : t + max_entries])
    return chunks


def _make_leaf(entries: list) -> _Node:
    node = _Node(is_leaf=True)
    node.entries = list(entries)
    node.recompute_envelope()
    return node


def _make_branch(children: List[_Node]) -> _Node:
    node = _Node(is_leaf=False)
    node.children = children
    node.recompute_envelope()
    return node
