"""B+tree secondary indexes.

A textbook B+tree: interior nodes route by separator keys, leaves hold
(key, record-id) pairs and are chained for range scans.  Indexes give
the engine the access paths §5.1 cares about (selective predicates
without full scans) and make the paper's §4.1 nested-loop example
realistic: with an index, the inner lookup is logarithmic, so the
memory-power cost of a hash table can genuinely tip the optimizer's
balance.

The tree is an in-memory structure whose *I/O footprint* is modeled for
costing: nodes correspond to pages of ``page_size`` bytes, and probes /
range scans report how many leaf pages they touched so the executor can
charge device reads.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, Optional

from repro.errors import StorageError

DEFAULT_ORDER = 64


class _Node:
    __slots__ = ("keys", "children", "values", "next_leaf", "is_leaf")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.keys: list[Any] = []
        # interior nodes
        self.children: list["_Node"] = []
        # leaves: values[i] is the list of record ids for keys[i]
        self.values: list[list[Any]] = []
        self.next_leaf: Optional["_Node"] = None


class BPlusTree:
    """A B+tree mapping keys to lists of record ids."""

    def __init__(self, order: int = DEFAULT_ORDER) -> None:
        if order < 3:
            raise StorageError("B+tree order must be >= 3")
        self.order = order
        self._root = _Node(is_leaf=True)
        self._size = 0
        self._height = 1

    # -- properties ------------------------------------------------------
    def __len__(self) -> int:
        """Number of (key, rid) entries."""
        return self._size

    @property
    def height(self) -> int:
        """Levels from root to leaf, inclusive."""
        return self._height

    def leaf_count(self) -> int:
        """Number of leaf nodes (pages a full scan reads)."""
        node = self._leftmost_leaf()
        count = 0
        while node is not None:
            count += 1
            node = node.next_leaf
        return count

    # -- mutation -----------------------------------------------------------
    def insert(self, key: Any, rid: Any) -> None:
        """Add one entry; duplicate keys accumulate rids."""
        if key is None:
            raise StorageError("cannot index NULL keys")
        split = self._insert(self._root, key, rid)
        if split is not None:
            separator, right = split
            new_root = _Node(is_leaf=False)
            new_root.keys = [separator]
            new_root.children = [self._root, right]
            self._root = new_root
            self._height += 1
        self._size += 1

    def _insert(self, node: _Node, key: Any, rid: Any
                ) -> Optional[tuple[Any, _Node]]:
        if node.is_leaf:
            idx = bisect.bisect_left(node.keys, key)
            if idx < len(node.keys) and node.keys[idx] == key:
                node.values[idx].append(rid)
                return None
            node.keys.insert(idx, key)
            node.values.insert(idx, [rid])
            if len(node.keys) > self.order:
                return self._split_leaf(node)
            return None
        idx = bisect.bisect_right(node.keys, key)
        split = self._insert(node.children[idx], key, rid)
        if split is None:
            return None
        separator, right = split
        node.keys.insert(idx, separator)
        node.children.insert(idx + 1, right)
        if len(node.keys) > self.order:
            return self._split_interior(node)
        return None

    def _split_leaf(self, node: _Node) -> tuple[Any, _Node]:
        mid = len(node.keys) // 2
        right = _Node(is_leaf=True)
        right.keys = node.keys[mid:]
        right.values = node.values[mid:]
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        right.next_leaf = node.next_leaf
        node.next_leaf = right
        return right.keys[0], right

    def _split_interior(self, node: _Node) -> tuple[Any, _Node]:
        mid = len(node.keys) // 2
        separator = node.keys[mid]
        right = _Node(is_leaf=False)
        right.keys = node.keys[mid + 1:]
        right.children = node.children[mid + 1:]
        node.keys = node.keys[:mid]
        node.children = node.children[:mid + 1]
        return separator, right

    # -- lookups -----------------------------------------------------------
    def _find_leaf(self, key: Any) -> _Node:
        node = self._root
        while not node.is_leaf:
            idx = bisect.bisect_right(node.keys, key)
            node = node.children[idx]
        return node

    def _leftmost_leaf(self) -> _Node:
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        return node

    def search(self, key: Any) -> list[Any]:
        """Record ids for an exact key (empty list if absent)."""
        leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            return list(leaf.values[idx])
        return []

    def range_scan(self, low: Any = None,
                   high: Any = None) -> Iterator[tuple[Any, Any]]:
        """Yield (key, rid) pairs with low <= key <= high, in key order.

        ``None`` bounds are open ends.
        """
        if low is not None:
            leaf: Optional[_Node] = self._find_leaf(low)
        else:
            leaf = self._leftmost_leaf()
        while leaf is not None:
            for key, rids in zip(leaf.keys, leaf.values):
                if low is not None and key < low:
                    continue
                if high is not None and key > high:
                    return
                for rid in rids:
                    yield key, rid
            leaf = leaf.next_leaf

    def leaves_touched(self, low: Any = None, high: Any = None) -> int:
        """Leaf pages a range scan over [low, high] reads."""
        if low is not None:
            leaf: Optional[_Node] = self._find_leaf(low)
        else:
            leaf = self._leftmost_leaf()
        touched = 0
        while leaf is not None:
            touched += 1
            if high is not None and leaf.keys and leaf.keys[-1] > high:
                break
            leaf = leaf.next_leaf
        return touched

    def validate(self) -> None:
        """Check the structural invariants (testing aid)."""
        self._validate(self._root, None, None, depth=1)
        # leaves all at the same depth and keys globally sorted
        keys = [k for k, _ in self.range_scan()]
        if keys != sorted(keys):
            raise StorageError("leaf chain out of order")

    def _validate(self, node: _Node, low: Any, high: Any,
                  depth: int) -> None:
        if node.keys != sorted(node.keys):
            raise StorageError("node keys out of order")
        for key in node.keys:
            if low is not None and key < low:
                raise StorageError("key below subtree bound")
            if high is not None and key >= high:
                raise StorageError("key above subtree bound")
        if node.is_leaf:
            if depth != self._height:
                raise StorageError("leaf at wrong depth")
            if len(node.keys) != len(node.values):
                raise StorageError("leaf keys/values mismatch")
            return
        if len(node.children) != len(node.keys) + 1:
            raise StorageError("interior fanout mismatch")
        bounds = [low, *node.keys, high]
        for child, (lo, hi) in zip(node.children,
                                   zip(bounds, bounds[1:])):
            self._validate(child, lo, hi, depth + 1)
