"""The connectivity tree rooted at the base station.

Both schemes organise connected sensors into a tree rooted at the base
station (the reference point ``O``).  The tree provides:

* parent / children / ancestor bookkeeping,
* loop detection when re-parenting (CPVF's parent changes, FLOOR's phase-2
  re-homing of a movable sensor's children),
* the subtree-locking handshake CPVF uses before a parent change,
* hop counts for routing messages up the tree (used for message accounting).

The base station is represented by the pseudo-identifier
:data:`BASE_STATION_ID` so that tree logic does not need a special-case
``Sensor`` object for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

__all__ = ["BASE_STATION_ID", "ConnectivityTree"]

#: Pseudo node id used for the base station / reference point.
BASE_STATION_ID = -1


@dataclass
class ConnectivityTree:
    """A rooted tree over sensor ids, with the base station as the root."""

    parent: Dict[int, int] = field(default_factory=dict)
    children: Dict[int, Set[int]] = field(default_factory=dict)
    #: Monotone counter bumped on every structural mutation.  Consumers
    #: that derive structures from the tree (the CPVF link-id cache) key
    #: their caches on it, so an unchanged tree never recomputes anything.
    version: int = 0

    # ------------------------------------------------------------------
    # Membership and structure
    # ------------------------------------------------------------------
    def __contains__(self, node_id: int) -> bool:
        return node_id == BASE_STATION_ID or node_id in self.parent

    def members(self) -> List[int]:
        """All sensor ids currently attached to the tree."""
        return list(self.parent.keys())

    def parent_of(self, node_id: int) -> Optional[int]:
        """Parent of ``node_id`` (``None`` for the base station or outsiders)."""
        return self.parent.get(node_id)

    def children_of(self, node_id: int) -> Set[int]:
        """Direct children of ``node_id``."""
        return set(self.children.get(node_id, set()))

    def ancestors_of(self, node_id: int) -> List[int]:
        """Ancestor chain from the parent of ``node_id`` up to the root."""
        chain: List[int] = []
        parent = self.parent
        # A chain of distinct members is at most as long as the tree.
        limit = len(parent)
        current = parent.get(node_id)
        while current is not None and current != BASE_STATION_ID:
            if len(chain) == limit:
                raise RuntimeError("cycle detected in connectivity tree")
            chain.append(current)
            current = parent.get(current)
        chain.append(BASE_STATION_ID)
        return chain

    def depth_of(self, node_id: int) -> int:
        """Number of hops from ``node_id`` to the base station."""
        if node_id == BASE_STATION_ID:
            return 0
        return len(self.ancestors_of(node_id))

    def subtree_of(self, node_id: int) -> Set[int]:
        """All ids in the subtree rooted at ``node_id`` (inclusive)."""
        result: Set[int] = {node_id}
        frontier = [node_id]
        while frontier:
            current = frontier.pop()
            for child in self.children.get(current, set()):
                if child not in result:
                    result.add(child)
                    frontier.append(child)
        return result

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def attach(self, node_id: int, parent_id: int) -> None:
        """Attach ``node_id`` under ``parent_id``.

        ``parent_id`` must be the base station or an existing member, and
        the attachment must not create a loop.
        """
        if parent_id != BASE_STATION_ID and parent_id not in self.parent:
            raise ValueError(f"parent {parent_id} is not in the tree")
        if node_id == parent_id:
            raise ValueError("a node cannot be its own parent")
        if node_id in self.parent or node_id in self.children:
            if self.would_create_loop(node_id, parent_id):
                raise ValueError("attachment would create a loop")
            self.detach(node_id, keep_subtree=True)
        self.parent[node_id] = parent_id
        self.children.setdefault(parent_id, set()).add(node_id)
        self.children.setdefault(node_id, set())
        self.version += 1

    def detach(self, node_id: int, keep_subtree: bool = True) -> None:
        """Remove ``node_id`` from its parent.

        With ``keep_subtree`` the node keeps its children (it becomes a
        floating subtree root until re-attached); otherwise the whole
        subtree is removed from the tree.
        """
        parent_id = self.parent.pop(node_id, None)
        if parent_id is not None:
            self.children.get(parent_id, set()).discard(node_id)
        if not keep_subtree:
            for child in list(self.children.get(node_id, set())):
                self.detach(child, keep_subtree=False)
            self.children.pop(node_id, None)
        self.version += 1

    def reparent(self, node_id: int, new_parent_id: int) -> bool:
        """Move ``node_id`` (with its subtree) under ``new_parent_id``.

        Returns ``False`` (and leaves the tree unchanged) when the move
        would create a loop or the new parent is unknown.
        """
        if new_parent_id != BASE_STATION_ID and new_parent_id not in self.parent:
            return False
        if self.would_create_loop(node_id, new_parent_id):
            return False
        old_parent = self.parent.get(node_id)
        if old_parent is not None:
            self.children.get(old_parent, set()).discard(node_id)
        self.parent[node_id] = new_parent_id
        self.children.setdefault(new_parent_id, set()).add(node_id)
        self.children.setdefault(node_id, set())
        self.version += 1
        return True

    # ------------------------------------------------------------------
    # Failure repair (node death)
    # ------------------------------------------------------------------
    def remove_node(self, node_id: int) -> List[int]:
        """Remove a dead node entirely; its children become floating roots.

        Each orphaned child keeps its own subtree (children entries intact)
        but loses its ``parent`` entry, exactly like a
        ``detach(keep_subtree=True)`` — the caller is expected to re-attach
        or discard every returned root, since :meth:`validate` rejects
        floating subtrees.  Returns the orphan roots in ascending id order.
        """
        if node_id not in self.parent:
            return []
        orphans = sorted(self.children.get(node_id, set()))
        parent_id = self.parent.pop(node_id)
        self.children.get(parent_id, set()).discard(node_id)
        for child in orphans:
            self.parent.pop(child, None)
        self.children.pop(node_id, None)
        self.version += 1
        return orphans

    def reroot_floating(self, root: int, new_root: int) -> None:
        """Re-root a floating subtree at one of its members.

        Reverses the parent pointers along the path ``new_root .. root`` so
        ``new_root`` becomes the subtree's (still floating) root — the
        repair step before attaching the subtree to the main tree through
        the member that actually has a live link into it.
        """
        if new_root == root:
            return
        chain = [new_root]
        current = new_root
        while current != root:
            current = self.parent[current]
            chain.append(current)
        for node, old_parent in zip(chain, chain[1:]):
            self.children.get(old_parent, set()).discard(node)
            self.parent[old_parent] = node
            self.children.setdefault(node, set()).add(old_parent)
        self.parent.pop(new_root, None)
        self.version += 1

    def discard_floating(self, root: int) -> List[int]:
        """Remove an unreachable floating subtree from the tree entirely.

        Returns the removed member ids (ascending).  Used when no member of
        an orphaned subtree has a link back to the main tree: those sensors
        fall out of the tree and must reconnect from scratch.
        """
        members = sorted(self.subtree_of(root))
        for member in members:
            self.parent.pop(member, None)
            self.children.pop(member, None)
        self.version += 1
        return members

    def would_create_loop(self, node_id: int, new_parent_id: int) -> bool:
        """Whether putting ``node_id`` under ``new_parent_id`` creates a loop."""
        if new_parent_id == node_id:
            return True
        if new_parent_id == BASE_STATION_ID:
            return False
        # A loop appears exactly when the new parent is in node's subtree.
        return new_parent_id in self.subtree_of(node_id)

    # ------------------------------------------------------------------
    # Subtree locking (CPVF parent-change handshake)
    # ------------------------------------------------------------------
    def lock_subtree_message_count(self, node_id: int) -> int:
        """Number of transmissions of a full LockTree + UnLockTree handshake.

        The request travels down the subtree (one transmission per edge) and
        the unlock travels back up, so the cost is twice the number of edges
        in the subtree.
        """
        size = len(self.subtree_of(node_id))
        edges = max(0, size - 1)
        return 2 * edges

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise ``RuntimeError`` if the structure is inconsistent."""
        for node_id, parent_id in self.parent.items():
            if parent_id != BASE_STATION_ID and parent_id not in self.parent:
                raise RuntimeError(f"node {node_id} has unknown parent {parent_id}")
            if node_id not in self.children.get(parent_id, set()):
                raise RuntimeError(
                    f"node {node_id} missing from children of {parent_id}"
                )
        for node_id in self.parent:
            # ancestors_of raises on cycles.
            self.ancestors_of(node_id)
