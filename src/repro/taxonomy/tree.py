"""The :class:`Taxonomy` forest over items and categories.

A taxonomy is an immutable forest: every node has at most one parent, leaves
are purchasable items, internal nodes are categories. Node identity is an
``int`` shared with the transaction id space, and an optional human-readable
name can be attached to any node.

Performance notes
-----------------
All relationship maps (parent, children, ancestors) are materialized at
construction, so every query used on the mining hot path — ``parent``,
``children``, ``siblings``, ``ancestors`` — is a dictionary lookup returning
a pre-built tuple.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from ..errors import TaxonomyError

_EMPTY: tuple[int, ...] = ()


class Taxonomy:
    """An immutable forest of items (leaves) and categories (internal nodes).

    Parameters
    ----------
    parents:
        Mapping from child node id to parent node id. Nodes that appear only
        as parents (or in *extra_roots*) become roots.
    names:
        Optional mapping from node id to display name. Unnamed nodes render
        as ``item:<id>``.
    extra_roots:
        Node ids with no children and no parent (isolated items). These are
        valid leaf items that simply do not belong to any category.
    """

    __slots__ = (
        "_parent",
        "_children",
        "_ancestors",
        "_roots",
        "_leaves",
        "_categories",
        "_names",
        "_ids_by_name",
        "_depth",
    )

    def __init__(
        self,
        parents: Mapping[int, int],
        names: Mapping[int, str] | None = None,
        extra_roots: Iterable[int] = (),
    ) -> None:
        parent: dict[int, int] = dict(parents)
        children: dict[int, list[int]] = {}
        nodes: set[int] = set(parent)
        for child, node_parent in parent.items():
            if child == node_parent:
                raise TaxonomyError(f"node {child} is its own parent")
            nodes.add(node_parent)
            children.setdefault(node_parent, []).append(child)
        for root in extra_roots:
            nodes.add(root)

        self._parent = parent
        self._children: dict[int, tuple[int, ...]] = {
            node: tuple(sorted(kids)) for node, kids in children.items()
        }
        self._roots: tuple[int, ...] = tuple(
            sorted(node for node in nodes if node not in parent)
        )
        self._leaves: frozenset[int] = frozenset(
            node for node in nodes if node not in self._children
        )
        self._categories: frozenset[int] = frozenset(self._children)
        self._names: dict[int, str] = dict(names or {})
        self._ids_by_name: dict[str, int] = {}
        for node, name in self._names.items():
            if name in self._ids_by_name:
                raise TaxonomyError(f"duplicate node name {name!r}")
            self._ids_by_name[name] = node

        self._ancestors: dict[int, tuple[int, ...]] = {}
        self._depth: dict[int, int] = {}
        self._build_ancestors(nodes)

    def _build_ancestors(self, nodes: set[int]) -> None:
        """Materialize ancestor chains, detecting cycles along the way."""
        for node in nodes:
            chain: list[int] = []
            seen = {node}
            current = self._parent.get(node)
            while current is not None:
                if current in seen:
                    raise TaxonomyError(f"cycle detected at node {current}")
                seen.add(current)
                chain.append(current)
                current = self._parent.get(current)
            self._ancestors[node] = tuple(chain)
            self._depth[node] = len(chain)

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def __contains__(self, node: int) -> bool:
        return node in self._ancestors

    def __len__(self) -> int:
        return len(self._ancestors)

    def __iter__(self):
        return iter(sorted(self._ancestors))

    @property
    def nodes(self) -> tuple[int, ...]:
        """All node ids, sorted."""
        return tuple(sorted(self._ancestors))

    @property
    def roots(self) -> tuple[int, ...]:
        return self._roots

    @property
    def leaves(self) -> frozenset[int]:
        """Items that can occur in transactions."""
        return self._leaves

    @property
    def categories(self) -> frozenset[int]:
        """Internal nodes."""
        return self._categories

    def is_leaf(self, node: int) -> bool:
        self._require(node)
        return node in self._leaves

    def parent(self, node: int) -> int | None:
        """The parent of *node*, or None for a root."""
        self._require(node)
        return self._parent.get(node)

    def children(self, node: int) -> tuple[int, ...]:
        """Immediate descendants of *node* (empty for leaves)."""
        self._require(node)
        return self._children.get(node, _EMPTY)

    def siblings(self, node: int) -> tuple[int, ...]:
        """Other children of *node*'s parent (empty for roots)."""
        self._require(node)
        node_parent = self._parent.get(node)
        if node_parent is None:
            return _EMPTY
        return tuple(
            kid for kid in self._children[node_parent] if kid != node
        )

    def ancestors(self, node: int) -> tuple[int, ...]:
        """Ancestors of *node*, nearest first (excludes *node*)."""
        self._require(node)
        return self._ancestors[node]

    def is_ancestor(self, ancestor: int, node: int) -> bool:
        """True when *ancestor* lies on the path from *node* to its root."""
        return ancestor in self._ancestors[node]

    def depth(self, node: int) -> int:
        """Distance from *node* to its root (roots have depth 0)."""
        self._require(node)
        return self._depth[node]

    @property
    def height(self) -> int:
        """Length of the longest root-to-node path."""
        return max(self._depth.values(), default=0)

    def descendants(self, node: int) -> tuple[int, ...]:
        """All strict descendants of *node*, sorted."""
        self._require(node)
        found: list[int] = []
        stack = list(self._children.get(node, _EMPTY))
        while stack:
            current = stack.pop()
            found.append(current)
            stack.extend(self._children.get(current, _EMPTY))
        return tuple(sorted(found))

    def leaf_descendants(self, node: int) -> tuple[int, ...]:
        """Leaves below *node*; *node* itself when it is a leaf."""
        self._require(node)
        if node in self._leaves:
            return (node,)
        return tuple(
            kid for kid in self.descendants(node) if kid in self._leaves
        )

    def fanout(self) -> float:
        """Average number of children per internal node."""
        if not self._categories:
            return 0.0
        total = sum(len(self._children[node]) for node in self._categories)
        return total / len(self._categories)

    # ------------------------------------------------------------------
    # Names
    # ------------------------------------------------------------------
    def name_of(self, node: int) -> str:
        """Display name of *node* (falls back to ``item:<id>``)."""
        self._require(node)
        return self._names.get(node, f"item:{node}")

    def id_of(self, name: str) -> int:
        """Node id registered under *name*.

        Raises :class:`TaxonomyError` for unknown names.
        """
        try:
            return self._ids_by_name[name]
        except KeyError:
            raise TaxonomyError(f"unknown node name {name!r}") from None

    def format_itemset(self, items: Iterable[int]) -> str:
        """Render an itemset as ``{name, name, ...}`` for reports."""
        return "{" + ", ".join(self.name_of(item) for item in items) + "}"

    # ------------------------------------------------------------------
    # Export / misc
    # ------------------------------------------------------------------
    def parent_map(self) -> dict[int, int]:
        """A copy of the child -> parent mapping."""
        return dict(self._parent)

    def names_map(self) -> dict[int, str]:
        """A copy of the node -> name mapping."""
        return dict(self._names)

    def ancestor_closure(self, items: Iterable[int]) -> frozenset[int]:
        """Items plus every ancestor of every item.

        This is the transaction extension that defines generalized
        support: an extended transaction supports a category whenever it
        contains one of its descendants.
        """
        closed: set[int] = set()
        for item in items:
            chain = self._ancestors.get(item)
            if chain is None:
                raise TaxonomyError(f"unknown node {item}")
            closed.add(item)
            closed.update(chain)
        return frozenset(closed)

    def require_known(self, items: Iterable[int]) -> None:
        """Raise :class:`TaxonomyError` naming the smallest unknown item.

        The vertical counting engines never extend rows with
        :meth:`ancestor_closure`, so the engine binding calls this over
        a database's distinct items to reject the same inputs the
        row-scanning engines reject.
        """
        unknown = [item for item in items if item not in self._ancestors]
        if unknown:
            raise TaxonomyError(f"unknown node {min(unknown)}")

    def _require(self, node: int) -> None:
        if node not in self._ancestors:
            raise TaxonomyError(f"unknown node {node}")

    def __repr__(self) -> str:
        return (
            f"Taxonomy(nodes={len(self)}, leaves={len(self._leaves)}, "
            f"categories={len(self._categories)}, roots={len(self._roots)}, "
            f"height={self.height})"
        )
