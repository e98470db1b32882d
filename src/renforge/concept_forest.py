"""Counted concept trees with base-splitting and dynamic cross-tree links.

A child may never count higher than its parent.  When repeated use pushes a
branch above its parent, the branch is detached and becomes the base of a
new tree, with a dynamic link preserving the original path.  Heavily used
concepts therefore migrate to tree bases, where searches enter them.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass

from .errors import (InvalidParameterError, NotFoundError, check_int, check_not_str,
                     check_str, reading_document)

LINK_LABEL = "M"


def tokenize(text: str) -> list[str]:
    """Whitespace-split, lowercased token sequence."""
    return check_str(text, "text", InvalidParameterError).lower().split()


class ConceptNode:
    __slots__ = ("label", "count", "children", "parent")

    def __init__(self, label: str, count: int = 0, parent: "ConceptNode | None" = None):
        self.label = label
        self.count = count
        self.children: list[ConceptNode] = []
        self.parent = parent

    def __repr__(self):
        return f"ConceptNode({self.label!r}, count={self.count})"


class DynamicLink:
    """Cross-tree edge from a node to the root of another tree."""

    __slots__ = ("from_node", "to_root", "label")

    def __init__(self, from_node: ConceptNode, to_root: ConceptNode,
                 label: str = LINK_LABEL):
        self.from_node = from_node
        self.to_root = to_root
        self.label = label


@dataclass(frozen=True)
class SplitEvent:
    label: str
    from_tree: int
    new_tree: int


@dataclass(frozen=True)
class SearchPath:
    """One maximal match: (tree index, labels) segments, links between them."""

    segments: tuple[tuple[int, tuple[str, ...]], ...]
    links_crossed: int
    tokens_matched: int
    complete: bool


def _preorder(root: ConceptNode):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def _search_path(trail, matched: int, wanted: int) -> SearchPath:
    """The match a search trail ends in (see ``ConceptForest.search``)."""
    segments: list[tuple[int, list[str]]] = []
    labels: list[str] = []
    while trail is not None:
        tree_index, label, trail = trail
        labels.append(label)
        if tree_index is not None:
            segments.append((tree_index, labels[::-1]))
            labels = []
    return SearchPath(segments=tuple((ti, tuple(ls)) for ti, ls in reversed(segments)),
                      links_crossed=len(segments) - 1, tokens_matched=matched,
                      complete=matched == wanted)


class ConceptForest:
    """Ordered collection of counted trees plus their dynamic links.

    Nodes and trees enter only through ``insert_sequence``, ``from_json``
    and ``split_if_violates``.  Each tree has at most one link into it, and
    ``links`` is in the order of those trees.  Treat ``trees`` and ``links``
    as read-only; a count may be edited in place, after which
    ``split_if_violates`` restores the count rule.
    """

    def __init__(self):
        self.trees: list[ConceptNode] = []
        self.links: list[DynamicLink] = []
        # The label index, like the header table of an FP-tree (Han, Pei &
        # Yin 2000): every node by label, the first tree whose root carries
        # each label, and each root's tree index.  Nodes and trees are only
        # appended and a root never gains a parent, so the three ways in
        # keep it by appending.
        self._nodes_with: dict[str, list[ConceptNode]] = {}
        self._first_root: dict[str, int] = {}
        self._root_index: dict[ConceptNode, int] = {}

    def _add_root(self, root: ConceptNode) -> int:
        """Append ``root`` as a new tree and return its index."""
        index = len(self.trees)
        self.trees.append(root)
        self._first_root.setdefault(root.label, index)
        self._root_index[root] = index
        return index

    def _new_node(self, label: str, parent: ConceptNode | None,
                  count: int = 0) -> ConceptNode:
        """Create a node as the last child of ``parent`` (a new tree if
        None) and index it by label."""
        node = ConceptNode(label, count, parent)
        if parent is None:
            self._add_root(node)
        else:
            parent.children.append(node)
        self._nodes_with.setdefault(label, []).append(node)
        return node

    def _address(self, node: ConceptNode) -> tuple[int, list[int]]:
        """(tree index, child-index path) of ``node``."""
        path = []
        while node.parent is not None:
            path.append(node.parent.children.index(node))
            node = node.parent
        path.reverse()
        return self.tree_index_of(node), path

    # -- mutation ----------------------------------------------------------

    def insert_sequence(self, tokens) -> list[SplitEvent]:
        """Insert one token sequence, then restore the count rule.

        The attachment point is the first root matching the head token; if
        none, the first non-root node matching it, tree by tree in level
        order; otherwise a new root.  Counts along the matched path
        increase by one and missing suffix nodes are created with count 1.

        The whole path below the attachment point rises together, so in a
        forest that obeys the count rule only the attachment point can
        outcount its parent; it is then split off.  Returns the split
        events, at most one.
        """
        toks = [check_str(tok, "token", InvalidParameterError)
                for tok in check_not_str(tokens, "tokens", InvalidParameterError)]
        if not toks:
            raise InvalidParameterError("token sequence is empty")
        tree_index, attached = self._attachment_point(toks[0])
        if attached is None:
            attached = self._new_node(toks[0], None)
        node = attached
        node.count += 1
        for tok in toks[1:]:
            for child in node.children:
                if child.label == tok:
                    break
            else:
                child = self._new_node(tok, node)
            child.count += 1
            node = child
        parent = attached.parent
        if parent is None or attached.count <= parent.count:
            return []
        return [self._detach(attached, tree_index)]

    def _attachment_point(self, label: str) -> tuple[int, ConceptNode | None]:
        """(tree index, node) of the attachment point; (-1, None) if none.

        With no root labelled ``label``, every indexed node with that label
        is a non-root, and the first one tree by tree in level order has the
        smallest (tree index, depth, child-index path).
        """
        index = self._first_root.get(label)
        if index is not None:
            return index, self.trees[index]
        best_key, best = None, []
        for node in self._nodes_with.get(label, ()):
            depth, top = 0, node
            while top.parent is not None:
                depth, top = depth + 1, top.parent
            key = (self._root_index[top], depth)
            if best_key is None or key < best_key:
                best_key, best = key, [node]
            elif key == best_key:
                best.append(node)
        if not best:
            return -1, None
        return best_key[0], min(best, key=self._address)

    def _detach(self, node: ConceptNode, tree_index: int) -> SplitEvent:
        """Make ``node``, held by tree ``tree_index``, the base of a new tree
        linked from its old parent."""
        parent = node.parent
        parent.children.remove(node)
        node.parent = None
        self.links.append(DynamicLink(parent, node))
        return SplitEvent(node.label, tree_index, self._add_root(node))

    def split_if_violates(self) -> list[SplitEvent]:
        """Detach every over-counted branch into a new linked base tree.

        Walks each tree root-down, lowest tree index first.  A detached
        branch is appended as a new tree and walked when the loop reaches
        it; a split changes no count, so one walk restores the count rule
        forest-wide.  Applying it twice equals once.  Inserts and
        ``from_json`` keep the rule by themselves; this repairs counts
        edited in place.
        """
        events: list[SplitEvent] = []
        for tree_index, root in enumerate(self.trees):
            queue = deque([root])
            while queue:
                node = queue.popleft()
                parent = node.parent
                if parent is None or node.count <= parent.count:
                    queue.extend(node.children)
                else:
                    events.append(self._detach(node, tree_index))
        return events

    def ingest_lines(self, lines) -> int:
        """Insert one whitespace-tokenized sequence per non-empty line of
        ``lines``, a collection of strings, not one string."""
        inserted = 0
        for line in check_not_str(lines, "lines", InvalidParameterError):
            toks = tokenize(check_str(line, "line", InvalidParameterError))
            if toks:
                self.insert_sequence(toks)
                inserted += 1
        return inserted

    # -- queries -----------------------------------------------------------

    def search(self, query) -> list[SearchPath]:
        """All maximal matches for the query, entered through matching roots.

        Descent follows child labels; at any node a dynamic link may be
        crossed when the linked root matches the next token.  A path that
        consumes every token is complete.
        """
        q = [check_str(tok, "token", InvalidParameterError)
             for tok in check_not_str(query, "query", InvalidParameterError)]
        if not q:
            raise InvalidParameterError("query is empty")
        # Depth-first over an explicit stack, so a long query cannot reach
        # the recursion limit.  An entry is (node, tokens matched, trail); a
        # trail is (tree index or None, label, previous trail), where a tree
        # index opens a new segment.  Extensions are pushed in reverse, so
        # they are explored children first, then links, each in list order.
        stack = [(root, 1, (tree_index, root.label, None))
                 for tree_index, root in enumerate(self.trees) if root.label == q[0]]
        stack.reverse()
        results: list[SearchPath] = []
        while stack:
            node, qi, trail = stack.pop()
            grown = []
            if qi < len(q):
                grown = [(child, qi + 1, (None, child.label, trail))
                         for child in node.children if child.label == q[qi]]
                grown += [(link.to_root, qi + 1,
                           (self.tree_index_of(link.to_root), link.to_root.label, trail))
                          for link in self.links_from(node) if link.to_root.label == q[qi]]
            if grown:
                stack.extend(reversed(grown))
            else:
                results.append(_search_path(trail, qi, len(q)))
        return results

    def terminal_nodes(self, tree_index: int) -> list[ConceptNode]:
        """Leaves of one tree: no children and no outgoing links."""
        check_int(tree_index, "tree_index", NotFoundError, 0, len(self.trees) - 1)
        linked = {id(link.from_node) for link in self.links}
        return [node for node in _preorder(self.trees[tree_index])
                if not node.children and id(node) not in linked]

    def links_from(self, node: ConceptNode) -> list[DynamicLink]:
        return [link for link in self.links if link.from_node is node]

    def tree_index_of(self, root: ConceptNode) -> int:
        index = self._root_index.get(root)
        if index is None:
            raise NotFoundError(f"node {root.label!r} is not a tree root")
        return index

    def count_rule_holds(self) -> bool:
        return all(child.count <= node.count
                   for root in self.trees
                   for node in _preorder(root)
                   for child in node.children)

    def node_count(self) -> int:
        return sum(1 for root in self.trees for _ in _preorder(root))

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        """Nested JSON form; raises InvalidParameterError for a forest too
        deep for the JSON encoder to nest."""
        def node_doc(node):
            return {"label": node.label, "count": node.count,
                    "children": [node_doc(c) for c in node.children]}

        # One link enters each tree, so ``to_tree`` settles every tie.
        link_docs = [{"from_tree": tree, "from_path": path, "to_tree": to_tree, "label": label}
                     for tree, path, to_tree, label in sorted(
                         (*self._address(link.from_node), self.tree_index_of(link.to_root),
                          link.label) for link in self.links)]
        try:
            return json.dumps({"trees": [node_doc(r) for r in self.trees],
                               "links": link_docs}, allow_nan=False)
        except RecursionError:
            depth, level = 0, self.trees
            while level:
                depth, level = depth + 1, [c for node in level for c in node.children]
            raise InvalidParameterError(
                f"forest is {depth} levels deep, too deep to write as nested JSON") from None

    @classmethod
    def from_json(cls, text: str) -> "ConceptForest":
        forest = cls()
        error = InvalidParameterError

        def at(items, index):
            return items[check_int(index, "index", error, 0)]

        with reading_document("forest"):
            doc = json.loads(text)
            # Depth-first over an explicit stack, children in document order.
            for tree_doc in doc["trees"]:
                stack = [(tree_doc, None)]
                while stack:
                    entry, parent = stack.pop()
                    label = check_str(entry["label"], "label", error)
                    limit = math.inf if parent is None else parent.count
                    count = check_int(entry["count"], f"count of {label!r}", error, 1, limit)
                    node = forest._new_node(label, parent, count)
                    stack.extend((child, node) for child in reversed(entry["children"]))
            # A split appends a new tree and the one link into it, so a live
            # forest holds its links in the order of the trees they enter.
            into: dict[int, DynamicLink] = {}
            for link_doc in doc["links"]:
                root = node = at(forest.trees, link_doc["from_tree"])
                for index in link_doc["from_path"]:
                    node = at(node.children, index)
                label = check_str(link_doc["label"], "link label", error)
                to_tree = check_int(link_doc["to_tree"], "to_tree", error, 0)
                to_root = forest.trees[to_tree]
                if to_root is root:
                    raise error(f"link {link_doc!r} leads into its own tree")
                if to_tree in into:
                    raise error(f"link {link_doc!r} is a second link into tree {to_tree}")
                into[to_tree] = DynamicLink(node, to_root, label)
            forest.links = [into[to_tree] for to_tree in sorted(into)]
        return forest
