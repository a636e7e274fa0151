"""Four-level caption hierarchy built from a dependency parse.

Layer 1 is a single whole-sentence node. Layer 2 holds the verbs (or a
synthetic EXIST node when there are none), layer 3 the entity mentions
(NOUN/PROPN/PRON), layer 4 the adjectives that modify a layer-3 entity.
Every child has exactly one parent, so the structure is a tree.

Each fact is held once: a node stores its parent, and its layer, its
children and the EXIST flag are derived from the layer lists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .conllu import ADJ_TAG, NOUN_TAGS, VERB_TAG, ParsedToken
from .errors import DataError


@dataclass
class Node:
    node_id: int
    token_position: int | None  # None for the whole node and the EXIST node
    parent_id: int | None       # None for the whole node


@dataclass
class SyntaxHierarchy:
    """A node's layer is the place of its list in `layers`."""

    layers: list[list[Node]]  # exactly 4 lists

    @property
    def exist_node_used(self) -> bool:
        """Layer 2 holds the EXIST node, its one node without a token."""
        return any(n.token_position is None for n in self.layers[1])

    def children(self, i: int) -> list[list[int]]:
        """The child ids of each node in `layers[i]`: the nodes of the next
        layer that name it as parent, in list order. Layer 4 has none."""
        below = self.layers[i + 1] if i + 1 < len(self.layers) else []
        return [[c.node_id for c in below if c.parent_id == n.node_id] for n in self.layers[i]]


def _walk_heads(start: ParsedToken, by_index: dict[int, ParsedToken]):
    """Yield the ancestors of a token along head links, stopping at the root.

    Guards against head cycles in malformed input by tracking visits.
    """
    seen = {start.index}
    head = start.head
    while head != 0 and head not in seen:
        seen.add(head)
        tok = by_index[head]
        yield tok
        head = tok.head


def build_hierarchy(tokens: list[ParsedToken]) -> SyntaxHierarchy:
    """Deterministic: node ids are assigned in layer order, then token order."""
    by_index = {t.index: t for t in tokens}

    verbs = [t for t in tokens if t.upos == VERB_TAG]
    nouns = [t for t in tokens if t.upos in NOUN_TAGS]

    # noun -> governing verb: nearest verb on the head chain toward the root,
    # or None, and then the noun hangs off the EXIST node
    noun_parent_verb: dict[int, int | None] = {}
    for noun in nouns:
        noun_parent_verb[noun.index] = None
        for anc in _walk_heads(noun, by_index):
            if anc.upos == VERB_TAG:
                noun_parent_verb[noun.index] = anc.index
                break

    # adjective -> modified noun: a layer-3 entity must appear on the head
    # chain before any verb; otherwise the adjective is dropped
    noun_positions = {t.index for t in nouns}
    adj_parent_noun: dict[int, int] = {}
    for tok in tokens:
        if tok.upos != ADJ_TAG:
            continue
        for anc in _walk_heads(tok, by_index):
            if anc.index in noun_positions:
                adj_parent_noun[tok.index] = anc.index
                break
            if anc.upos == VERB_TAG:
                break

    whole = Node(node_id=0, token_position=None, parent_id=None)
    layer2 = [Node(node_id=i, token_position=v.index, parent_id=0) for i, v in enumerate(verbs, 1)]
    if not verbs or None in noun_parent_verb.values():
        layer2.append(Node(node_id=len(layer2) + 1, token_position=None, parent_id=0))
    # parent ids by token position; the EXIST node's position is None
    action_id = {n.token_position: n.node_id for n in layer2}
    layer3 = [Node(node_id=i, token_position=t.index, parent_id=action_id[noun_parent_verb[t.index]])
              for i, t in enumerate(nouns, 1 + len(layer2))]
    entity_id = {n.token_position: n.node_id for n in layer3}
    layer4 = [Node(node_id=i, token_position=adj, parent_id=entity_id[noun])
              for i, (adj, noun) in enumerate(adj_parent_noun.items(), 1 + len(layer2) + len(layer3))]
    return SyntaxHierarchy(layers=[[whole], layer2, layer3, layer4])


def validate_hierarchy(h: SyntaxHierarchy) -> None:
    """Raise DataError if any structural invariant is violated. Layers,
    children and the EXIST flag are derived, so they need no check here."""
    if len(h.layers) != 4:
        raise DataError("hierarchy must have exactly 4 layers")
    if len(h.layers[0]) != 1:
        raise DataError("layer 1 must contain exactly the whole node")
    if not h.layers[1]:
        raise DataError("layer 2 must contain at least one node")

    ids = set()
    for layer in h.layers:
        for node in layer:
            if node.node_id in ids:
                raise DataError(f"duplicate node id {node.node_id}")
            ids.add(node.node_id)

    whole = h.layers[0][0]
    if whole.parent_id is not None or whole.token_position is not None:
        raise DataError("whole node must have no parent and no token position")

    exist_count = 0
    positions = []
    for depth in (2, 3, 4):
        parent_ids = {n.node_id for n in h.layers[depth - 2]}
        for node in h.layers[depth - 1]:
            if node.parent_id not in parent_ids:
                raise DataError(f"node {node.node_id} parent {node.parent_id} not in layer {depth - 1}")
            if node.token_position is None:
                if depth != 2:
                    raise DataError(f"node {node.node_id} in layer {depth} lacks a token position")
                exist_count += 1
            else:
                if node.token_position < 1:
                    raise DataError(f"node {node.node_id} has non-positive token position")
                positions.append(node.token_position)
    if len(set(positions)) != len(positions):
        raise DataError("token positions of hierarchy nodes must be distinct")
    if exist_count > 1:
        raise DataError("at most one EXIST node is allowed")


# ---------------------------------------------------------------------------
# Canonical JSON form (byte-deterministic, used for golden files)
# ---------------------------------------------------------------------------


def hierarchy_to_json(h: SyntaxHierarchy) -> str:
    """`layer`, `children` and `exist_node_used` are written from the
    derived values."""
    doc = {
        "exist_node_used": h.exist_node_used,
        "layers": [
            [
                {
                    "node_id": n.node_id,
                    "layer": depth,
                    "token_position": n.token_position,
                    "parent_id": n.parent_id,
                    "children": children,
                }
                for n, children in zip(layer, h.children(depth - 1))
            ]
            for depth, layer in enumerate(h.layers, start=1)
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def hierarchy_from_json(text: str | bytes) -> SyntaxHierarchy:
    """A tree from outside the program: besides the structural checks, the
    document's `layer`, `children` and `exist_node_used` must equal the
    values derived from its nodes."""
    try:  # ValueError covers bytes that are not UTF-8 as well as bad JSON
        doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except ValueError as e:
        raise DataError(f"hierarchy json: {e}") from None
    try:
        layers = [
            [
                Node(
                    node_id=int(n["node_id"]),
                    token_position=None if n["token_position"] is None else int(n["token_position"]),
                    parent_id=None if n["parent_id"] is None else int(n["parent_id"]),
                )
                for n in layer
            ]
            for layer in doc["layers"]
        ]
        stated = [[(int(n["layer"]), [int(c) for c in n["children"]]) for n in layer]
                  for layer in doc["layers"]]
        exist_node_used = bool(doc["exist_node_used"])
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"hierarchy json: schema violation ({e})") from None
    h = SyntaxHierarchy(layers=layers)
    validate_hierarchy(h)
    for depth, (layer, tags) in enumerate(zip(layers, stated), start=1):
        for node, (tag, children), derived in zip(layer, tags, h.children(depth - 1)):
            if tag != depth:
                raise DataError(f"node {node.node_id} tagged layer {tag} but stored in layer {depth}")
            if children != derived:
                raise DataError(f"node {node.node_id} children {children} != inverse parent links {derived}")
    if exist_node_used != h.exist_node_used:
        raise DataError("exist_node_used flag inconsistent with layer 2 contents")
    return h


# ---------------------------------------------------------------------------
# Flat index view used by the numeric pipeline
# ---------------------------------------------------------------------------


@dataclass
class HierarchyIndex:
    """Positions and parent pointers as flat lists, in layer order.

    mu2[i] is None exactly for the EXIST action node. parent3[i] indexes into
    the layer-2 list; adj_children[i] indexes into the layer-4 mu4 list.
    """

    mu2: list[int | None]
    mu3: list[int]
    mu4: list[int]
    parent3: list[int]
    adj_children: list[list[int]]

    @property
    def n_actions(self) -> int:
        return len(self.mu2)

    @property
    def n_entities(self) -> int:
        return len(self.mu3)


def index_hierarchy(h: SyntaxHierarchy) -> HierarchyIndex:
    pos2 = {n.node_id: i for i, n in enumerate(h.layers[1])}
    pos3 = {n.node_id: i for i, n in enumerate(h.layers[2])}
    mu2 = [n.token_position for n in h.layers[1]]
    mu3 = [n.token_position for n in h.layers[2]]
    mu4 = [n.token_position for n in h.layers[3]]
    parent3 = [pos2[n.parent_id] for n in h.layers[2]]
    adj_children: list[list[int]] = [[] for _ in h.layers[2]]
    for j, n in enumerate(h.layers[3]):
        adj_children[pos3[n.parent_id]].append(j)
    return HierarchyIndex(mu2=mu2, mu3=mu3, mu4=mu4, parent3=parent3, adj_children=adj_children)
