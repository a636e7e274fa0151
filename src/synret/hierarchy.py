"""Four-level caption hierarchy built from a dependency parse.

Layer 1 is a single whole-sentence node. Layer 2 holds the verbs (or a
synthetic EXIST node when there are none), layer 3 the entity mentions
(NOUN/PROPN/PRON), layer 4 the adjectives that modify a layer-3 entity.
Every child has exactly one parent, so the structure is a tree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .conllu import ADJ_TAG, NOUN_TAGS, VERB_TAG, ParsedToken
from .errors import DataError


@dataclass
class Node:
    node_id: int
    layer: int
    token_position: int | None  # None for the whole node and the EXIST node
    parent_id: int | None       # None for the whole node
    children: list[int] = field(default_factory=list)


@dataclass
class SyntaxHierarchy:
    layers: list[list[Node]]  # exactly 4 lists
    exist_node_used: bool


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

    # noun -> governing verb: nearest verb on the head chain toward the root
    noun_parent_verb: dict[int, int | None] = {}
    need_exist = not verbs
    for noun in nouns:
        parent = None
        for anc in _walk_heads(noun, by_index):
            if anc.upos == VERB_TAG:
                parent = anc.index
                break
        noun_parent_verb[noun.index] = parent
        if parent is None:
            need_exist = True

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

    whole = Node(node_id=0, layer=1, token_position=None, parent_id=None)
    next_id = 1

    layer2: list[Node] = []
    verb_node_by_pos: dict[int, Node] = {}
    for v in verbs:
        node = Node(node_id=next_id, layer=2, token_position=v.index, parent_id=0)
        next_id += 1
        layer2.append(node)
        verb_node_by_pos[v.index] = node
    exist_node: Node | None = None
    if need_exist:
        exist_node = Node(node_id=next_id, layer=2, token_position=None, parent_id=0)
        next_id += 1
        layer2.append(exist_node)
    whole.children = [n.node_id for n in layer2]

    layer3: list[Node] = []
    noun_node_by_pos: dict[int, Node] = {}
    for t in nouns:
        verb_pos = noun_parent_verb[t.index]
        parent = verb_node_by_pos[verb_pos] if verb_pos is not None else exist_node
        node = Node(node_id=next_id, layer=3, token_position=t.index, parent_id=parent.node_id)
        next_id += 1
        parent.children.append(node.node_id)
        layer3.append(node)
        noun_node_by_pos[t.index] = node

    layer4: list[Node] = []
    for t in tokens:
        if t.upos != ADJ_TAG or t.index not in adj_parent_noun:
            continue
        parent = noun_node_by_pos[adj_parent_noun[t.index]]
        node = Node(node_id=next_id, layer=4, token_position=t.index, parent_id=parent.node_id)
        next_id += 1
        parent.children.append(node.node_id)
        layer4.append(node)

    return SyntaxHierarchy(
        layers=[[whole], layer2, layer3, layer4],
        exist_node_used=exist_node is not None,
    )


def validate_hierarchy(h: SyntaxHierarchy) -> None:
    """Raise DataError if any structural invariant is violated."""
    if len(h.layers) != 4:
        raise DataError("hierarchy must have exactly 4 layers")
    if len(h.layers[0]) != 1:
        raise DataError("layer 1 must contain exactly the whole node")
    if not h.layers[1]:
        raise DataError("layer 2 must contain at least one node")

    nodes = {}
    for depth, layer in enumerate(h.layers, start=1):
        for node in layer:
            if node.layer != depth:
                raise DataError(f"node {node.node_id} tagged layer {node.layer} but stored in layer {depth}")
            if node.node_id in nodes:
                raise DataError(f"duplicate node id {node.node_id}")
            nodes[node.node_id] = node

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
    if h.exist_node_used != (exist_count == 1):
        raise DataError("exist_node_used flag inconsistent with layer 2 contents")

    for depth in (1, 2, 3):
        next_layer = h.layers[depth]
        for node in h.layers[depth - 1]:
            expected = [c.node_id for c in next_layer if c.parent_id == node.node_id]
            if node.children != expected:
                raise DataError(
                    f"node {node.node_id} children {node.children} != inverse parent links {expected}"
                )
    for node in h.layers[3]:
        if node.children:
            raise DataError(f"layer-4 node {node.node_id} cannot have children")


# ---------------------------------------------------------------------------
# Canonical JSON form (byte-deterministic, used for golden files)
# ---------------------------------------------------------------------------


def hierarchy_to_json(h: SyntaxHierarchy) -> str:
    doc = {
        "exist_node_used": h.exist_node_used,
        "layers": [
            [
                {
                    "node_id": n.node_id,
                    "layer": n.layer,
                    "token_position": n.token_position,
                    "parent_id": n.parent_id,
                    "children": n.children,
                }
                for n in layer
            ]
            for layer in h.layers
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def hierarchy_from_json(text: str | bytes) -> SyntaxHierarchy:
    try:  # ValueError covers bytes that are not UTF-8 as well as bad JSON
        doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except ValueError as e:
        raise DataError(f"hierarchy json: {e}") from None
    try:
        layers = [
            [
                Node(
                    node_id=int(n["node_id"]),
                    layer=int(n["layer"]),
                    token_position=None if n["token_position"] is None else int(n["token_position"]),
                    parent_id=None if n["parent_id"] is None else int(n["parent_id"]),
                    children=[int(c) for c in n["children"]],
                )
                for n in layer
            ]
            for layer in doc["layers"]
        ]
        h = SyntaxHierarchy(layers=layers, exist_node_used=bool(doc["exist_node_used"]))
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"hierarchy json: schema violation ({e})") from None
    validate_hierarchy(h)
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
