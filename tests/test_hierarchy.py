"""Hierarchy construction rules, serialization, and structural invariants."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synret.conllu import ParsedToken, parse_conllu
from synret.errors import DataError
from synret.hierarchy import (
    build_hierarchy,
    hierarchy_from_json,
    hierarchy_to_json,
    index_hierarchy,
    validate_hierarchy,
)

from conftest import GOLDEN_NAMES


def tok(i, form, upos, head, deprel="dep"):
    return ParsedToken(index=i, form=form, upos=upos, head=head, deprel=deprel)


def positions(layer):
    return [n.token_position for n in layer]


class TestLayerAssignment:
    def test_simple_verb_noun(self):
        # "a man is singing": noun climbs a/aux-free chain to the verb
        toks = [
            tok(1, "a", "DET", 2),
            tok(2, "man", "NOUN", 4),
            tok(3, "is", "AUX", 4),
            tok(4, "singing", "VERB", 0),
        ]
        h = build_hierarchy(toks)
        validate_hierarchy(h)
        assert positions(h.layers[1]) == [4]
        assert positions(h.layers[2]) == [2]
        assert h.layers[2][0].parent_id == h.layers[1][0].node_id
        assert h.layers[3] == []
        assert not h.exist_node_used

    def test_verbless_gets_exist(self):
        # "red cars": no verb, the adjective still hangs off the noun
        toks = [tok(1, "red", "ADJ", 2), tok(2, "cars", "NOUN", 0)]
        h = build_hierarchy(toks)
        validate_hierarchy(h)
        assert h.exist_node_used
        assert positions(h.layers[1]) == [None]
        assert positions(h.layers[2]) == [2]
        assert positions(h.layers[3]) == [1]
        assert h.layers[3][0].parent_id == h.layers[2][0].node_id

    def test_punctuation_only(self):
        toks = [tok(1, ".", "PUNCT", 0), tok(2, ".", "PUNCT", 1)]
        h = build_hierarchy(toks)
        validate_hierarchy(h)
        assert h.exist_node_used
        assert len(h.layers[1]) == 1
        assert h.layers[2] == [] and h.layers[3] == []

    def test_aux_is_not_a_verb(self):
        toks = [tok(1, "it", "PRON", 2), tok(2, "is", "AUX", 0)]
        h = build_hierarchy(toks)
        assert h.exist_node_used
        assert positions(h.layers[1]) == [None]

    def test_pron_and_propn_are_entities(self):
        toks = [tok(1, "alice", "PROPN", 2), tok(2, "sees", "VERB", 0), tok(3, "it", "PRON", 2)]
        h = build_hierarchy(toks)
        assert positions(h.layers[2]) == [1, 3]

    def test_orphan_noun_attaches_to_ondemand_exist(self):
        toks = [
            tok(1, "dog", "NOUN", 2),
            tok(2, "barks", "VERB", 0),
            tok(3, "music", "NOUN", 0),  # fragment root, no verb on its chain
        ]
        h = build_hierarchy(toks)
        validate_hierarchy(h)
        assert h.exist_node_used
        assert positions(h.layers[1]) == [2, None]  # verbs first, filler appended
        exist = h.layers[1][1]
        assert h.layers[2][1].parent_id == exist.node_id

    def test_noun_walks_through_nouns_to_verb(self, golden_dir):
        # "a man in a hat sings": hat -> man -> sings
        h = build_hierarchy(parse_conllu((golden_dir / "deep_chain.conllu").read_text()))
        assert positions(h.layers[2]) == [2, 5]
        assert all(n.parent_id == h.layers[1][0].node_id for n in h.layers[2])

    def test_adjective_blocked_by_verb_is_dropped(self):
        # adjective whose chain meets a verb before any entity
        toks = [
            tok(1, "man", "NOUN", 2),
            tok(2, "runs", "VERB", 0),
            tok(3, "fast", "ADJ", 2),
        ]
        h = build_hierarchy(toks)
        assert h.layers[3] == []

    def test_adjective_at_root_is_dropped(self):
        toks = [tok(1, "sky", "NOUN", 2), tok(2, "blue", "ADJ", 0)]
        h = build_hierarchy(toks)
        assert h.layers[3] == []

    def test_adjective_chain_through_adjective(self):
        # ADJ -> ADJ -> NOUN keeps the outer adjective
        toks = [
            tok(1, "dark", "ADJ", 2),
            tok(2, "red", "ADJ", 3),
            tok(3, "car", "NOUN", 4),
            tok(4, "stops", "VERB", 0),
        ]
        h = build_hierarchy(toks)
        assert positions(h.layers[3]) == [1, 2]
        assert all(n.parent_id == h.layers[2][0].node_id for n in h.layers[3])

    def test_head_cycle_is_tolerated(self):
        # malformed parse with a head cycle: the walk must terminate
        toks = [tok(1, "a", "NOUN", 2), tok(2, "b", "NOUN", 1), tok(3, "c", "VERB", 0)]
        h = build_hierarchy(toks)
        validate_hierarchy(h)
        assert h.exist_node_used  # both nouns orbit each other, never reach the verb


class TestDeterminismAndIds:
    def test_same_input_same_ids(self, golden_dir):
        toks = parse_conllu((golden_dir / "two_verbs.conllu").read_text())
        a, b = build_hierarchy(toks), build_hierarchy(toks)
        assert hierarchy_to_json(a) == hierarchy_to_json(b)

    def test_ids_are_layer_then_token_order(self, golden_dir):
        toks = parse_conllu((golden_dir / "two_verbs.conllu").read_text())
        h = build_hierarchy(toks)
        ids = [n.node_id for layer in h.layers for n in layer]
        assert ids == list(range(len(ids)))

    def test_removing_adjectives_only_changes_layer4(self, golden_dir):
        toks = parse_conllu((golden_dir / "verbless.conllu").read_text())
        full = build_hierarchy(toks)
        stripped = build_hierarchy([t for t in toks if t.upos != "ADJ"])
        # layers 1-3 keep the same token positions and parent structure
        for depth in (0, 1, 2):
            assert positions(full.layers[depth]) == positions(stripped.layers[depth])
        assert stripped.layers[3] == []


class TestSerialization:
    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    def test_roundtrip(self, golden_dir, name):
        h = build_hierarchy(parse_conllu((golden_dir / f"{name}.conllu").read_text()))
        doc = hierarchy_to_json(h)
        back = hierarchy_from_json(doc)
        assert hierarchy_to_json(back) == doc

    def test_schema_violation(self):
        with pytest.raises(DataError, match="schema"):
            hierarchy_from_json('{"layers": [[{"node_id": 0}]], "exist_node_used": false}')

    def test_invalid_structure_rejected_on_load(self):
        with pytest.raises(DataError):
            hierarchy_from_json('{"layers": [[], [], [], []], "exist_node_used": false}')

    def test_bytes_not_utf8_rejected_on_load(self):
        with pytest.raises(DataError, match="hierarchy json: .*utf-8"):
            hierarchy_from_json(b"\xff\xfe{}")

    @staticmethod
    def _golden_doc(golden_dir, name="orphan_noun"):
        # orphan_noun: whole 0 -> barks 1 (-> dog 3), EXIST 2 (-> music 4 -> loud 5)
        return json.loads((golden_dir / f"{name}.hierarchy.json").read_text())

    def test_wrong_layer_tag_rejected_on_load(self, golden_dir):
        doc = self._golden_doc(golden_dir)
        doc["layers"][2][0]["layer"] = 2
        with pytest.raises(DataError, match="tagged layer 2"):
            hierarchy_from_json(json.dumps(doc))

    @pytest.mark.parametrize("depth, i, children", [
        (0, 0, [1]),       # a dropped child
        (0, 0, [2, 1]),    # children out of layer order
        (1, 0, [3, 4]),    # an extra child whose parent link names another node
        (3, 0, [3]),       # a child on a layer-4 node
    ], ids=["dropped", "reordered", "extra", "layer4"])
    def test_children_disagreeing_with_parent_links_rejected_on_load(self, golden_dir, depth,
                                                                      i, children):
        doc = self._golden_doc(golden_dir)
        doc["layers"][depth][i]["children"] = children
        with pytest.raises(DataError, match="children"):
            hierarchy_from_json(json.dumps(doc))

    @pytest.mark.parametrize("name", ["orphan_noun", "simple"])
    def test_flipped_exist_flag_rejected_on_load(self, golden_dir, name):
        doc = self._golden_doc(golden_dir, name)
        doc["exist_node_used"] = not doc["exist_node_used"]
        with pytest.raises(DataError, match="exist_node_used"):
            hierarchy_from_json(json.dumps(doc))


class TestIndexView:
    def test_parent_and_children_positions(self, golden_dir):
        h = build_hierarchy(parse_conllu((golden_dir / "orphan_noun.conllu").read_text()))
        idx = index_hierarchy(h)
        assert idx.mu2 == [3, None]
        assert idx.mu3 == [2, 6]
        assert idx.parent3 == [0, 1]  # dog -> barks, music -> EXIST
        assert idx.adj_children == [[], [0]]  # loud modifies music
        assert idx.mu4 == [5]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_builder_output_always_validates(data):
    """Random token lists (any POS mix, any acyclic-ish heads) build cleanly."""
    n = data.draw(st.integers(min_value=1, max_value=10))
    pos_pool = ["NOUN", "VERB", "ADJ", "DET", "AUX", "PRON", "PROPN", "PUNCT", "ADV"]
    toks = []
    for i in range(1, n + 1):
        upos = data.draw(st.sampled_from(pos_pool))
        head = data.draw(st.integers(min_value=0, max_value=n))
        if head == i:
            head = 0
        toks.append(tok(i, f"w{i}", upos, head))
    h = build_hierarchy(toks)
    validate_hierarchy(h)
    back = hierarchy_from_json(hierarchy_to_json(h))
    assert hierarchy_to_json(back) == hierarchy_to_json(h)
