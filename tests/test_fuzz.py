"""Fuzzing of the input parsers: for any input, each returns a value or raises
a SynretError subclass, never another exception."""

import json
import struct

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from synret.config import config_from_dict
from synret.conllu import parse_conllu
from synret.errors import SynretError
from synret.hierarchy import build_hierarchy
from synret.tensor_store import MAGIC, read_manifest, read_tensor

# st.text() builds Hypothesis's Unicode tables on first use (seconds); a fixed
# alphabet with every line break Python's splitlines knows, NUL, tab and
# non-ASCII letters keeps the parsers' interesting cases at a fraction of that
_ALPHABET = [chr(c) for c in range(32, 127)] + list("\t\n\r\x00\x0b\x0c\x1c\x85\u2028\u00e9\u4e2d")


def _text(max_size):
    return st.lists(st.sampled_from(_ALPHABET), max_size=max_size).map("".join)


# derandomize: every run draws the same examples, so a failure reproduces
FUZZ = settings(max_examples=100, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def value_or_synret_error(fn, *args):
    try:
        return fn(*args)
    except SynretError:
        return None


# a well-formed header body (version 1, f32, ndim) followed by arbitrary dims
# and payload reaches deeper checks than uniformly random bytes would
_header_body = st.one_of(
    st.binary(max_size=64),
    st.builds(lambda ndim, dims, payload: struct.pack("<BBI", 1, 0, ndim) + dims + payload,
              st.integers(0, 6), st.binary(max_size=48), st.binary(max_size=64)),
)


@FUZZ
@given(body=_header_body)
@example(body=struct.pack("<BBIQQ", 1, 0, 2, 2**63, 0))  # raised ValueError
def test_read_tensor_fuzz(tmp_path, body):
    path = tmp_path / "t.shet"
    path.write_bytes(MAGIC + body)
    value_or_synret_error(read_tensor, path)


_conllu_field = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "-1", "1-2", "1.1", "_", "", "VERB", "NOUN", "ADJ",
                     "PRON", "root", "amod"]),
    _text(3),
)
_conllu_line = st.one_of(
    _text(30),
    st.lists(_conllu_field, min_size=9, max_size=11).map("\t".join),
)


@FUZZ
@given(lines=st.lists(_conllu_line, max_size=8))
def test_parse_conllu_and_build_hierarchy_fuzz(lines):
    tokens = value_or_synret_error(parse_conllu, "\n".join(lines))
    if tokens is not None:
        value_or_synret_error(build_hierarchy, tokens)


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | _text(8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_text(4), inner, max_size=3),
    max_leaves=8,
)
_record = st.fixed_dictionaries({}, optional={
    key: _json | _text(8)
    for key in ("pair_id", "text_conllu_path", "text_features_path", "frame_cls_path",
                "patch_features_path")
})


@FUZZ
@given(data=_json | st.lists(_record | _json, max_size=4))
def test_read_manifest_fuzz(tmp_path, data):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    value_or_synret_error(read_manifest, path)


_EDGE_VALUES = [None, True, False, 0, 1, -8, 8, 512, 2**64, 10**400, -1e-3, 1e309,
                float("nan"), "zero", [], [8], {}]
_CONFIG_KEYS = [
    "d", "lambda_frame", "lambda_patch", "tau", "tau_dsl", "literal_patch_norm",
    "empty_layer_policy", "seed", "max_frames", "heads", "threads", "batch_size", "steps",
    "lr", "beta1", "beta2", "adam_eps", "stop_loss", "unknown",
]


def test_config_from_dict_every_key_takes_every_edge_value():
    for key in _CONFIG_KEYS:
        for value in _EDGE_VALUES:
            value_or_synret_error(config_from_dict, {key: value})


_config_value = st.one_of(
    st.sampled_from(_EDGE_VALUES), st.integers(), st.floats(), _text(6),
    st.lists(st.integers(), max_size=2),
)


@FUZZ
@given(data=st.dictionaries(st.sampled_from(_CONFIG_KEYS), _config_value, max_size=6))
def test_config_from_dict_fuzz(data):
    value_or_synret_error(config_from_dict, data)
