"""Caption-guided feature pipeline.

Text side: node features are gathered from encoder token rows, entity nodes
are enhanced by their adjectives, and each layer gets a residual+norm
projection. Video side: a temporal encoder runs over frame features. Both
sides take a batch: `text_forward` stacks the nodes of every caption so that
each projection is one matrix product, and `video_forward` runs the temporal
layer over the concatenated frame rows of every video, with attention kept
inside each video. Frame and patch selection, which combines the two sides,
is `scoring.score_video`'s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import (
    AttendCache,
    MlpCache,
    ResNormCache,
    TransformerCache,
    dot_softmax_attend,
    dot_softmax_attend_backward,
    mlp,
    mlp_backward,
    res_norm,
    res_norm_backward,
    transformer_backward,
    transformer_encode,
)
from .dataset import FeatureBundle
from .errors import DataError
from .hierarchy import HierarchyIndex
from .params import ModelParams

# Gallery paths (`score_matrix` and the `fuse` CLI) encode this many items per
# `text_forward`/`video_forward` call: enough rows to pay for one pass over the
# weights, few enough to keep one chunk's activations small.
ENCODE_CHUNK = 16


# ---------------------------------------------------------------------------
# Node feature initialization
# ---------------------------------------------------------------------------


def init_node_features(index: HierarchyIndex, text: np.ndarray):
    """Gather initial node features from the encoder token rows.

    Row 0 of `text` is the caption CLS feature; token positions are 1-based
    row indices. The EXIST action node gets the mean of all token rows.
    """
    n_tokens = text.shape[0] - 1
    for mu in [m for m in index.mu2 if m is not None] + index.mu3 + index.mu4:
        if mu > n_tokens:
            raise DataError(f"token position {mu} out of range (caption has {n_tokens} tokens)")
    f1 = text[0]
    word_mean = text[1:].mean(axis=0)
    f2 = np.stack([word_mean if mu is None else text[mu] for mu in index.mu2])
    f3 = text[list(index.mu3)] if index.mu3 else np.zeros((0, text.shape[1]))
    f4 = text[list(index.mu4)] if index.mu4 else np.zeros((0, text.shape[1]))
    return f1, f2, f3, f4


# ---------------------------------------------------------------------------
# Adjective enhancement of entity nodes
# ---------------------------------------------------------------------------


@dataclass
class EnhanceCache:
    e3p: ResNormCache
    rows: np.ndarray            # entities that have adjectives
    attends: list[AttendCache]  # one per such entity
    fusion: MlpCache | None     # stacked over those entities


def enhance_entities(f3: np.ndarray, f4: np.ndarray, adj_children: list[list[int]],
                     params: ModelParams):
    """Entity features attend over their adjective children and fuse the
    pooled description back in; entities without adjectives keep their
    projected feature unchanged. The fusion MLP runs once over every entity
    that has adjectives."""
    e3p, e3p_cache = res_norm(f3, params.mlp4, params.ln_enhance)
    rows = np.array([i for i, kids in enumerate(adj_children) if kids], dtype=np.intp)
    attends, gammas = [], []
    for i in rows:
        adj = f4[adj_children[i]]
        _, gamma, at_cache = dot_softmax_attend(e3p[i], adj, adj)
        attends.append(at_cache)
        gammas.append(gamma)
    f3p = e3p.copy()
    fusion = None
    if gammas:
        fused, fusion = mlp(np.concatenate([e3p[rows], np.stack(gammas)], axis=1), params.fusion)
        f3p[rows] += fused
    return e3p, f3p, EnhanceCache(e3p=e3p_cache, rows=rows, attends=attends, fusion=fusion)


def enhance_entities_backward(f3p_bar: np.ndarray, cache: EnhanceCache,
                              params: ModelParams, grads: ModelParams) -> None:
    d = params.d
    e3p_bar = f3p_bar.copy()
    if cache.fusion is not None:
        cat_bar = mlp_backward(f3p_bar[cache.rows], cache.fusion, params.fusion, grads.fusion)
        e3p_bar[cache.rows] += cat_bar[:, :d]
        for i, gamma_bar, at_cache in zip(cache.rows, cat_bar[:, d:], cache.attends):
            qbar, _, _ = dot_softmax_attend_backward(gamma_bar, at_cache)
            e3p_bar[i] += qbar
    res_norm_backward(e3p_bar, cache.e3p, params.mlp4, params.ln_enhance,
                      grads.mlp4, grads.ln_enhance)


# ---------------------------------------------------------------------------
# Caption forward over a batch (everything that does not depend on the video)
# ---------------------------------------------------------------------------


@dataclass
class Caption:
    """One caption's node features, as views into a TextCache."""
    index: HierarchyIndex
    e1: np.ndarray   # (d,)
    e2: np.ndarray   # (n2, d)
    e3: np.ndarray   # (n3, d)
    m2: np.ndarray   # (n2, d)
    e3p: np.ndarray | None  # (n3, d); None when the TextCache is a concat
    f3p: np.ndarray | None  # (n3, d)


@dataclass
class TextCache:
    """Node features of a batch of captions. Action and entity rows of all
    captions are stacked in caption order; owner2/owner3 give the caption of
    each row and parent3 the stacked row of each entity's parent action."""
    indexes: list[HierarchyIndex]
    first2: np.ndarray   # (T+1,) first action row of each caption, then A
    first3: np.ndarray   # (T+1,) first entity row of each caption, then M
    owner2: np.ndarray   # (A,)
    owner3: np.ndarray   # (M,)
    parent3: np.ndarray  # (M,)
    e1: np.ndarray       # (T, d)
    e2: np.ndarray       # (A, d)
    e3: np.ndarray       # (M, d)
    m2: np.ndarray       # (A, d)
    e3p: np.ndarray | None  # (M, d); e3p and f3p are None in a concat
    f3p: np.ndarray | None  # (M, d)
    e1_cache: ResNormCache | None     # the caches are None after drop_backward_caches
    e2_cache: ResNormCache | None
    m2_cache: ResNormCache | None
    e3_cache: ResNormCache | None     # None also when the batch has no entities
    enhance_cache: EnhanceCache | None

    def caption(self, i: int) -> Caption:
        s2 = slice(self.first2[i], self.first2[i + 1])
        s3 = slice(self.first3[i], self.first3[i + 1])
        e3p = f3p = None
        if self.e3p is not None:
            e3p, f3p = self.e3p[s3], self.f3p[s3]
        return Caption(index=self.indexes[i], e1=self.e1[i], e2=self.e2[s2], e3=self.e3[s3],
                       m2=self.m2[s2], e3p=e3p, f3p=f3p)

    @classmethod
    def concat(cls, parts: list["TextCache"]) -> "TextCache":
        """Consecutive batches as one, keeping only what scoring reads: the
        node features e1/e2/e3/m2 and the row bookkeeping."""
        def cat(name):
            return np.concatenate([getattr(p, name) for p in parts])

        return cls(
            **_stack_rows([idx for p in parts for idx in p.indexes]),
            e1=cat("e1"), e2=cat("e2"), e3=cat("e3"), m2=cat("m2"), e3p=None, f3p=None,
            e1_cache=None, e2_cache=None, m2_cache=None, e3_cache=None, enhance_cache=None,
        )

    def single(self, i: int) -> "TextCache":
        """Caption i alone, as a stack of one whose rows are views into this
        one's."""
        cap = self.caption(i)
        return TextCache(
            **_stack_rows([cap.index]),
            e1=cap.e1[None], e2=cap.e2, e3=cap.e3, m2=cap.m2, e3p=cap.e3p, f3p=cap.f3p,
            e1_cache=None, e2_cache=None, m2_cache=None, e3_cache=None, enhance_cache=None,
        )

    def drop_backward_caches(self) -> None:
        """Frees what only text_backward reads, for callers that score without
        training; text_backward cannot run afterwards."""
        self.e1_cache = self.e2_cache = self.m2_cache = None
        self.e3_cache = self.enhance_cache = None


@dataclass
class TextGrad:
    """Gradients of the stacked caption quantities, including the node
    weights w2/w3 that scoring derives from them."""
    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    m2: np.ndarray
    w2: np.ndarray
    w3: np.ndarray

    @classmethod
    def zeros(cls, tc: TextCache) -> "TextGrad":
        return cls(
            e1=np.zeros_like(tc.e1),
            e2=np.zeros_like(tc.e2),
            e3=np.zeros_like(tc.e3),
            m2=np.zeros_like(tc.m2),
            w2=np.zeros(tc.e2.shape[0]),
            w3=np.zeros(tc.e3.shape[0]),
        )


def _offsets(counts: list[int]) -> np.ndarray:
    return np.cumsum([0] + counts)


def _stack_rows(indexes: list[HierarchyIndex]) -> dict:
    """TextCache's row bookkeeping for captions stacked in this order."""
    first2 = _offsets([idx.n_actions for idx in indexes])
    first3 = _offsets([idx.n_entities for idx in indexes])
    rows = np.arange(len(indexes))
    return dict(
        indexes=indexes, first2=first2, first3=first3,
        owner2=np.repeat(rows, np.diff(first2)), owner3=np.repeat(rows, np.diff(first3)),
        parent3=np.concatenate([np.asarray(idx.parent3, dtype=np.intp) + first2[t]
                                for t, idx in enumerate(indexes)]),
    )


def text_forward(bundles: list[FeatureBundle], params: ModelParams) -> TextCache:
    feats = []
    for b in bundles:
        if b.d != params.d:
            raise DataError(f"{b.pair_id}: dimension mismatch (features d={b.d}, model d={params.d})")
        feats.append(init_node_features(b.index, b.text))
    indexes = [b.index for b in bundles]
    first4 = _offsets([len(idx.mu4) for idx in indexes])
    f1s, f2s, f3s, f4s = zip(*feats)
    f1, f2, f3, f4 = np.stack(f1s), np.concatenate(f2s), np.concatenate(f3s), np.concatenate(f4s)

    e1, e1_cache = res_norm(f1, params.mlp1, params.ln_global)
    e2, e2_cache = res_norm(f2, params.mlp2, params.ln_action)
    m2, m2_cache = res_norm(e2, params.mlp5, params.ln_weight)
    if f3.shape[0]:
        adj_children = [[first4[t] + j for j in kids]
                        for t, idx in enumerate(indexes) for kids in idx.adj_children]
        e3p, f3p, enhance_cache = enhance_entities(f3, f4, adj_children, params)
        e3, e3_cache = res_norm(f3p, params.mlp3, params.ln_entity)
    else:
        e3p = f3p = e3 = np.zeros((0, params.d))
        e3_cache = enhance_cache = None
    return TextCache(
        **_stack_rows(indexes),
        e1=e1, e2=e2, e3=e3, m2=m2, e3p=e3p, f3p=f3p,
        e1_cache=e1_cache, e2_cache=e2_cache, m2_cache=m2_cache, e3_cache=e3_cache,
        enhance_cache=enhance_cache,
    )


def text_backward(tg: TextGrad, tc: TextCache, params: ModelParams,
                  grads: ModelParams) -> None:
    """One backward per projection over the whole stack; tg.e1/e2/e3/m2 must
    already hold everything, including what the weights w2/w3 pass on."""
    e2_bar = tg.e2 + res_norm_backward(tg.m2, tc.m2_cache, params.mlp5,
                                       params.ln_weight, grads.mlp5, grads.ln_weight)
    res_norm_backward(e2_bar, tc.e2_cache, params.mlp2, params.ln_action,
                      grads.mlp2, grads.ln_action)
    if tc.e3_cache is not None:
        f3p_bar = res_norm_backward(tg.e3, tc.e3_cache, params.mlp3,
                                    params.ln_entity, grads.mlp3, grads.ln_entity)
        enhance_entities_backward(f3p_bar, tc.enhance_cache, params, grads)
    res_norm_backward(tg.e1, tc.e1_cache, params.mlp1, params.ln_global,
                      grads.mlp1, grads.ln_global)


# ---------------------------------------------------------------------------
# Video forward over a batch (temporal encoding, independent of the caption)
# ---------------------------------------------------------------------------


@dataclass
class Video:
    frames: np.ndarray   # raw frame features (N_v, d)
    patches: np.ndarray  # (N_v, N_p, d), the bundle's float32 array
    g: np.ndarray        # temporal-encoded frames (N_v, d), a view into VideoCache.g
    rows: slice          # this video's rows in VideoCache.g


@dataclass
class VideoCache:
    videos: list[Video]
    g: np.ndarray        # (R, d) every video's encoded frames, stacked
    tf_cache: TransformerCache


def video_forward(bundles: list[FeatureBundle], params: ModelParams) -> VideoCache:
    for b in bundles:
        if b.frames.shape[1] != params.d:
            raise DataError(f"{b.pair_id}: dimension mismatch (frames d={b.frames.shape[1]}, model d={params.d})")
    lengths = [b.frames.shape[0] for b in bundles]
    g, tf_cache = transformer_encode(np.concatenate([b.frames for b in bundles]),
                                     params.temporal, params.pos_emb, params.heads, lengths)
    first = _offsets(lengths)
    videos = [Video(frames=b.frames, patches=b.patches, g=g[lo:hi], rows=slice(lo, hi))
              for b, lo, hi in zip(bundles, first[:-1], first[1:])]
    return VideoCache(videos=videos, g=g, tf_cache=tf_cache)


def video_backward(g_bar: np.ndarray, vc: VideoCache, params: ModelParams,
                   grads: ModelParams) -> None:
    transformer_backward(g_bar, vc.tf_cache, params.temporal, grads.temporal,
                         grads.pos_emb, params.heads)
