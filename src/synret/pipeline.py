"""Caption-guided feature pipeline.

Text side: node features are gathered from encoder token rows, entity nodes
are enhanced by their adjectives (one segment softmax over every adjective
row of the batch, as the node weights are computed), and each layer gets a
residual+norm projection. Video side: a temporal encoder runs over frame
features. Both sides take a batch: `text_forward` stacks the nodes of every
caption so that each projection is one matrix product, and `video_forward`
runs the temporal layer over the concatenated frame rows of every video,
with attention kept inside each video. The node weights depend on the
caption alone, so the caption forward ends with them and `text_backward`
starts with their backward. Frame and patch selection, which combines the
two sides, is `scoring.score_videos`'s.

Like every block in `blocks`, each forward returns its features and a tape,
and the matching backward takes the tape back: `text_forward` returns
(TextCache, TextTape) and `video_forward` (videos, TransformerCache). A
caller that only scores drops the tape in the same expression
(`text_forward(chunk, params)[0]`), so it is freed before the next chunk is
encoded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import (
    MlpCache,
    ResNormCache,
    TransformerCache,
    mlp,
    mlp_backward,
    res_norm,
    res_norm_backward,
    segment_softmax,
    segment_softmax_vjp,
    transformer_backward,
    transformer_encode,
)
from .dataset import FeatureBundle
from .hierarchy import HierarchyIndex
from .params import ModelParams

# Gallery paths (`score_matrix` and the `fuse` CLI) encode this many items per
# `text_forward`/`video_forward` call: enough rows to pay for one pass over the
# weights, few enough to keep one chunk's activations small.
ENCODE_CHUNK = 16


# ---------------------------------------------------------------------------
# Adjective enhancement of entity nodes
# ---------------------------------------------------------------------------


@dataclass
class EnhanceCache:
    e3p: ResNormCache
    rows: np.ndarray     # (R,) entities that have adjectives
    owner: np.ndarray    # (J,) place in `rows` of each adjective's entity
    adj: np.ndarray      # (J, d) the adjective rows, grouped by entity
    weights: np.ndarray  # (J,) softmax of adj . e3p over each entity's adjectives
    fusion: MlpCache     # over the R entities; its x is [e3p | pooled adjectives]


def enhance_entities(f3: np.ndarray, f4: np.ndarray, adj_children: list[list[int]],
                     params: ModelParams):
    """Entity features attend over their adjective children and fuse the
    pooled description back in; entities without adjectives keep their
    projected feature unchanged. All adjective rows are scored and pooled at
    once, as `TextCache.stack` weights nodes, and the fusion MLP runs once
    over every entity that has adjectives."""
    e3p, e3p_cache = res_norm(f3, params.mlp4, params.ln_enhance)
    counts = np.array([len(kids) for kids in adj_children], dtype=np.intp)
    rows = np.flatnonzero(counts)
    owner = np.repeat(np.arange(rows.size), counts[rows])
    adj = f4[np.array([j for kids in adj_children for j in kids], dtype=np.intp)]
    q = e3p[rows]
    weights = segment_softmax((adj * q[owner]).sum(axis=1), owner, rows.size)
    pooled = np.zeros_like(q)
    np.add.at(pooled, owner, weights[:, None] * adj)  # in adjective order
    fused, fusion = mlp(np.concatenate([q, pooled], axis=1), params.fusion)
    f3p = e3p.copy()
    f3p[rows] += fused
    return e3p, f3p, EnhanceCache(e3p=e3p_cache, rows=rows, owner=owner, adj=adj,
                                  weights=weights, fusion=fusion)


def enhance_entities_backward(f3p_bar: np.ndarray, cache: EnhanceCache,
                              params: ModelParams, grads: ModelParams) -> None:
    """The adjective rows are frozen encoder outputs: only the query e3p
    takes a gradient through the attention."""
    d = params.d
    cat_bar = mlp_backward(f3p_bar[cache.rows], cache.fusion, params.fusion, grads.fusion)
    weights_bar = (cache.adj * cat_bar[cache.owner, d:]).sum(axis=1)
    scores_bar = segment_softmax_vjp(cache.weights, weights_bar, cache.owner, cache.rows.size)
    q_bar = cat_bar[:, :d]
    np.add.at(q_bar, cache.owner, scores_bar[:, None] * cache.adj)
    e3p_bar = f3p_bar.copy()
    e3p_bar[cache.rows] += q_bar
    res_norm_backward(e3p_bar, cache.e3p, params.mlp4, params.ln_enhance,
                      grads.mlp4, grads.ln_enhance)


# ---------------------------------------------------------------------------
# Caption forward over a batch (everything that does not depend on the video)
# ---------------------------------------------------------------------------


@dataclass
class TextCache:
    """Node features and weights of a batch of captions. Action and entity
    rows of all captions are stacked in caption order; owner2/owner3 give the
    caption of each row and parent3 the stacked row of each entity's parent."""
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
    w2: np.ndarray       # (A,) softmax of sim2 = m2 . e1 over each caption's actions
    w3: np.ndarray       # (M,) softmax of sim2[parent] + m2[parent] . e3 over each caption's entities

    @classmethod
    def stack(cls, indexes: list[HierarchyIndex], e1, e2, e3, m2) -> "TextCache":
        """Captions stacked in this order, with row bookkeeping and weights; a
        caption's weights do not depend on what else is stacked, bit for bit."""
        n_t = len(indexes)
        first2 = _offsets([idx.n_actions for idx in indexes])
        first3 = _offsets([idx.n_entities for idx in indexes])
        owner2 = np.repeat(np.arange(n_t), np.diff(first2))
        owner3 = np.repeat(np.arange(n_t), np.diff(first3))
        parent3 = np.concatenate([np.asarray(idx.parent3, dtype=np.intp) + first2[t]
                                  for t, idx in enumerate(indexes)])
        sim2 = (m2 * e1[owner2]).sum(axis=1)
        sim3 = (m2[parent3] * e3).sum(axis=1)
        return cls(
            indexes=indexes, first2=first2, first3=first3,
            owner2=owner2, owner3=owner3, parent3=parent3,
            e1=e1, e2=e2, e3=e3, m2=m2,
            w2=segment_softmax(sim2, owner2, n_t),
            w3=segment_softmax(sim2[parent3] + sim3, owner3, n_t),
        )

    @classmethod
    def concat(cls, parts: list["TextCache"]) -> "TextCache":
        """Consecutive batches as one."""
        def cat(name):
            return np.concatenate([getattr(p, name) for p in parts])

        return cls.stack([idx for p in parts for idx in p.indexes],
                         cat("e1"), cat("e2"), cat("e3"), cat("m2"))

    def single(self, i: int) -> "TextCache":
        """Caption i alone, as a stack of one whose rows are views into this
        one's: the one form in which a caption is taken on its own."""
        s2 = slice(self.first2[i], self.first2[i + 1])
        s3 = slice(self.first3[i], self.first3[i + 1])
        return TextCache.stack([self.indexes[i]], self.e1[i:i + 1], self.e2[s2], self.e3[s3],
                               self.m2[s2])


@dataclass
class TextTape:
    """What `text_backward` reads from the `text_forward` that returned it,
    and the entity features before and after adjective enhancement, which
    only the `fuse` command writes out."""
    e1: ResNormCache
    e2: ResNormCache
    m2: ResNormCache
    e3: ResNormCache
    enhance: EnhanceCache
    e3p: np.ndarray  # (M, d)
    f3p: np.ndarray  # (M, d)


@dataclass
class TextGrad:
    """Gradients of the stacked caption quantities, including the node
    weights w2/w3."""
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


def text_forward(bundles: list[FeatureBundle], params: ModelParams) -> tuple[TextCache, TextTape]:
    """Every caption's features must be `params.d` wide (`dataset.check_fits`)."""
    indexes = [b.index for b in bundles]
    first4 = _offsets([len(idx.mu4) for idx in indexes])
    f1s, f2s, f3s, f4s = zip(*[b.node_features for b in bundles])
    f1, f2, f3, f4 = np.stack(f1s), np.concatenate(f2s), np.concatenate(f3s), np.concatenate(f4s)

    e1, e1_tape = res_norm(f1, params.mlp1, params.ln_global)
    e2, e2_tape = res_norm(f2, params.mlp2, params.ln_action)
    m2, m2_tape = res_norm(e2, params.mlp5, params.ln_weight)
    adj_children = [[first4[t] + j for j in kids]
                    for t, idx in enumerate(indexes) for kids in idx.adj_children]
    e3p, f3p, enhance_tape = enhance_entities(f3, f4, adj_children, params)
    e3, e3_tape = res_norm(f3p, params.mlp3, params.ln_entity)
    return (TextCache.stack(indexes, e1, e2, e3, m2),
            TextTape(e1=e1_tape, e2=e2_tape, m2=m2_tape, e3=e3_tape, enhance=enhance_tape,
                     e3p=e3p, f3p=f3p))


def weights_backward(tg: TextGrad, tc: TextCache) -> None:
    """Folds the weight gradients tg.w2/tg.w3 into tg.e1, tg.m2 and tg.e3."""
    n_t = tc.e1.shape[0]
    sim2_bar = segment_softmax_vjp(tc.w2, tg.w2, tc.owner2, n_t)
    # w3 = softmax(sim2[parent] + sim3) with sim3 = m2[parent] . e3;
    # parents repeat, so scatter-add rather than fancy-index +=
    z_bar = segment_softmax_vjp(tc.w3, tg.w3, tc.owner3, n_t)
    np.add.at(sim2_bar, tc.parent3, z_bar)
    np.add.at(tg.m2, tc.parent3, z_bar[:, None] * tc.e3)
    tg.e3 += z_bar[:, None] * tc.m2[tc.parent3]
    # sim2 = m2 . e1 of the owning caption
    np.add.at(tg.e1, tc.owner2, sim2_bar[:, None] * tc.m2)
    tg.m2 += sim2_bar[:, None] * tc.e1[tc.owner2]


def text_backward(tg: TextGrad, tc: TextCache, tape: TextTape, params: ModelParams,
                  grads: ModelParams) -> None:
    """The weights' backward, then one backward per projection over the whole
    stack; tg must hold the gradients of every video's scores."""
    weights_backward(tg, tc)
    e2_bar = tg.e2 + res_norm_backward(tg.m2, tape.m2, params.mlp5,
                                       params.ln_weight, grads.mlp5, grads.ln_weight)
    res_norm_backward(e2_bar, tape.e2, params.mlp2, params.ln_action,
                      grads.mlp2, grads.ln_action)
    f3p_bar = res_norm_backward(tg.e3, tape.e3, params.mlp3,
                                params.ln_entity, grads.mlp3, grads.ln_entity)
    enhance_entities_backward(f3p_bar, tape.enhance, params, grads)
    res_norm_backward(tg.e1, tape.e1, params.mlp1, params.ln_global,
                      grads.mlp1, grads.ln_global)


# ---------------------------------------------------------------------------
# Video forward over a batch (temporal encoding, independent of the caption)
# ---------------------------------------------------------------------------


@dataclass
class Video:
    frames: np.ndarray   # raw frame features (N_v, d)
    patches: np.ndarray  # (N_v, N_p, d) float32, `FeatureBundle.read_patches`
    g: np.ndarray        # temporal-encoded frames (N_v, d), a view into the batch's rows


def video_forward(bundles: list[FeatureBundle],
                  params: ModelParams) -> tuple[list[Video], TransformerCache]:
    """Every video must be `params.d` wide and have at most
    `params.max_frames` frames (`dataset.check_fits`). A patch payload still
    in its file is read first, for the returned videos only."""
    patches = [b.read_patches() for b in bundles]
    lengths = [b.frames.shape[0] for b in bundles]
    g, tape = transformer_encode(np.concatenate([b.frames for b in bundles]),
                                 params.temporal, params.pos_emb, params.heads, lengths)
    first = _offsets(lengths)
    videos = [Video(frames=b.frames, patches=p, g=g[lo:hi])
              for b, p, lo, hi in zip(bundles, patches, first[:-1], first[1:])]
    return videos, tape


def video_backward(g_bar: np.ndarray, tape: TransformerCache, params: ModelParams,
                   grads: ModelParams) -> None:
    """g_bar holds the gradient of every row of the batch's encoded frames."""
    transformer_backward(g_bar, tape, params.temporal, grads.temporal,
                         grads.pos_emb, params.heads)
