"""Shared helpers for the test suite: the gradient oracle and a scalar
sum to drive it, the softmax of logit rows, attention's weights and a
numpy reference for it, a breadth-first reference for tree distance, the
CoNLL-U loader, the loaders' checks, the token alignment, the per-pair
attributes, the slices, the metrics and the vocabulary's order as first
written (references for faster rewrites), a scalar reference for the
position weights of one example, tiny model/corpus builders, and a
checkpoint with an edited vocabulary."""

from __future__ import annotations

import json
from collections import deque
from itertools import groupby
from pathlib import Path
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

import lsa.autodiff as ad
from lsa.corpus import (
    CLUSTER_LABELS,
    NUM_CLASSES,
    AspectAnnotation,
    DataError,
    Example,
    Polarity,
    SynthSpec,
    generate_synthetic_corpus,
    read_text,
    save_dataset,
)
from lsa.checkpoint import HEADER
from lsa.distance import ROOT, DependencyTree
from lsa.encoder import RESERVED, ConfigError, Vocabulary
from lsa.runio import canonical_json
from lsa.training import ClassScores, Metrics
from lsa.window import Model, ModelConfig

FIXTURES = Path(__file__).parent / "fixtures"


def sum_all(t: ad.Tensor) -> ad.Tensor:
    """The sum of every entry of ``t``, shape [1], recorded on the tape."""
    shape = t.shape

    def backward(g):
        return (np.full(shape, g[0]),)

    return ad._record(ad.Tensor(np.array([t.values.sum()])), (t,), backward)


def softmax(logits) -> np.ndarray:
    """The max-stabilized softmax of each row of ``logits``, with the
    arithmetic of ``ad.cross_entropy``'s forward: the probabilities that
    ``Model.forward``'s logit rows give."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def reference_cross_entropy(logits: np.ndarray, gold) -> tuple[float, np.ndarray]:
    """The summed cross-entropy of logit rows (rows, C) and its gradient
    for a unit output gradient, written out as the softmax, the clamp at
    ``ad.LOG_CLAMP`` and -log, then the backward of the loss on the
    probabilities and that of the softmax."""
    p = softmax(logits)
    rows = np.arange(len(p))
    picked = p[rows, gold]
    clamped = np.maximum(picked, ad.LOG_CLAMP)
    g_p = np.zeros_like(p)
    g_p[rows, gold] = np.where(picked >= ad.LOG_CLAMP, -1.0 / clamped, 0.0)
    dot = np.sum(g_p * p, axis=-1, keepdims=True)
    return -np.log(clamped).sum(), (g_p - dot) * p


def mixing_weights(x, wq, bq, wk, heads, valid, source=None, scale=None) -> np.ndarray:
    """The weights (queries, heads, L) with which ``ad.attention`` mixes
    the value rows of ``x`` (that is, times ``scale`` under ``source``),
    read from its output.

    The input is widened: head h's block of columns holds the dh columns
    of ``x`` that head h projects, then L readout columns, then L more,
    which in block 0 hold a one-hot of each row's position.  Queries and
    keys see only the columns of ``x``, the queries scaled so that the
    wider heads keep the scores' 1/√dh.  The values copy the one-hot into
    each head's readout columns, where the input, and so the residual, is
    zero, and the output projection is the identity."""
    (n, d), width = x.shape, valid.shape[1]
    dh = d // heads
    wide = dh + 2 * width
    blocks = np.arange(heads)[:, None] * wide
    cols = (blocks + np.arange(dh)).ravel()  # the widened columns of x
    readout = blocks + dh + np.arange(width)  # (heads, L)
    onehot = dh + width + np.arange(width)
    xw = np.zeros((n, heads * wide))
    xw[:, cols] = x.values
    xw[np.arange(n), onehot[np.nonzero(valid)[1]]] = 1.0
    wqw, wkw, wvw = np.zeros((3, heads * wide, heads * wide))
    wqw[np.ix_(cols, cols)] = (wide / dh) ** 0.5 * wq.values
    wkw[np.ix_(cols, cols)] = wk.values
    wvw[onehot[:, None], readout.T] = 1.0
    bqw, zero = np.zeros(heads * wide), ad.tensor(np.zeros(heads * wide))
    bqw[cols] = (wide / dh) ** 0.5 * bq.values
    out = ad.attention(ad.tensor(xw), ad.tensor(wqw), ad.tensor(bqw), ad.tensor(wkw),
                       ad.tensor(wvw), zero, ad.tensor(np.eye(heads * wide)), zero,
                       heads, valid, source, scale)
    return out.values[:, readout]


def reference_attention(x, params, heads, first_only=False):
    """Multi-head attention without its residual, one head at a time, on
    the (n, d) rows of a single sequence: every row as a query, or the
    first only.  ``params`` maps wq, bq, ... bo to tensors."""
    v = {name: t.values for name, t in params.items()}
    dh = x.shape[1] // heads
    q = x[:1 if first_only else len(x)] @ v["wq"] + v["bq"]
    k = x @ v["wk"]
    val = x @ v["wv"] + v["bv"]
    outs = []
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        scores = q[:, cols] @ k[:, cols].T / np.sqrt(dh)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        outs.append((e / e.sum(axis=1, keepdims=True)) @ val[:, cols])
    return np.concatenate(outs, axis=1) @ v["wo"] + v["bo"]


def finite_difference_gradient(f, param: ad.Tensor, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient estimate of ``f`` w.r.t. every coordinate
    of ``param``.  ``f`` must be deterministic and must read ``param.values``.
    """
    flat = param.values.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + eps
        f_plus = f()
        flat[i] = saved - eps
        f_minus = f()
        flat[i] = saved
        grad[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad.reshape(param.values.shape)


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max coordinate-wise relative error with a unit floor."""
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def grad_check(build, params, eps=1e-6):
    """Backward grads of ``build()`` (a fresh scalar forward) against
    central finite differences for every coordinate of every param."""
    tape = ad.Tape()
    with tape:
        loss = build()
    tape.backward(loss)
    analytic = {name: p.grad.copy() for name, p in params.items()}

    worst = 0.0
    for name, p in params.items():
        fd = finite_difference_gradient(lambda: build().item(), p, eps)
        worst = max(worst, rel_err(analytic[name], fd))
    return worst


def tiny_model(seed=0, variant="lsa_t", vocab_tokens=None, **overrides) -> Model:
    config = ModelConfig(**{"variant": variant, "d_model": 16, "layers": 1, "heads": 2,
                            "ffn_mult": 2, "max_len": 32, **overrides})
    tokens = vocab_tokens or [f"w{i}" for i in range(12)]
    vocab = Vocabulary.build([tokens])
    return Model(config, vocab, np.random.Generator(np.random.PCG64(seed)))


def reference_spc_input(context_tokens, aspect_tokens, vocab: Vocabulary, max_len: int):
    """The SPC input as first written, a function of its own:
    [CLS] context [SEP] aspect [SEP] ids; context truncated from the
    right if needed, the aspect never."""
    if len(aspect_tokens) == 0:
        raise ConfigError("SPC input needs a non-empty aspect")
    budget = max_len - 3 - len(aspect_tokens)
    if budget < 0:
        raise ConfigError(
            f"aspect of {len(aspect_tokens)} tokens cannot fit max length {max_len}"
        )
    ctx = list(context_tokens)[:budget]
    ids = np.concatenate(
        [
            [vocab.cls_id],
            vocab.encode(ctx),
            [vocab.sep_id],
            vocab.encode(aspect_tokens),
            [vocab.sep_id],
        ]
    ).astype(np.int64)
    return ids


def make_example(polarities, implicit=()):
    """An example with one aspect per polarity; aspect ``i`` is implicit if
    ``implicit[i]`` is true."""
    tokens, aspects = [], []
    for i, pol in enumerate(polarities):
        tokens.append(f"w{i}")
        start = len(tokens)
        tokens.append(f"noun{i}")
        aspects.append(AspectAnnotation(start, start + 1, (f"noun{i}",), Polarity(pol),
                                        i < len(implicit) and implicit[i]))
    tokens.append("end")
    return Example(" ".join(tokens), tokens, aspects)


@st.composite
def aspect_runs(draw):
    """The polarities and implicit flags of 0 to 7 aspects, each aspect
    after the first keeping its predecessor's polarity half the time, so
    that runs of 6 and 7 occur."""
    polarities, implicit = [], []
    for i in range(draw(st.integers(0, 7))):
        if i == 0 or not draw(st.booleans()):
            polarities.append(draw(st.sampled_from(["positive", "negative", "neutral"])))
        else:
            polarities.append(polarities[-1])
        implicit.append(draw(st.booleans()))
    return polarities, implicit


def write_synth_corpus(tmpdir, *, seed=7, train=60, test=30, rho=1.0,
                       implicit=0.4, aspects=None, vocab_size=12):
    spec = SynthSpec(
        vocab_size=vocab_size,
        splits={"train": train, "test": test},
        rho=rho,
        implicit_fraction=implicit,
        aspects_dist=aspects or {2: 0.95, 3: 0.05},
    )
    datasets = generate_synthetic_corpus(spec, seed)
    paths = {}
    for split, ds in datasets.items():
        path = Path(tmpdir) / f"{split}.json"
        save_dataset(ds, path)
        paths[split] = str(path)
    return spec, datasets, paths


def random_tree(rnd, n) -> DependencyTree:
    """An n-word tree in which every word hangs from an earlier one."""
    heads = [0]
    for i in range(1, n):
        heads.append(rnd.randrange(0, i) + 1)
    return DependencyTree(tuple(f"w{i}" for i in range(n)), tuple(heads))


def bfs_distances(tree: DependencyTree, a: int) -> list[int]:
    """Edges on the path between word ``a`` and every word, by breadth-first
    search over the tree's undirected edges."""
    adj = {i: set() for i in range(tree.word_count)}
    for i, h in enumerate(tree.heads):
        if h != 0:
            adj[i].add(h - 1)
            adj[h - 1].add(i)
    seen = {a: 0}
    queue = deque([a])
    while queue:
        node = queue.popleft()
        for nxt in adj[node]:
            if nxt not in seen:
                seen[nxt] = seen[node] + 1
                queue.append(nxt)
    assert len(seen) == tree.word_count, "disconnected"
    return [seen[b] for b in range(tree.word_count)]


def bfs_distance(tree: DependencyTree, a: int, b: int) -> int:
    """Edges on the path between words ``a`` and ``b``."""
    return bfs_distances(tree, a)[b]


def reference_weight(d, alpha, n):
    """``window.position_weight`` of one distance, in Python floats."""
    return 1.0 if d <= alpha else max(0.0, 1.0 - (d - alpha) / n)


def reference_position_weights(example: Example, n: int, alpha: float, parse=None) -> np.ndarray:
    """The (A + 1, n + 1) position weights of one example's context of n
    tokens, one token and one aspect token at a time in Python numbers:
    per aspect, the leading marker at distance n and each token at its
    mean distance to the aspect's tokens, then a row of ones.  The
    distance is the breadth-first one between the tokens' words under
    ``parse``, a (tree, word of each token) pair, else |i - t|."""
    if parse is None:
        distance = lambda i, t: abs(i - t)  # noqa: E731
    else:
        tree, words = parse
        rows = {w: bfs_distances(tree, w) for w in set(words[:n])}
        distance = lambda i, t: rows[words[t]][words[i]]  # noqa: E731
    weights = []
    for a in example.aspects:
        mean = [sum(distance(i, t) for t in range(a.start, a.end)) / (a.end - a.start)
                for i in range(n)]
        weights.append([reference_weight(d, alpha, n) for d in [float(n)] + mean])
    return np.array(weights + [[1.0] * (n + 1)])


def valid_of(inputs) -> np.ndarray:
    """The (S, L) mask of the real positions of the sequences of
    ``Model.forward_example`` results, as ``Model.global_context`` sets it."""
    lengths = np.array([len(ids) for x in inputs for ids in x.sequences])
    return np.arange(lengths.max()) < lengths[:, None]


def reference_align(tokens, words) -> np.ndarray:
    """``distance.align_tokens_to_words`` as first written: the greedy walk
    for every input."""
    mapping = []
    ti = 0
    tokens = [t.lower() for t in tokens]
    for wi, word in enumerate(w.lower() for w in words):
        start, assembled = ti, ""
        while assembled != word:
            if ti >= len(tokens) or len(assembled) > len(word):
                if ti == start:
                    raise DataError(f"no token is left for word {wi} ({word!r})")
                raise DataError(f"cannot align tokens {start}-{ti - 1} ({assembled!r}) "
                                f"to word {wi} ({word!r})")
            assembled += tokens[ti]
            mapping.append(wi)
            ti += 1
    if ti != len(tokens):
        raise DataError(f"trailing tokens from index {ti} align to no word")
    return np.array(mapping, dtype=np.int64)


def outcome(f, *args):
    """("ok", what ``f(*args)`` returns), or the name and text of what it raises."""
    try:
        return "ok", f(*args)
    except Exception as e:
        return type(e).__name__, str(e)


def reference_validate(tree: DependencyTree) -> None:
    """The tree validator as first written: a climb to the root from
    every word, O(words x depth)."""
    n = tree.word_count
    if n == 0:
        raise DataError("empty dependency tree")
    if len(tree.forms) != n:
        raise DataError("tree forms/heads length mismatch")
    for i, h in enumerate(tree.heads):
        if not (0 <= h <= n):
            raise DataError(f"word {i + 1}: head {h} out of range")
        if h == i + 1:
            raise DataError(f"word {i + 1}: self-loop head")
    for start in range(n):
        seen = set()
        node = start
        while tree.heads[node] != ROOT:
            if node in seen:
                raise DataError(f"cyclic heads involving word {start + 1}")
            seen.add(node)
            node = tree.heads[node] - 1
    roots = [i for i, h in enumerate(tree.heads) if h == ROOT]
    if len(roots) != 1:
        raise DataError(f"expected exactly one root, found {len(roots)}")


def reference_load_parses(path) -> dict[str, DependencyTree]:
    """``distance.load_parses`` as it was before its trees were validated
    as one forest: each tree validated by ``reference_validate`` when its
    sentence ends.  It takes the same cells and comments: an ID or HEAD
    cell of ASCII digits, and a sent_id comment before a sentence's first
    word."""
    trees: dict[str, DependencyTree] = {}
    sent_id = None
    forms: list[str] = []
    heads: list[int] = []

    def flush(lineno):
        nonlocal sent_id, forms, heads
        if not forms:
            sent_id = None
            return
        if sent_id is None:
            raise DataError(f"{path}:{lineno}: sentence without a sent_id comment")
        tree = DependencyTree(tuple(forms), tuple(heads))
        try:
            reference_validate(tree)
        except DataError as e:
            raise DataError(f"{path}: sentence {sent_id!r}: {e}")
        if sent_id in trees:
            raise DataError(f"{path}:{lineno}: duplicate sent_id {sent_id!r}")
        trees[sent_id] = tree
        sent_id, forms, heads = None, [], []

    lineno = 0
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.strip()
        if not line:
            flush(lineno)
            continue
        if line.startswith("#"):
            if line[1:].split("=", 1)[0].strip() == "sent_id":
                if forms:
                    raise DataError(f"{path}:{lineno}: sent_id comment inside a sentence")
                sent_id = line.split("=", 1)[1].strip()
            continue
        cols = line.split("\t")
        if len(cols) < 7:
            raise DataError(f"{path}:{lineno}: expected >= 7 tab-separated columns")
        word_id = cols[0]
        if "-" in word_id or "." in word_id:
            continue  # multiword-token ranges and empty nodes carry no head
        if not all(cell.isascii() and cell.isdigit() for cell in (word_id, cols[6])):
            raise DataError(f"{path}:{lineno}: non-integer ID or HEAD")
        idx, head = int(word_id), int(cols[6])
        if idx != len(forms) + 1:
            raise DataError(f"{path}:{lineno}: word IDs must be 1..n in order")
        forms.append(cols[1])
        heads.append(head)
    flush(lineno + 1)
    return trees


def _require(cond: bool, msg: str):
    if not cond:
        raise DataError(msg)


def reference_example_from_json(obj, where: str) -> Example:
    """``corpus._example_from_json`` as first written: every check's
    location and message formatted whether or not it fails.  The checks
    of ``AspectAnnotation`` and ``Example`` are stated again, with the
    location of the aspect or example at fault."""
    _require(isinstance(obj, dict), f"{where}: example must be an object")
    for key in ("text", "tokens", "aspects"):
        _require(key in obj, f"{where}: missing field {key!r}")
    _require(isinstance(obj["text"], str), f"{where}.text: must be a string")
    _require(
        isinstance(obj["tokens"], list)
        and all(isinstance(t, str) for t in obj["tokens"]),
        f"{where}.tokens: must be a list of strings",
    )
    _require(isinstance(obj["aspects"], list), f"{where}.aspects: must be a list")
    aspects = []
    for k, a in enumerate(obj["aspects"]):
        aw = f"{where}.aspects[{k}]"
        _require(isinstance(a, dict), f"{aw}: must be an object")
        for key in ("span", "term", "polarity"):
            _require(key in a, f"{aw}: missing field {key!r}")
        span = a["span"]
        _require(
            isinstance(span, list)
            and len(span) == 2
            and all(type(x) is int for x in span),
            f"{aw}.span: must be [start, end]",
        )
        _require(
            isinstance(a["term"], list) and all(isinstance(t, str) for t in a["term"]),
            f"{aw}.term: must be a list of strings",
        )
        _require(isinstance(a.get("implicit", False), bool), f"{aw}.implicit: must be true or false")
        polarity = Polarity.parse(a["polarity"], aw)
        start, end, term = span[0], span[1], a["term"]
        _require(0 <= start < end, f"{aw}: bad aspect span [{start}, {end})")
        _require(len(term) == end - start,
                 f"{aw}: aspect term length {len(term)} does not match span [{start}, {end})")
        aspects.append(AspectAnnotation(start, end, tuple(term), polarity, a.get("implicit", False)))
    _require(isinstance(obj.get("parse_ref", ""), str), f"{where}.parse_ref: must be a string")
    text, tokens = obj["text"], obj["tokens"]
    _require(len(tokens) >= 1, f"{where}: example has no tokens")
    prev_end = 0
    for k in sorted(range(len(aspects)), key=lambda k: (aspects[k].start, aspects[k].end)):
        a, aw = aspects[k], f"{where}.aspects[{k}]"
        _require(a.end <= len(tokens), f"{aw}: aspect span [{a.start}, {a.end}) out of bounds "
                                       f"for {len(tokens)} tokens in {text[:40]!r}")
        _require(a.start >= prev_end,
                 f"{where}: nested/overlapping aspect spans at token {a.start} in {text[:40]!r}")
        prev_end = a.end
        _require(tuple(tokens[a.start:a.end]) == a.term, f"{aw}: aspect term {list(a.term)} does "
                 f"not match tokens at [{a.start}, {a.end}) in {text[:40]!r}")
    return Example(
        text=obj["text"],
        tokens=list(obj["tokens"]),
        aspects=aspects,
        parse_ref=obj.get("parse_ref"),
    )


# ---------------------------------------------------------------------------
# The pairs, slices and metrics as first written: a pair's attributes from a
# per-example groupby, a slice as a predicate over one pair, and a confusion
# matrix counted in a Python loop


class PairAttributes(NamedTuple):
    """What the slices read of an (example, aspect) pair."""
    implicit: bool
    aspects: int  # in its example
    cluster: str  # the ``cluster_label`` of its same-polarity run


def cluster_sizes(example: Example) -> list[int]:
    """For each aspect, in order, the size of the maximal same-polarity run
    of adjacent aspects it belongs to."""
    sizes: list[int] = []
    for _, run in groupby(example.aspects, key=lambda a: a.polarity):
        n = len(list(run))
        sizes.extend([n] * n)
    return sizes


def cluster_label(size: int) -> str:
    """The bucket of ``CLUSTER_LABELS`` that a cluster size falls in."""
    return CLUSTER_LABELS[min(size, len(CLUSTER_LABELS)) - 1]


def reference_pairs(examples) -> list[tuple[int, PairAttributes]]:
    """The gold class and the attributes of every (example, aspect) pair of
    ``examples``, in order."""
    return [(a.polarity.index, PairAttributes(a.implicit, len(ex.aspects), cluster_label(size)))
            for ex in examples for a, size in zip(ex.aspects, cluster_sizes(ex))]


# name -> whether a pair, by its attributes, is in the slice; in eval.csv's order
REFERENCE_SLICES = {
    "implicit": lambda pair: pair.implicit,
    "explicit": lambda pair: not pair.implicit,
    "mono": lambda pair: pair.aspects == 1,
    **{f"cluster{label}": lambda pair, label=label: pair.cluster == label
       for label in CLUSTER_LABELS},
}


def reference_compute_metrics(golds, preds) -> Metrics:
    """Accuracy and macro-F1 over class indices; absent classes score 0."""
    golds, preds = list(golds), list(preds)
    if not golds or len(golds) != len(preds):
        raise ValueError("golds and preds must be equal-length and non-empty")
    confusion = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    for g, p in zip(golds, preds):
        confusion[g][p] += 1
    per_class = []
    for c in range(NUM_CLASSES):
        tp = confusion[c][c]
        precision = tp / confusion[:, c].sum() if confusion[:, c].sum() else 0.0
        recall = tp / confusion[c].sum() if confusion[c].sum() else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append(ClassScores(float(precision), float(recall), float(f1)))
    accuracy = float(np.trace(confusion) / len(golds))
    macro_f1 = float(sum(cs.f1 for cs in per_class) / NUM_CLASSES)
    return Metrics(accuracy, macro_f1, per_class, len(golds))


def reference_vocabulary_order(token_lists) -> list[str]:
    """``Vocabulary.build``'s ``id_to_token`` as first written: a counting
    loop, then one sort by (falling count, token)."""
    counts: dict[str, int] = {}
    for tokens in token_lists:
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
    return list(RESERVED) + sorted(counts, key=lambda t: (-counts[t], t))


def with_edited_vocabulary(blob: bytes, edit) -> bytes:
    """The checkpoint file ``blob`` with ``edit`` applied to its manifest's
    vocabulary list, and the manifest's length in the header updated."""
    magic, version, length = HEADER.unpack_from(blob)
    manifest = json.loads(blob[HEADER.size:HEADER.size + length])
    edit(manifest["vocab"])
    text = canonical_json(manifest).encode("utf-8")
    return HEADER.pack(magic, version, len(text)) + text + blob[HEADER.size + length:]
