"""Tokenizer, vocabulary, encoder forward/backward.  The SPC inputs of
``lsa_p`` are built, and tested, in ``Model.forward_example``."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lsa.autodiff as ad
from lsa.corpus import load_dataset
from lsa.encoder import (
    CLS,
    PAD,
    RESERVED,
    SEP,
    UNK,
    ConfigError,
    EncoderParams,
    Vocabulary,
    encode,
    self_attention_block,
    tokenize,
    tokenize_with_offsets,
)

from util import (FIXTURES, grad_check, mixing_weights, reference_attention,
                  reference_vocabulary_order, sum_all)

ad.set_debug_checks(True)


# ---------------------------------------------------------------------------
# tokenizer


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("Great food!") == ["great", "food", "!"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_idempotent_on_fixture_tokens():
    ds = load_dataset(FIXTURES / "mini.json")
    for ex in ds.examples:
        assert tokenize(" ".join(ex.tokens)) == ex.tokens


def test_tokenize_with_offsets_covers_source():
    text = "It's great."
    tokens, offsets = tokenize_with_offsets(text)
    assert tokens == ["it", "'", "s", "great", "."]
    for tok, (s, e) in zip(tokens, offsets):
        assert text[s:e].lower() == tok


# ---------------------------------------------------------------------------
# vocabulary


def test_vocabulary_reserved_ids_fixed():
    vocab = Vocabulary.build([["b", "a", "b"]])
    assert vocab.id_to_token[:4] == [PAD, UNK, CLS, SEP]
    assert vocab.token_to_id["b"] == 4  # most frequent first
    assert vocab.encode(["zzz"]).tolist() == [vocab.token_to_id[UNK]]


def test_vocabulary_build_deterministic_tiebreak():
    vocab = Vocabulary.build([["b", "a"]])
    # equal counts break alphabetically
    assert vocab.id_to_token[4:6] == ["a", "b"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["a", "b", "B", "ab", "a b", "", "é", "e\u0301", "[pad]"]),
                         max_size=12), max_size=8))
def test_vocabulary_order_matches_the_counting_loop(token_lists):
    """A sort by token and then a stable sort by falling count give the
    order of one sort by (falling count, token).  Nine types over a few
    dozen tokens make ties in count the rule."""
    vocab = Vocabulary.build(tokens for tokens in token_lists)
    assert vocab.id_to_token == reference_vocabulary_order(token_lists)


def test_a_reserved_marker_in_the_data_gets_the_markers_id():
    """A token that is a marker is not listed again: the marker keeps its
    row, and ``sep_id`` does not move to a row of the data."""
    vocab = Vocabulary.build([["a", SEP, "b", "a", PAD]])
    assert vocab.id_to_token == [*RESERVED, "a", "b"]
    ids = vocab.encode([SEP, PAD, "a"]).tolist()
    assert ids == [vocab.sep_id, vocab.token_to_id[PAD], 4] == [3, 0, 4]


@pytest.mark.parametrize("tokens, message", [
    ([*RESERVED, "a", "b", "a"], "vocabulary token 6 repeats token 4: 'a'"),
    ([*RESERVED, CLS], "vocabulary token 4 repeats token 2: '[CLS]'"),
    ([*RESERVED, "a", 7], "vocabulary token 5 is not a string: 7"),
    ([*RESERVED, ["a"], "a"], "vocabulary token 4 is not a string: ['a']"),
], ids=["repeated", "repeated_marker", "number", "list"])
def test_vocabulary_refuses_a_repeated_or_non_string_token(tokens, message):
    """A repeated token would map to its last row only, so the rows before
    it would be read by no token."""
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        Vocabulary(tokens)


# ---------------------------------------------------------------------------
# encoder forward


def make_encoder(d=16, layers=1, heads=2, max_len=12, vocab_size=10, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return EncoderParams.init(vocab_size, d, layers, heads, max_len, 2 * d, rng)


def encode_one(ids, params):
    """The hidden states of one sequence, as a batch of one."""
    return encode(ids, params, np.ones((1, len(ids)), dtype=bool))


def test_encode_output_shape():
    params = make_encoder()
    out = encode_one([1, 2, 3, 4], params)
    assert out.shape == (4, 16)


def test_encode_deterministic():
    params = make_encoder()
    a = encode_one([1, 2, 3], params)
    b = encode_one([1, 2, 3], params)
    assert np.array_equal(a.values, b.values)


def test_encode_rejects_overlength():
    params = make_encoder(max_len=4)
    with pytest.raises(ConfigError, match="sequence length 5 exceeds maximum 4"):
        encode_one([1] * 5, params)


@pytest.mark.parametrize("ids, valid, message", [
    ([[1, 2]], [[True, True]], r"token ids of shape \(1, 2\) for 2 valid positions"),
    ([1, 2, 3], [[True, True]], r"token ids of shape \(3,\) for 2 valid positions"),
    ([1], [[True, True], [True, False]], r"token ids of shape \(1,\) for 3 valid positions"),
    ([], np.ones((1, 0), dtype=bool), r"cannot encode a layout of shape \(1, 0\)"),
    ([], np.ones(2, dtype=bool), r"cannot encode a layout of shape \(2,\)"),
], ids=["not-packed", "too-many-ids", "too-few-ids", "empty-layout", "flat-layout"])
def test_encode_refuses_ids_that_do_not_fill_the_layout(ids, valid, message):
    """The ids are packed: one per valid position, (N,) for N = valid.sum()."""
    with pytest.raises(ConfigError, match=message):
        encode(np.array(ids, dtype=np.int64), make_encoder(), np.array(valid))


def test_heads_must_divide_width():
    with pytest.raises(ConfigError):
        make_encoder(d=16, heads=3)


def test_encode_embedding_gradient_matches_fd():
    params = make_encoder(d=8, heads=2, vocab_size=6)
    ids = [1, 4, 2]
    readout = ad.tensor(np.random.default_rng(1).normal(size=(8, 1)))

    def build():
        h = encode_one(ids, params)
        return sum_all(ad.matmul(h, readout))

    worst = grad_check(
        build, {"emb": params.embedding, "pos": params.positional}, eps=1e-6
    )
    assert worst <= 1e-5


# ---------------------------------------------------------------------------
# self-attention block


def block_weights(x, params, **layout):
    """The attention weights of the first block, (queries, heads, L), read
    from ``ad.attention``'s output."""
    blk = params.blocks[0]
    return mixing_weights(x, blk.wq, blk.bq, blk.wk, params.heads, **layout)


def test_attention_rows_sum_to_one():
    params = make_encoder()
    x = ad.tensor(np.random.default_rng(2).normal(size=(8, 16)))
    valid = np.arange(5) < np.array([[5], [3]])
    weights = block_weights(x, params, valid=valid)
    assert weights.shape == (8, params.heads, 5)
    assert np.max(np.abs(weights.sum(axis=-1) - 1.0)) <= 1e-12
    assert np.all(weights[5:, :, 3:] == 0.0)  # no weight on the padding


def test_single_position_attention_is_identity_mixing():
    params = make_encoder()
    x = ad.tensor(np.random.default_rng(3).normal(size=(1, 16)))
    valid = np.ones((1, 1), dtype=bool)
    assert block_weights(x, params, valid=valid).tolist() == [[[1.0]] * params.heads]


def test_block_commutes_with_position_permutation():
    # no positional term inside the block, so it is permutation-equivariant
    params = make_encoder()
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 16))
    perm = rng.permutation(6)
    valid = np.ones((1, 6), dtype=bool)
    out = self_attention_block(ad.tensor(x), params.blocks[0], params.heads, valid)
    out_perm = self_attention_block(ad.tensor(x[perm]), params.blocks[0], params.heads, valid)
    assert np.max(np.abs(out.values[perm] - out_perm.values)) <= 1e-12


def test_query_rows_compute_leading_rows_of_the_block():
    """With ``source`` and unit scales, the block gives the first row of
    each sequence's output."""
    params = make_encoder()
    x = ad.tensor(np.random.default_rng(6).normal(size=(7, 16)))
    valid = np.arange(5) < np.array([[5], [2]])
    full = self_attention_block(x, params.blocks[0], params.heads, valid)
    first = dict(valid=valid, source=[0, 1], scale=np.ones((2, 5)))
    row0 = self_attention_block(x, params.blocks[0], params.heads, **first)
    assert row0.shape == (2, 16)
    assert np.max(np.abs(row0.values - full.values[[0, 5]])) <= 1e-12
    assert block_weights(x, params, **first).shape == (2, params.heads, 5)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_source_rows_equal_the_block_on_scaled_copies(data):
    """``source``/``scale`` give, values and gradients, what the block gives
    on the gathered and scaled rows, which it never forms."""
    seed = data.draw(st.integers(0, 2**32 - 1))
    length = data.draw(st.integers(1, 6))
    counts = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)
                       .filter(lambda c: sum(c) > 0))
    heads = data.draw(st.sampled_from([1, 2, 4]))
    rng = np.random.default_rng(seed)
    block = make_encoder(heads=heads, seed=seed % 1000).blocks[0]
    valid = np.arange(length) < rng.integers(1, length + 1, size=(len(counts), 1))
    h = ad.parameter(rng.normal(size=(valid.sum(), 16)))
    source = np.repeat(np.arange(len(counts)), counts)
    scale = rng.uniform(0.0, 1.0, size=(len(source), length))
    scale[rng.random(scale.shape) < 0.2] = 0.0
    readout = rng.normal(size=(len(source), 16))
    # the packed rows of the scaled copies
    lengths = valid.sum(axis=1)
    rows = np.concatenate([np.arange(lengths[:s].sum(), lengths[:s + 1].sum()) for s in source])
    params = dict(block.named("sa"))

    def run(build):
        for t in [h, *params.values()]:
            t.grad = None
        tape = ad.Tape()
        with tape:
            out = build()
            loss = sum_all(ad.mul(out, ad.tensor(readout)))
        tape.backward(loss)
        return out.values, {name: t.grad.copy() for name, t in [("h", h), *params.items()]}

    factored, grads = run(lambda: self_attention_block(
        h, block, heads, valid, source=source, scale=scale))
    copies, expected = run(lambda: self_attention_block(
        ad.mul(ad.gather_rows(h, rows), ad.tensor(scale[valid[source]][:, None])), block,
        heads, valid[source], np.arange(len(source)), np.ones(scale.shape)))
    np.testing.assert_allclose(factored, copies, rtol=0, atol=1e-12)
    for name, g in grads.items():  # gradients reach 1e5 where a row's scales are near 0
        np.testing.assert_allclose(g, expected[name], rtol=1e-12, atol=1e-12, err_msg=name)


def reference_block(x, attn, blk, eps=1e-5):
    """The residual, layer norm, feed-forward, residual and layer norm that
    follow attention, in numpy: ``x`` is the residual, ``attn`` the
    attention output without it."""
    v = {name: t.values for name, t in blk.named("")}

    def norm(z, gain, bias):
        centred = z - z.mean(axis=1, keepdims=True)
        return centred / np.sqrt(z.var(axis=1, keepdims=True) + eps) * gain + bias

    h = norm(x + attn, v[".ln1_g"], v[".ln1_b"])
    f = np.tanh(h @ v[".w1"] + v[".b1"]) @ v[".w2"] + v[".b2"]
    return norm(h + f, v[".ln2_g"], v[".ln2_b"])


@pytest.mark.parametrize("form", ["all_rows", "head_sa"])
def test_block_matches_numpy_reference(form):
    """The block against numpy, both on every packed row and in
    ``head.sa``'s form: per-head attention on each sequence (for
    ``head.sa``, the rows of its source sequence times its scale), plus
    the residual rows, then the layer norm/feed-forward chain."""
    rng = np.random.default_rng(27)
    blk = make_encoder(seed=3).blocks[0]
    for _, t in blk.named(""):  # away from the initial unit gains and zero biases
        t.values = t.values + 0.2 * rng.normal(size=t.shape)
    valid = np.arange(5) < np.array([[5], [1], [3]])
    x = rng.normal(size=(valid.sum(), 16))
    sequences = np.split(x, np.cumsum(valid.sum(axis=1))[:-1])
    layout = {}
    first = form == "head_sa"
    if first:
        source = np.array([0, 0, 1, 2, 2])
        layout = dict(source=source, scale=rng.uniform(0.0, 1.0, size=(5, 5)))
        sequences = [w[:len(sequences[i]), None] * sequences[i]
                     for i, w in zip(source, layout["scale"])]
    attn = {name: getattr(blk, name) for name in ("wq", "bq", "wk", "wv", "bv", "wo", "bo")}
    mha = np.concatenate([reference_attention(seq, attn, 2, first) for seq in sequences])
    residual = np.stack([seq[0] for seq in sequences]) if first else x
    out = self_attention_block(ad.tensor(x), blk, 2, valid, **layout)
    assert np.max(np.abs(out.values - reference_block(residual, mha, blk))) <= 1e-12


def ragged_batch(sequences):
    """The packed token ids (N,) of sequences and the (S, L) mask of their positions."""
    lengths = np.array([len(seq) for seq in sequences])
    return np.concatenate(sequences), np.arange(lengths.max()) < lengths[:, None]


def test_padding_mask_shields_prefix_outputs():
    """Each sequence's packed rows are its hidden states encoded alone."""
    params = make_encoder(layers=2)
    sequences = [[1, 2, 3], [4, 5, 6, 7, 8, 9], [2]]
    ids, valid = ragged_batch(sequences)
    packed = encode(ids, params, valid)
    assert packed.shape == (10, 16)
    ends = np.cumsum([len(seq) for seq in sequences])
    for seq, rows in zip(sequences, np.split(packed.values, ends[:-1])):
        plain = encode_one(seq, params)
        assert np.max(np.abs(plain.values - rows)) <= 1e-12


def test_encode_runs_no_row_wise_op_on_padding(monkeypatch):
    """Every op of a ragged batch's encoder pass takes and gives exactly
    the batch's real rows: the embedding sum, and each block's attention
    and residual feed-forward."""
    params = make_encoder(layers=2)
    ids, valid = ragged_batch([[1, 2, 3], [4, 5, 6, 7, 8, 9], [2]])
    seen = []

    def counted(name, op):
        def wrapper(t, *args, **kwargs):
            out = op(t, *args, **kwargs)
            seen.append((name, t.shape[0], out.shape[0]))
            return out

        return wrapper

    for name in ("add", "attention", "residual_ffn"):
        monkeypatch.setattr(ad, name, counted(name, getattr(ad, name)))
    encode(ids, params, valid)
    assert [name for name, _, _ in seen] == ["add"] + ["attention", "residual_ffn"] * 2
    assert [rows for _, *rows in seen] == [[valid.sum()] * 2] * len(seen)


def test_padded_batch_encode_gradients_match_fd():
    params = make_encoder(d=8, heads=2, vocab_size=6)
    ids = np.array([[1, 4, 2], [3, 0, 0]])  # the second row is padded with id 0
    valid = ids != 0
    readout = ad.tensor(np.random.default_rng(2).normal(size=(4, 8)))

    def build():
        return sum_all(ad.mul(encode(ids[valid], params, valid), readout))

    worst = grad_check(
        build, {"emb": params.embedding, "pos": params.positional}, eps=1e-6
    )
    assert worst <= 1e-5


def test_all_parameters_receive_gradient_on_synthetic_batch():
    from util import tiny_model, write_synth_corpus
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _, datasets, _ = write_synth_corpus(tmp, train=8, test=2)
    examples = [ex for ex in datasets["train"].examples if len(ex.aspects) >= 2]
    tokens = sorted({t for ex in datasets["train"].examples for t in ex.tokens})
    model = tiny_model(vocab_tokens=tokens)
    tape = ad.Tape()
    with tape:
        logits = model.forward(examples[:4])
        total = ad.cross_entropy(logits, [a.polarity.index for ex in examples[:4] for a in ex.aspects])
    tape.backward(total)
    for name, param in model.named_parameters().items():
        assert param.grad is not None, f"{name} got no gradient"
        assert np.any(param.grad != 0), f"{name} gradient is all zero"
