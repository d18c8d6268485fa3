"""Tokenizer, vocabulary, SPC input construction, encoder forward/backward."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lsa.autodiff as ad
from lsa.corpus import load_dataset
from lsa.encoder import (
    CLS,
    PAD,
    SEP,
    UNK,
    ConfigError,
    EncoderParams,
    Vocabulary,
    build_spc_input,
    encode,
    self_attention_block,
    tokenize,
    tokenize_with_offsets,
)

from util import FIXTURES, grad_check

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


# ---------------------------------------------------------------------------
# SPC input


@pytest.fixture
def vocab():
    return Vocabulary.build([["a", "b", "c", "d"]])


def test_spc_layout(vocab):
    ids = build_spc_input(["a", "b"], ["b"], vocab, max_len=16)
    a, b = vocab.token_to_id["a"], vocab.token_to_id["b"]
    assert ids.tolist() == [vocab.cls_id, a, b, vocab.sep_id, b, vocab.sep_id]


def test_spc_rejects_empty_aspect(vocab):
    with pytest.raises(ConfigError):
        build_spc_input(["a"], [], vocab, max_len=16)


def test_spc_truncates_context_never_aspect(vocab):
    ids = build_spc_input(["a"] * 50, ["b", "c"], vocab, max_len=10)
    assert len(ids) == 10
    b, c = vocab.token_to_id["b"], vocab.token_to_id["c"]
    assert ids.tolist()[-3:] == [b, c, vocab.sep_id]


def test_spc_rejects_oversized_aspect(vocab):
    with pytest.raises(ConfigError):
        build_spc_input(["a"], ["b"] * 20, vocab, max_len=10)


# ---------------------------------------------------------------------------
# encoder forward


def make_encoder(d=16, layers=1, heads=2, max_len=12, vocab_size=10, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    return EncoderParams.init(vocab_size, d, layers, heads, max_len, 2 * d, rng)


def test_encode_output_shape():
    params = make_encoder()
    out = encode([1, 2, 3, 4], params)
    assert out.shape == (4, 16)


def test_encode_deterministic():
    params = make_encoder()
    a = encode([1, 2, 3], params)
    b = encode([1, 2, 3], params)
    assert np.array_equal(a.values, b.values)


def test_encode_rejects_overlength():
    params = make_encoder(max_len=4)
    with pytest.raises(ConfigError):
        encode([1] * 5, params)


def test_heads_must_divide_width():
    with pytest.raises(ConfigError):
        make_encoder(d=16, heads=3)


def test_encode_embedding_gradient_matches_fd():
    params = make_encoder(d=8, heads=2, vocab_size=6)
    ids = [1, 4, 2]
    readout = ad.tensor(np.random.default_rng(1).normal(size=(8, 1)))

    def build():
        h = encode(ids, params)
        return ad.sum_all(ad.matmul(h, readout))

    worst = grad_check(
        build, {"emb": params.embedding, "pos": params.positional}, eps=1e-6
    )
    assert worst <= 1e-5


# ---------------------------------------------------------------------------
# self-attention block


def test_attention_rows_sum_to_one():
    params = make_encoder()
    x = ad.tensor(np.random.default_rng(2).normal(size=(5, 16)))
    _, weights = self_attention_block(
        x, params.blocks[0], params.heads, return_attention=True
    )
    assert len(weights) == params.heads
    for att in weights:
        assert att.shape == (5, 5)
        sums = att.values.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12


def test_single_position_attention_is_identity_mixing():
    params = make_encoder()
    x = ad.tensor(np.random.default_rng(3).normal(size=(1, 16)))
    _, weights = self_attention_block(
        x, params.blocks[0], params.heads, return_attention=True
    )
    assert len(weights) == params.heads
    for att in weights:
        assert att.values.tolist() == [[1.0]]


def test_block_commutes_with_position_permutation():
    # no positional term inside the block, so it is permutation-equivariant
    params = make_encoder()
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 16))
    perm = rng.permutation(6)
    out = self_attention_block(ad.tensor(x), params.blocks[0], params.heads)
    out_perm = self_attention_block(ad.tensor(x[perm]), params.blocks[0], params.heads)
    assert np.max(np.abs(out.values[perm] - out_perm.values)) <= 1e-12


def test_query_rows_compute_leading_rows_of_the_block():
    params = make_encoder()
    x = ad.tensor(np.random.default_rng(6).normal(size=(2, 5, 16)))
    full = self_attention_block(x, params.blocks[0], params.heads)
    row0, weights = self_attention_block(
        x, params.blocks[0], params.heads, return_attention=True, query_rows=1
    )
    assert row0.shape == (2, 1, 16)
    assert np.max(np.abs(row0.values - full.values[:, :1])) <= 1e-12
    assert [att.shape for att in weights] == [(2, 1, 5)] * params.heads


def test_padding_mask_shields_prefix_outputs():
    params = make_encoder(layers=2)
    sequences = [[1, 2, 3], [4, 5, 6, 7, 8, 9], [2]]
    ids = np.zeros((3, 6), dtype=np.int64)  # padded with id 0, [PAD]
    valid = np.zeros((3, 6), dtype=bool)
    for row, seq in enumerate(sequences):
        ids[row, :len(seq)] = seq
        valid[row, :len(seq)] = True
    padded = encode(ids, params, valid)
    for row, seq in enumerate(sequences):
        plain = encode(seq, params)
        assert np.max(np.abs(plain.values - padded.values[row, :len(seq)])) <= 1e-12


def test_padded_batch_encode_gradients_match_fd():
    params = make_encoder(d=8, heads=2, vocab_size=6)
    ids = np.array([[1, 4, 2], [3, 0, 0]])  # the second row is padded with id 0
    valid = ids != 0
    readout = ad.tensor(np.random.default_rng(2).normal(size=(2, 3, 8)) * valid[..., None])

    def build():
        return ad.sum_all(ad.mul(encode(ids, params, valid), readout))

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
        probs = model.forward(examples[:4])
        total = ad.cross_entropy(probs, [a.polarity.index for ex in examples[:4] for a in ex.aspects])
    tape.backward(total)
    for name, param in model.named_parameters().items():
        assert param.grad is not None, f"{name} got no gradient"
        assert np.any(param.grad != 0), f"{name} gradient is all zero"
