"""Positional and tree distances, CoNLL-U ingestion, token alignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsa.corpus import DataError
from lsa.distance import (
    DependencyTree,
    align_tokens_to_words,
    aspect_distances,
    load_parses,
    relative_token_distance,
    syntactic_distance,
)

from util import FIXTURES, bfs_distance, outcome, random_tree, reference_validate


# ---------------------------------------------------------------------------
# positional distance


def token_distance(n, start, end):
    """The positional distances of all n tokens to the aspect [start, end)."""
    return aspect_distances(relative_token_distance(n), [(start, end)])[0]


def test_relative_distance_two_token_aspect():
    assert token_distance(6, 4, 6)[1] == 3.5


def test_relative_distance_inside_single_token_aspect():
    assert token_distance(8, 7, 8)[7] == 0.0


def test_relative_distance_matches_recomputation():
    import random

    rnd = random.Random(0)
    for _ in range(200):
        n = rnd.randrange(1, 50)
        a = rnd.randrange(n)
        b = rnd.randrange(a + 1, min(a + 6, n) + 1)
        got = token_distance(n, a, b)
        for p in range(n):
            assert got[p] == pytest.approx(sum(abs(p - q) for q in range(a, b)) / (b - a))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.integers(0, 40), st.integers(1, 5), st.integers(0, 40))
def test_relative_distance_shift_invariant(p, start, length, c):
    n = 90
    base = token_distance(n, start, start + length)[p]
    assert token_distance(n, start + c, start + c + length)[p + c] == base


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_aspect_distances_are_the_mean_over_the_span(data):
    n = data.draw(st.integers(1, 12))
    table = np.array(data.draw(st.lists(
        st.lists(st.integers(0, 2**20), min_size=n, max_size=n), min_size=n, max_size=n,
    )), dtype=np.int64)
    spans = data.draw(st.lists(
        st.integers(0, n - 1).flatmap(lambda s: st.tuples(st.just(s), st.integers(s + 1, n))),
        min_size=1, max_size=5,
    ))
    got = aspect_distances(table, spans)
    assert np.array_equal(got, np.stack([table[s:e].sum(0) / (e - s) for s, e in spans]))


# ---------------------------------------------------------------------------
# tree distance


def chain_tree():
    # "he likes food": likes is the root, he and food attach to it
    return DependencyTree(("he", "likes", "food"), (2, 0, 2))


def test_tree_distance_to_self_is_zero():
    assert chain_tree().distances[1, 1] == 0


def test_tree_distance_chain_example():
    assert chain_tree().distances[0, 2] == 2


def test_tree_distance_matches_bfs_oracle():
    import random

    rnd = random.Random(42)
    for _ in range(100):
        tree = random_tree(rnd, rnd.randrange(2, 31))
        n = tree.word_count
        expected = [[bfs_distance(tree, a, b) for b in range(n)] for a in range(n)]
        assert np.array_equal(tree.distances, expected)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 20))
def test_tree_distance_is_a_metric(seed, n):
    import random

    d = random_tree(random.Random(seed), n).distances
    assert np.array_equal(d, d.T)
    assert np.array_equal(d == 0, np.eye(n, dtype=bool))
    assert np.all(d[:, None, :] <= d[:, :, None] + d[None, :, :])  # d(a,b) <= d(a,c) + d(c,b)


# ---------------------------------------------------------------------------
# syntactic (aligned) distance


def test_syntactic_distance_same_word_is_zero():
    table = syntactic_distance(chain_tree(), np.arange(3), 3)
    assert aspect_distances(table, [(1, 2)])[0, 1] == 0.0


def test_syntactic_distance_chain_example_two_token_aspect():
    table = syntactic_distance(chain_tree(), np.arange(3), 3)
    # aspect {likes, food}, token "he"
    assert aspect_distances(table, [(1, 3)])[0, 0] == 1.5


def test_syntactic_distance_reads_the_first_n_tokens():
    words = np.array([0, 0, 1, 2])  # "he" split in two tokens
    table = syntactic_distance(chain_tree(), words, 3)
    assert table.tolist() == [[0, 0, 1], [0, 0, 1], [1, 1, 0]]


def test_syntactic_distance_matches_bfs_oracle_with_subwords():
    import random

    rnd = random.Random(7)
    for _ in range(100):
        n = rnd.randrange(2, 12)
        tree = random_tree(rnd, n)
        # each word split into 1-2 tokens, all mapping back to the word
        mapping = []
        for w in range(n):
            for _ in range(rnd.randrange(1, 3)):
                mapping.append(w)
        table = syntactic_distance(tree, np.array(mapping), len(mapping))
        token = rnd.randrange(len(mapping))
        aspect = rnd.randrange(len(mapping))
        got = aspect_distances(table, [(aspect, aspect + 1)])[0, token]
        assert got == bfs_distance(tree, mapping[token], mapping[aspect])


# ---------------------------------------------------------------------------
# token/word alignment


def test_align_identity():
    words = align_tokens_to_words(["a", "b"], ["a", "b"])
    assert words.dtype == np.int64 and words.tolist() == [0, 1]


def test_align_subword_tokens_inherit_word():
    words = align_tokens_to_words(["don", "'", "t", "go"], ["don't", "go"])
    assert words.tolist() == [0, 0, 0, 1]


def test_align_mismatch_raises():
    with pytest.raises(DataError, match="align"):
        align_tokens_to_words(["a", "b"], ["a", "c"])


@st.composite
def head_tuples(draw):
    """The heads (0 to n + 1) of n words: drawn at random, or those of a
    tree (words join in a random order, each under one that joined
    earlier) with up to three redrawn.  Heads out of range, self-loops,
    cycles and several roots all occur."""
    n = draw(st.integers(1, 12))
    any_head = st.integers(0, n + 1)
    if draw(st.booleans()):
        return tuple(draw(st.lists(any_head, min_size=n, max_size=n)))
    order = draw(st.permutations(range(n)))
    heads = [0] * n
    for k in range(1, n):
        heads[order[k]] = order[draw(st.integers(0, k - 1))] + 1
    for _ in range(draw(st.integers(0, 3))):
        heads[draw(st.integers(0, n - 1))] = draw(any_head)
    return tuple(heads)


@settings(max_examples=400, deadline=None)
@given(head_tuples())
def test_validate_matches_the_reference(heads):
    """The same verdict, and the same message, as the climb from every word."""
    tree = DependencyTree(tuple(f"w{i}" for i in range(len(heads))), heads)
    assert outcome(tree.validate) == outcome(reference_validate, tree)


# ---------------------------------------------------------------------------
# CoNLL-U loading


def test_load_parses_fixture():
    trees = load_parses(FIXTURES / "mini.conllu")
    assert set(trees) == {"s1", "s3", "s4"}
    s1 = trees["s1"]
    assert s1.word_count == 8
    assert s1.forms[1] == "screen"
    assert s1.heads[3] == 0  # "sharp" is the root
    # the multiword-token range in s3 is skipped
    assert trees["s3"].word_count == 4


def test_load_parses_valid_three_word_tree(tmp_path):
    path = tmp_path / "p.conllu"
    path.write_text(
        "# sent_id = x\n"
        "1\ta\t_\t_\t_\t_\t2\n"
        "2\tb\t_\t_\t_\t_\t0\n"
        "3\tc\t_\t_\t_\t_\t2\n"
    )
    trees = load_parses(path)
    assert trees["x"].heads == (2, 0, 2)


def test_load_parses_rejects_cycle(tmp_path):
    path = tmp_path / "p.conllu"
    path.write_text(
        "# sent_id = x\n1\ta\t_\t_\t_\t_\t2\n2\tb\t_\t_\t_\t_\t1\n"
    )
    with pytest.raises(DataError, match="cycl"):
        load_parses(path)


def test_load_parses_rejects_multiple_roots(tmp_path):
    path = tmp_path / "p.conllu"
    path.write_text(
        "# sent_id = x\n1\ta\t_\t_\t_\t_\t0\n2\tb\t_\t_\t_\t_\t0\n"
    )
    with pytest.raises(DataError, match="root"):
        load_parses(path)


def test_load_parses_requires_sent_id(tmp_path):
    path = tmp_path / "p.conllu"
    path.write_text("1\ta\t_\t_\t_\t_\t0\n")
    with pytest.raises(DataError, match="sent_id"):
        load_parses(path)


def test_load_parses_rejects_a_duplicate_sent_id(tmp_path):
    path = tmp_path / "p.conllu"
    path.write_text(
        "# sent_id = x\n1\ta\t_\t_\t_\t_\t0\n\n"
        "# sent_id = x\n1\tb\t_\t_\t_\t_\t0\n"
    )
    with pytest.raises(DataError, match=r"p\.conllu:6: duplicate sent_id 'x'"):
        load_parses(path)


def test_load_parses_rejects_non_utf8(tmp_path):
    path = tmp_path / "p.conllu"
    path.write_bytes(b"# sent_id = x\n1\tcaf\xe9\t_\t_\t_\t_\t0\n")
    with pytest.raises(DataError, match=r"p\.conllu: not UTF-8 text"):
        load_parses(path)
