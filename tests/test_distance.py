"""Positional and tree distances, CoNLL-U ingestion, token alignment."""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lsa.corpus import DataError
from lsa.distance import (
    DependencyTree,
    align_tokens_to_words,
    forest_fault,
    load_parses,
    syntactic_distance,
)
from lsa.window import ExampleInputs, position_weight, position_weights

from util import (
    FIXTURES,
    bfs_distance,
    outcome,
    random_tree,
    reference_align,
    reference_load_parses,
    reference_validate,
)


def aspect_weights(n, spans, parse=None):
    """The weight rows, at alpha 0, of the n tokens of one context for
    each aspect span, from the batch pass of ``position_weights``.  At
    alpha 0 a weight is 1 - d/n, so equal weights mean equal distances."""
    x = ExampleInputs(len(spans), [np.zeros(n + 1, dtype=np.int64)], spans, parse)
    _, scale = position_weights([x], np.ones((1, n + 1), dtype=bool), 0.0)
    return scale[:-1, 1:]  # no pooled row, no marker


def mean_weight(distances, n):
    return position_weight(sum(distances) / len(distances), 0.0, n)


# ---------------------------------------------------------------------------
# positional distance


def token_distance(n, start, end):
    """The weights of all n tokens for the aspect [start, end), by their
    positional distances."""
    return aspect_weights(n, [(start, end)])[0]


def test_relative_distance_two_token_aspect():
    assert token_distance(6, 4, 6)[1] == position_weight(3.5, 0.0, 6)


def test_relative_distance_inside_single_token_aspect():
    assert token_distance(8, 7, 8)[7] == 1.0  # distance 0: at alpha 0 the only weight 1


def test_relative_distance_matches_recomputation():
    rnd = random.Random(0)
    for _ in range(200):
        n = rnd.randrange(1, 50)
        a = rnd.randrange(n)
        b = rnd.randrange(a + 1, min(a + 6, n) + 1)
        got = token_distance(n, a, b)
        for p in range(n):
            assert got[p] == mean_weight([abs(p - q) for q in range(a, b)], n)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.integers(0, 40), st.integers(1, 5), st.integers(0, 40))
def test_relative_distance_shift_invariant(p, start, length, c):
    n = 90
    base = token_distance(n, start, start + length)[p]
    assert token_distance(n, start + c, start + c + length)[p + c] == base


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_aspect_distances_are_the_mean_over_the_span(data):
    """Each aspect's weights are those of the mean of the tree distance
    rows of its tokens, one integer sum divided once."""
    n = data.draw(st.integers(1, 12))
    tree = random_tree(random.Random(data.draw(st.integers(0, 2**32 - 1))), n)
    spans = data.draw(st.lists(
        st.integers(0, n - 1).flatmap(lambda s: st.tuples(st.just(s), st.integers(s + 1, n))),
        min_size=1, max_size=5,
    ))
    table = tree_table(tree)
    got = aspect_weights(n, spans, (tree, np.arange(n)))
    want = [position_weight(table[s:e].sum(0) / (e - s), 0.0, n) for s, e in spans]
    assert np.array_equal(got, np.stack(want))


# ---------------------------------------------------------------------------
# tree distance


def tree_table(tree, words=None):
    """The (n, n) tree distances between all tokens of one sentence,
    ``words`` the word of each token (default: one token per word)."""
    words = np.arange(tree.word_count) if words is None else words
    return syntactic_distance([tree], [words], np.zeros(len(words), dtype=np.int64),
                              np.arange(len(words)))


def chain_tree():
    # "he likes food": likes is the root, he and food attach to it
    return DependencyTree(("he", "likes", "food"), (2, 0, 2))


def test_tree_distance_to_self_is_zero():
    assert tree_table(chain_tree())[1, 1] == 0


def test_tree_distance_chain_example():
    assert tree_table(chain_tree())[0, 2] == 2


def test_tree_distance_matches_bfs_oracle():
    """1-4 random trees joined in one forest: each token's row holds the
    breadth-first distances within its own sentence, then 0."""
    rnd = random.Random(42)
    for _ in range(100):
        trees = [random_tree(rnd, rnd.randrange(1, 31)) for _ in range(rnd.randrange(1, 5))]
        words = [np.arange(t.word_count) for t in trees]
        rows = [(k, w) for k, t in enumerate(trees) for w in range(t.word_count)]
        rnd.shuffle(rows)
        got = syntactic_distance(trees, words, *np.array(rows).T)
        width = max(t.word_count for t in trees)
        assert got.shape == (len(rows), width) and got.dtype == np.int64
        for (k, a), row in zip(rows, got):
            n = trees[k].word_count
            assert row.tolist() == [bfs_distance(trees[k], a, b) for b in range(n)] + [0] * (width - n)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 20))
def test_tree_distance_is_a_metric(seed, n):
    d = tree_table(random_tree(random.Random(seed), n))
    assert np.array_equal(d, d.T)
    assert np.array_equal(d == 0, np.eye(n, dtype=bool))
    assert np.all(d[:, None, :] <= d[:, :, None] + d[None, :, :])  # d(a,b) <= d(a,c) + d(c,b)


# ---------------------------------------------------------------------------
# syntactic (aligned) distance


def test_syntactic_distance_same_word_is_zero():
    assert aspect_weights(3, [(1, 2)], (chain_tree(), np.arange(3)))[0, 1] == 1.0


def test_syntactic_distance_chain_example_two_token_aspect():
    # aspect {likes, food}, token "he": 1 and 2 edges away
    got = aspect_weights(3, [(1, 3)], (chain_tree(), np.arange(3)))[0, 0]
    assert got == position_weight(1.5, 0.0, 3)


def test_syntactic_distance_reads_the_first_n_tokens():
    words = np.array([0, 0, 1, 2])  # "he" split in two tokens
    assert tree_table(chain_tree(), words[:3]).tolist() == [[0, 0, 1], [0, 0, 1], [1, 1, 0]]


def test_syntactic_distance_matches_bfs_oracle_with_subwords():
    """Sentences of random trees whose words split into 1-2 tokens each,
    1-3 sentences per call, one row per token read."""
    rnd = random.Random(7)
    for _ in range(100):
        trees, mappings = [], []
        for _ in range(rnd.randrange(1, 4)):
            trees.append(random_tree(rnd, rnd.randrange(2, 12)))
            # each word split in 1-2 tokens, all mapping back to the word
            mappings.append([w for w in range(trees[-1].word_count)
                             for _ in range(rnd.randrange(1, 3))])
        k = rnd.randrange(len(trees))
        token, aspect = (rnd.randrange(len(mappings[k])) for _ in range(2))
        got = syntactic_distance(trees, [np.array(m) for m in mappings], np.array([k]),
                                 np.array([aspect]))[0, token]
        assert got == bfs_distance(trees[k], mappings[k][token], mappings[k][aspect])


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


@pytest.mark.parametrize("tokens, words, message", [
    (["w9", "w13", "w14"], ["w9x", "w13"], "cannot align tokens 0-1 ('w9w13') to word 0 ('w9x')"),
    (["a", "b"], ["a", "bc"], "cannot align tokens 1-1 ('b') to word 1 ('bc')"),
    (["a"], ["a", "b"], "no token is left for word 1 ('b')"),
], ids=["overshoot", "run_out_in_a_word", "run_out_before_a_word"])
def test_align_mismatch_names_the_tokens_at_fault(tokens, words, message):
    """The error once named the next, unconsumed token: token 2 ('w14')
    for the overshoot."""
    with pytest.raises(DataError) as e:
        align_tokens_to_words(tokens, words)
    assert str(e.value) == message


@st.composite
def token_word_pairs(draw):
    """Tokens and words over a small alphabet: words equal to the tokens
    up to case (where the one-to-one short-cut applies), their runs joined
    into words, or either list changed by one string, empty strings and
    empty lists included."""
    text = st.text(alphabet="aAb'", max_size=3)
    tokens = draw(st.lists(text, max_size=6))
    words = [t.upper() if draw(st.booleans()) else t for t in tokens]
    if tokens and draw(st.booleans()):  # join runs of tokens
        cuts = sorted(draw(st.sets(st.integers(1, len(tokens)))) | {len(tokens)})
        words = ["".join(tokens[a:b]) for a, b in zip([0, *cuts], cuts)]
    if draw(st.booleans()):
        target = draw(st.sampled_from([tokens, words]))
        if target and draw(st.booleans()):
            target[draw(st.integers(0, len(target) - 1))] = draw(text)
        else:
            target.insert(draw(st.integers(0, len(target))), draw(text))
    return tokens, words


@settings(max_examples=400, deadline=None)
@given(token_word_pairs())
def test_align_matches_the_greedy_reference(pair):
    """The short-cut for tokens that are the words gives what the greedy
    walk gives, the same array or the same error."""
    got, want = outcome(align_tokens_to_words, *pair), outcome(reference_align, *pair)
    if got[0] == want[0] == "ok":
        assert got[1].dtype == want[1].dtype == np.int64
        assert got[1].tolist() == want[1].tolist()
    else:
        assert got == want


@st.composite
def head_tuples(draw, faulty=True):
    """The heads (0 to n + 1) of n words: drawn at random, or those of a
    tree (words join in a random order, each under one that joined
    earlier) with up to three redrawn.  Heads out of range, self-loops,
    cycles and several roots all occur.  Not ``faulty``: a tree's."""
    n = draw(st.integers(1, 12))
    any_head = st.integers(0, n + 1)
    if faulty and draw(st.booleans()):
        return tuple(draw(st.lists(any_head, min_size=n, max_size=n)))
    order = draw(st.permutations(range(n)))
    heads = [0] * n
    for k in range(1, n):
        heads[order[k]] = order[draw(st.integers(0, k - 1))] + 1
    for _ in range(draw(st.integers(0, 3 if faulty else 0))):
        heads[draw(st.integers(0, n - 1))] = draw(any_head)
    return tuple(heads)


def tree_outcome(heads):
    """``forest_fault`` of one tree, read as ``outcome`` reads ``reference_validate``."""
    fault = forest_fault(heads, [len(heads)])
    return ("ok", None) if fault is None else ("DataError", fault[1])


@settings(max_examples=400, deadline=None)
@given(head_tuples())
def test_validate_matches_the_reference(heads):
    """``forest_fault`` of one tree gives the same verdict, and the same
    message, as the climb from every word."""
    tree = DependencyTree(tuple(f"w{i}" for i in range(len(heads))), heads)
    assert tree_outcome(heads) == outcome(reference_validate, tree)


@pytest.mark.parametrize("heads", [(0, 2**70), (-(2**70), 0), (0, -2**63), (2, 0, 2**63 - 1)])
def test_a_head_at_or_past_the_int64_limits_is_out_of_range(heads):
    """Validation runs on int64 heads; a head that int64 cannot hold is
    named as it was written."""
    tree = DependencyTree(tuple(f"w{i}" for i in range(len(heads))), heads)
    assert tree_outcome(heads) == outcome(reference_validate, tree)
    assert "out of range" in tree_outcome(heads)[1]


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


@pytest.mark.parametrize("column, cell", [  # ID cells for 2, HEAD cells for 1
    *((0, cell) for cell in ("+2", "0_2", "\u0662", "2 ", "\uff12", "\u00b2")),
    *((6, cell) for cell in ("+1", "0_1", "\u0661", " 1", "1 ", "\uff11", "\u00b9"))])
def test_an_id_or_head_cell_that_is_not_ascii_digits_is_refused(column, cell, tmp_path):
    """``int()`` reads each of these cells of word 2 as a number (with a
    sign, an underscore, a space, or an Arabic-Indic or fullwidth digit),
    and ``str.isdigit`` takes a superscript digit; both loaders refuse
    them, at their line."""
    words = [["1", "a", "_", "_", "_", "_", "0", "_", "_", "_"],
             ["2", "b", "_", "_", "_", "_", "1", "_", "_", "_"],
             ["3", "c", "_", "_", "_", "_", "1", "_", "_", "_"]]
    words[1][column] = cell
    path = tmp_path / "p.conllu"
    path.write_text("# sent_id = x\n" + "".join("\t".join(w) + "\n" for w in words))
    for load in (load_parses, reference_load_parses):
        assert outcome(load, path) == ("DataError", f"{path}:3: non-integer ID or HEAD")


def test_a_sent_id_comment_inside_a_sentence_is_refused(tmp_path):
    """A sent_id comment after a sentence's first word would rename it; it
    is refused at its line, after the faults of the trees before it."""
    path = tmp_path / "p.conllu"
    path.write_text("# sent_id = x\n1\ta\t_\t_\t_\t_\t0\n# sent_id = y\n2\tb\t_\t_\t_\t_\t1\n")
    for load in (load_parses, reference_load_parses):
        assert outcome(load, path) == ("DataError",
                                       f"{path}:3: sent_id comment inside a sentence")
    path.write_text("# sent_id = w\n1\ta\t_\t_\t_\t_\t1\n\n" + path.read_text())
    for load in (load_parses, reference_load_parses):
        assert outcome(load, path) == ("DataError",
                                       f"{path}: sentence 'w': word 1: self-loop head")
    path.write_text("# sent_id = x\n# sent_id = y\n1\ta\t_\t_\t_\t_\t0\n")
    assert list(load_parses(path)) == list(reference_load_parses(path)) == ["y"]


def test_a_tree_fault_before_a_line_fault_is_raised_first(tmp_path):
    """Trees are validated after the lines are read, yet a cycle in the
    first sentence is still raised before a line fault in the second."""
    path = tmp_path / "p.conllu"
    path.write_text("# sent_id = x\n1\ta\t_\t_\t_\t_\t2\n2\tb\t_\t_\t_\t_\t1\n\n"
                    "# sent_id = y\n1\tb\t_\t_\t_\t0\n")
    with pytest.raises(DataError, match=r"p\.conllu: sentence 'x': cyclic heads involving word 1$"):
        load_parses(path)


# The line faults a sentence of ``conllu_texts`` may hold, besides those of
# its heads; an odd ID or HEAD cell that ``int`` reads as a number ("01",
# "+1", " 1") is refused unless it is ASCII digits
LINE_FAULTS = ("short_line", "odd_id", "odd_head", "id_out_of_order", "id_repeated")


@st.composite
def conllu_sentences(draw, k):
    """The lines of sentence ``k``: words with the heads of ``head_tuples``,
    each line with 7 or 10 columns and maybe surrounding whitespace;
    multiword-token and empty-node lines (a few of them short); a sent_id
    comment, first, after some words, twice, or missing, naming the
    sentence by ``k`` or by one of two names that others may take too;
    other comments; and maybe one of ``LINE_FAULTS``.  A sent_id comment
    after a word is refused.  One sentence in three has the heads of any
    ``head_tuples``, the rest a tree's, so that a fault is often preceded
    by sound sentences."""
    heads = draw(head_tuples(faulty=draw(st.integers(0, 2)) == 0))
    pad = st.sampled_from(["", "", " ", "\t", "  "])
    cols = st.sampled_from(["", "\t_\t_\t_"])
    lines = [f"{draw(pad)}{i}\tw{i}\t_\t_\t_\t_\t{h}{draw(cols)}{draw(pad)}"
             for i, h in enumerate(heads, 1)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(0, len(lines)))
        extra = draw(st.sampled_from([f"{at + 1}-{at + 2}", f"{at}.1"]))
        tail = draw(st.sampled_from(["\t_" * 6] * 5 + ["\t_" * 9] * 5 + ["\t_"]))
        lines.insert(at, f"{extra}\tmw{tail}")
    fault = draw(st.sampled_from((None,) * 30 + LINE_FAULTS))
    if fault is not None:
        at = draw(st.sampled_from([i for i, line in enumerate(lines) if "mw" not in line]))
        cells = lines[at].strip().split("\t")
        if fault == "short_line":
            cells = cells[:draw(st.integers(1, 6))]
        elif fault == "odd_id":
            cells[0] = draw(st.sampled_from(["x", "1x", "", "0" + cells[0], cells[0] + " "]))
        elif fault == "odd_head":
            cells[6] = draw(st.sampled_from(["_", "h", "1.5", "-1", "+1", " 1"]))
        elif fault == "id_out_of_order":
            cells[0] = str(draw(st.integers(0, len(heads) + 2)))
        else:
            lines.insert(at, lines[at])
        lines[at] = "\t".join(cells)
    sent_id = st.builds(str.format, st.sampled_from(["# sent_id = {}", "#sent_id={}",
                                                     "  # sent_id =  {} "]),
                        st.sampled_from([f"s{k}"] * 3 + ["a", "b"]))
    place = draw(st.sampled_from(["first"] * 12 + ["after_words", "twice", "missing"]))
    if place in ("first", "twice"):
        lines.insert(0, draw(sent_id))
    if place in ("after_words", "twice"):
        lines.insert(draw(st.integers(0, len(lines))), draw(sent_id))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(
            ["# text = w1 w2", "# sent_idx = q", "#", "# newdoc"])))
    return lines


@st.composite
def conllu_texts(draw):
    """A CoNLL-U text of 1 to 6 sentences of ``conllu_sentences``, parted by
    runs of 0 to 3 blank or blank-looking lines (with none between them,
    two sentences run together), maybe with a leading run, with or
    without a final newline."""
    blank = st.sampled_from(["", "", " ", "\t "])
    parts = []
    for k in range(draw(st.integers(1, 6))):
        run = draw(st.sampled_from([1] * 14 + [0, 2, 3] if parts else [0, 0, 1]))
        parts += [draw(blank) for _ in range(run)] + draw(conllu_sentences(k))
    return "\n".join(parts) + draw(st.sampled_from(["", "\n", "\n\n"]))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=conllu_texts())
def test_load_parses_matches_the_reference(text, tmp_path):
    """The same trees in the same order, or the same error, as the loader
    that validated each tree with ``reference_validate`` as its sentence
    ended: faults in several sentences are raised in file order."""
    path = tmp_path / "p.conllu"
    path.write_text(text, encoding="utf-8")
    got, want = outcome(load_parses, path), outcome(reference_load_parses, path)
    if got[0] == want[0] == "ok":
        assert list(got[1].items()) == list(want[1].items())
    else:
        assert got == want


@pytest.mark.parametrize("fault", [None, "head_out_of_range", "cycle"])
def test_a_sentence_of_1500_words_loads_as_the_reference_loads(fault, tmp_path):
    """IDs and heads past 1023, read by ``int`` and not looked up."""
    heads = [0] + list(range(1, 1500))  # a chain under word 1
    if fault == "head_out_of_range":
        heads[1400] = 1501
    elif fault == "cycle":
        heads[1100] = 1300
    path = tmp_path / "p.conllu"
    path.write_text("# sent_id = long\n" + "".join(
        f"{i}\tw{i}\t_\t_\t_\t_\t{h}\t_\t_\t_\n" for i, h in enumerate(heads, 1)))
    got, want = outcome(load_parses, path), outcome(reference_load_parses, path)
    assert got == want
    assert (got[0] == "ok") == (fault is None)


def test_load_parses_rejects_non_utf8(tmp_path):
    path = tmp_path / "p.conllu"
    path.write_bytes(b"# sent_id = x\n1\tcaf\xe9\t_\t_\t_\t_\t0\n")
    with pytest.raises(DataError, match=r"p\.conllu: not UTF-8 text"):
        load_parses(path)
