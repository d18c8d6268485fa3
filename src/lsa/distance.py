"""Tree distances, CoNLL-U ingestion and token/word alignment.
All functions are pure; parsing itself is out of scope.

LSA-S weights a token by the dependency-tree distance between its word and
the aspect's words (LCFS-BERT), where LSA-T takes the token distance
|i - j| (LCF).  ``syntactic_distance`` gives the tree distances of a whole
batch at once: it joins the batch's parses into one forest, climbs it once
for every word's ancestor path and depth, and reads each aspect token's
row of distances from the ancestor set of its word.  Only the rows of
aspect tokens are computed, as exact integers; ``window.position_weights``
averages them per aspect.

``load_parses`` validates every tree of a CoNLL-U file in one pass over
the forest, ``forest_fault``, once its lines are read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import DataError, read_text

ROOT = 0  # head value marking the root word
# the value of each ID or HEAD cell that is plain decimal digits below 1024,
# as int() reads it: a lookup costs a third of an int() call
_NUMBERS = {str(i): i for i in range(1024)}


@dataclass(frozen=True, slots=True)
class DependencyTree:
    """Heads indexed by word (0-based); head value 0 means ROOT, else 1-based."""

    forms: tuple[str, ...]
    heads: tuple[int, ...]

    @property
    def word_count(self) -> int:
        return len(self.heads)


def forest_fault(heads, sizes) -> tuple[int, str] | None:
    """The first tree, in order, whose heads do not form one tree, and why,
    or None.  ``heads`` holds the heads of the trees one after another,
    ``sizes`` the words of each, none 0.

    One pass over the whole forest: a head out of range or naming its own
    word is flagged, each tree's roots are counted, and a word that never
    reaches a root (it is on a cycle or climbs into one) is found by
    pointer doubling.  The reason is that of the tree's first fault: the
    first flagged head, else the lowest word that reaches no root, else
    the root count."""
    try:
        parent = np.fromiter(heads, np.int64, len(heads))
    except OverflowError:  # such a head is out of range; the message reads it from ``heads``
        parent = np.array([h if 0 <= h < 1 << 62 else -1 for h in heads], dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    total, starts = len(parent), np.cumsum(sizes) - sizes
    tree = np.repeat(np.arange(len(sizes)), sizes)  # the tree of each word
    first = starts[tree]  # the forest index of its tree's first word
    flagged = (parent < 0) | (parent > sizes[tree]) | (parent == np.arange(1, total + 1) - first)
    root = parent == ROOT
    # word ``total`` is a sentinel above every root; a flagged word points
    # there too, as its tree already has a fault
    parent = np.append(np.where(root | flagged, total, parent - 1 + first), total)
    for _ in range((int(sizes.max()) - 1).bit_length()):  # 2^k >= the most words
        parent = parent[parent]
    rootless = parent[:total] != total
    faulty = np.bincount(tree[root], minlength=len(sizes)) != 1
    faulty[tree[flagged | rootless]] = True
    if not faulty.any():
        return None
    k = int(faulty.argmax())
    words = slice(starts[k], starts[k] + sizes[k])
    if flagged[words].any():
        i = int(flagged[words].argmax())
        h = heads[starts[k] + i]
        if not 0 <= h <= sizes[k]:
            return k, f"word {i + 1}: head {h} out of range"
        return k, f"word {i + 1}: self-loop head"
    if rootless[words].any():
        return k, f"cyclic heads involving word {int(rootless[words].argmax()) + 1}"
    return k, f"expected exactly one root, found {int(root[words].sum())}"


def align_tokens_to_words(tokens, words) -> np.ndarray:
    """The word index of every token, int64: a greedy monotone alignment
    in which each word is covered by the run of tokens whose concatenated
    text equals it (subword tokens inherit the word).  Tokens that are the
    words, each non-empty, align one to one without the walk."""
    tokens = [t.lower() for t in tokens]
    words = [w.lower() for w in words]
    if tokens == words and all(tokens):
        return np.arange(len(tokens), dtype=np.int64)
    mapping = []
    ti = 0
    for wi, word in enumerate(words):
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


def syntactic_distance(trees, words, sentence, token) -> np.ndarray:
    """Tree distances from some tokens of parsed sentences to every token of
    their sentence, from one climb of the forest that joins the trees.

    ``words[k]`` holds the word index in ``trees[k]`` of each token of
    sentence k.  Row r of the result (T, width), width the most tokens of a
    sentence, holds the edges on the tree path between the word of token
    ``token[r]`` of sentence ``sentence[r]`` and the word of each token of
    that sentence, and 0 past them: depth(a) + depth(j) - 2 depth(lowest
    common ancestor), exact integers.
    """
    sizes = [tree.word_count for tree in trees]
    offsets = np.cumsum([0] + sizes)[:-1]
    total = sum(sizes)  # forest word ``total`` is a sentinel above every root
    heads = np.concatenate([tree.heads for tree in trees])
    parent = np.append(np.where(heads == ROOT, total, heads - 1 + np.repeat(offsets, sizes)), total)
    # path[i]: word i, its parent and so on to its root, then the sentinel
    levels = [np.arange(total + 1)]
    while levels[-1].min() < total:
        levels.append(parent[levels[-1]])
    path = np.stack(levels, axis=1)
    depth = (path < total).sum(axis=1) - 1
    lengths = np.array([len(w) for w in words])
    width = lengths.max()
    forest = np.full((len(words), width), total)  # the forest word of each token
    forest[np.arange(width) < lengths[:, None]] = np.concatenate(words) + np.repeat(offsets, lengths)
    rows = np.arange(len(sentence))[:, None]
    other, word = forest[sentence], forest[sentence, token]
    shared = np.zeros((len(word), total + 1), dtype=bool)  # the word and its ancestors
    shared[rows, path[word]] = True
    shared[:, total] = False
    common = shared[rows[:, :, None], path[other]].sum(axis=2)  # depth(lca) + 1
    return np.where(other < total, depth[word, None] + depth[other] - 2 * (common - 1), 0)


def load_parses(path) -> dict[str, DependencyTree]:
    """Read a CoNLL-U subset: ID/FORM/HEAD columns, '# sent_id =' comments,
    each before its sentence's first word; ID and HEAD are ASCII digits.
    The trees are validated in one ``forest_fault`` pass once every line
    is read.  A fault is raised in file order: before a line or a sentence
    is refused, the sentences completed before it are validated."""
    trees: dict[str, DependencyTree] = {}
    names: list[str] = []  # the sent_id of each completed sentence
    sizes: list[int] = []  # and its words
    heads: list[int] = []  # the heads of their words, in file order
    forms: list[str] = []  # the forms of the sentence being read
    words: list[int] = []  # and their heads
    sent_id = None

    def check():
        """Raise the first fault of the trees of the completed sentences."""
        fault = forest_fault(heads, sizes) if sizes else None
        if fault is not None:
            raise DataError(f"{path}: sentence {names[fault[0]]!r}: {fault[1]}")

    def refuse(message):
        check()
        raise DataError(message)

    def flush(lineno):
        nonlocal sent_id
        if not forms:
            sent_id = None
            return
        if sent_id is None:
            refuse(f"{path}:{lineno}: sentence without a sent_id comment")
        tree = DependencyTree(tuple(forms), tuple(words))
        names.append(sent_id)
        sizes.append(len(forms))
        heads.extend(tree.heads)
        if sent_id in trees:
            refuse(f"{path}:{lineno}: duplicate sent_id {sent_id!r}")
        trees[sent_id] = tree
        sent_id = None
        forms.clear()
        words.clear()

    add_form, add_head, number = forms.append, words.append, _NUMBERS.get
    lineno = 0
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        line = raw.strip()
        if not line:
            flush(lineno)
            continue
        if line[0] == "#":
            key, eq, value = line[1:].partition("=")
            if key.strip() == "sent_id":
                if not eq:
                    refuse(f"{path}:{lineno}: sent_id comment without '='")
                if forms:
                    refuse(f"{path}:{lineno}: sent_id comment inside a sentence")
                sent_id = value.strip()
            continue
        cols = line.split("\t", 7)  # ID, FORM and HEAD are cols[0], [1] and [6]
        if len(cols) < 7:
            refuse(f"{path}:{lineno}: expected >= 7 tab-separated columns")
        word_id = cols[0]
        idx, head = number(word_id), number(cols[6])
        if idx is None or head is None:
            if "-" in word_id or "." in word_id:
                continue  # multiword-token ranges and empty nodes carry no head
            if not all(cell.isascii() and cell.isdigit() for cell in (word_id, cols[6])):
                refuse(f"{path}:{lineno}: non-integer ID or HEAD")
            idx, head = int(word_id), int(cols[6])
        if idx != len(forms) + 1:
            refuse(f"{path}:{lineno}: word IDs must be 1..n in order")
        add_form(cols[1])
        add_head(head)
    flush(lineno + 1)
    check()
    return trees
