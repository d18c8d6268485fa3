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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import DataError, read_text

ROOT = 0  # head value marking the root word


@dataclass(frozen=True)
class DependencyTree:
    """Heads indexed by word (0-based); head value 0 means ROOT, else 1-based."""

    forms: tuple[str, ...]
    heads: tuple[int, ...]

    @property
    def word_count(self) -> int:
        return len(self.heads)

    def validate(self) -> None:
        """DataError unless the heads form one tree: each in range and not
        the word itself, no cycle, exactly one root.  Linear in words."""
        heads, n = self.heads, self.word_count
        if n == 0:
            raise DataError("empty dependency tree")
        if len(self.forms) != n:
            raise DataError("tree forms/heads length mismatch")
        for i, h in enumerate(heads):
            if not (0 <= h <= n):
                raise DataError(f"word {i + 1}: head {h} out of range")
            if h == i + 1:
                raise DataError(f"word {i + 1}: self-loop head")
        # Climb from each word to a word known to reach the root, marking
        # the walk; a word met again on one walk closes a cycle.  A marked
        # word is never climbed through again.
        unknown, on_walk, reaches_root = 0, 1, 2
        state = [reaches_root if h == ROOT else unknown for h in heads]
        for start in range(n):
            node = start
            while state[node] == unknown:
                state[node] = on_walk
                node = heads[node] - 1
            if state[node] == on_walk:
                raise DataError(f"cyclic heads involving word {start + 1}")
            node = start
            while state[node] == on_walk:
                state[node] = reaches_root
                node = heads[node] - 1
        roots = heads.count(ROOT)
        if roots != 1:
            raise DataError(f"expected exactly one root, found {roots}")


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
    """Read a CoNLL-U subset: ID/FORM/HEAD columns, '# sent_id =' comments.
    Each tree is validated in time linear in its words."""
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
            tree.validate()
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
                sent_id = line.split("=", 1)[1].strip()
            continue
        cols = line.split("\t")
        if len(cols) < 7:
            raise DataError(f"{path}:{lineno}: expected >= 7 tab-separated columns")
        word_id = cols[0]
        if "-" in word_id or "." in word_id:
            continue  # multiword-token ranges and empty nodes carry no head
        try:
            idx = int(word_id)
            head = int(cols[6])
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-integer ID or HEAD")
        if idx != len(forms) + 1:
            raise DataError(f"{path}:{lineno}: word IDs must be 1..n in order")
        forms.append(cols[1])
        heads.append(head)
    flush(lineno + 1)
    return trees
