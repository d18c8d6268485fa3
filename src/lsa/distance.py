"""Token-aspect distances, CoNLL-U ingestion and token/word alignment.
All functions are pure; parsing itself is out of scope.

An example's distances are one (n, n) integer table over its first n
tokens: token distance |i - j| (LCF), or the dependency-tree distance
between the tokens' words (LCFS-BERT).  ``aspect_distances`` turns the
table into one row per aspect, the mean over the aspect's tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def distances(self) -> np.ndarray:
        """(W, W) edges on the tree path between every two words, computed
        once per tree: depth(i) + depth(j) - 2 depth(lowest common ancestor)."""
        n = self.word_count
        parent = np.array(self.heads) - 1
        parent[parent < 0] = np.flatnonzero(parent < 0)  # the root is its own parent
        ancestors = np.eye(n)  # [i, j]: 1 where j is i or above i
        rows, node = np.arange(n), np.arange(n)
        while True:  # every word climbs one level per step
            above = parent[node]
            if np.array_equal(above, node):
                break
            ancestors[rows, above] = 1.0
            node = above
        depth = ancestors.sum(axis=1) - 1
        common_depth = ancestors @ ancestors.T - 1  # exact: small integers
        return (depth[:, None] + depth[None, :] - 2 * common_depth).astype(np.int64)


def relative_token_distance(n: int) -> np.ndarray:
    """(n, n) token distances |i - j| between the first n tokens."""
    positions = np.arange(n)
    return np.abs(positions[:, None] - positions)


def align_tokens_to_words(tokens, words) -> np.ndarray:
    """The word index of every token, int64: a greedy monotone alignment
    in which each word is covered by the run of tokens whose concatenated
    text equals it (subword tokens inherit the word)."""
    mapping = []
    ti = 0
    tokens = [t.lower() for t in tokens]
    for wi, word in enumerate(w.lower() for w in words):
        assembled = ""
        while assembled != word:
            if ti >= len(tokens) or len(assembled) > len(word):
                raise DataError(
                    f"cannot align token {ti} ({tokens[ti] if ti < len(tokens) else '<end>'!r}) "
                    f"to word {wi} ({word!r})"
                )
            assembled += tokens[ti]
            mapping.append(wi)
            ti += 1
    if ti != len(tokens):
        raise DataError(f"trailing tokens from index {ti} align to no word")
    return np.array(mapping, dtype=np.int64)


def syntactic_distance(tree: DependencyTree, words: np.ndarray, n: int) -> np.ndarray:
    """(n, n) tree distances between the words of the first n tokens, given
    ``words``, the word index of every token (n <= len(words))."""
    return tree.distances[words[:n, None], words[:n]]


def aspect_distances(table: np.ndarray, spans) -> np.ndarray:
    """(A, n): for each token span [start, end), the mean of the (n, n)
    integer ``table``'s rows over it, an exact integer sum divided once."""
    starts, ends = np.asarray(spans, dtype=np.int64).T
    prefix = np.zeros((len(table) + 1, table.shape[1]), dtype=np.int64)
    np.cumsum(table, axis=0, out=prefix[1:])
    return (prefix[ends] - prefix[starts]) / (ends - starts)[:, None]


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
