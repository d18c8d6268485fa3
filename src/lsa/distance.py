"""Token-aspect distances: positional (mean absolute offset) and
dependency-tree shortest path, plus CoNLL-U ingestion and token/word
alignment.  All functions are pure; parsing itself is out of scope.

Both distances take one token position or an array of them, so that a
whole sentence's distances to an aspect come from one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .corpus import DataError

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
        n = self.word_count
        if n == 0:
            raise DataError("empty dependency tree")
        if len(self.forms) != n:
            raise DataError("tree forms/heads length mismatch")
        for i, h in enumerate(self.heads):
            if not (0 <= h <= n):
                raise DataError(f"word {i + 1}: head {h} out of range")
            if h == i + 1:
                raise DataError(f"word {i + 1}: self-loop head")
        for start in range(n):
            seen = set()
            node = start
            while self.heads[node] != ROOT:
                if node in seen:
                    raise DataError(f"cyclic heads involving word {start + 1}")
                seen.add(node)
                node = self.heads[node] - 1
        roots = [i for i, h in enumerate(self.heads) if h == ROOT]
        if len(roots) != 1:
            raise DataError(f"expected exactly one root, found {len(roots)}")

    def _ancestors(self, word: int) -> list[int]:
        chain = [word]
        while self.heads[chain[-1]] != ROOT:
            chain.append(self.heads[chain[-1]] - 1)
        return chain

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


def tree_shortest_distance(tree: DependencyTree, word_i: int, word_j: int) -> int:
    """Edges on the unique tree path between two words (0-based indices)."""
    n = tree.word_count
    if not (0 <= word_i < n and 0 <= word_j < n):
        raise IndexError(f"word index out of range for {n}-word tree")
    if word_i == word_j:
        return 0
    chain_i = tree._ancestors(word_i)
    depth_j = {w: d for d, w in enumerate(tree._ancestors(word_j))}
    for depth_i, w in enumerate(chain_i):
        if w in depth_j:
            return depth_i + depth_j[w]
    raise DataError("disconnected tree")  # unreachable on a validated tree


def relative_token_distance(token_pos, aspect_positions):
    """Mean absolute offset between a token position (or each of an array
    of them) and the aspect's token positions."""
    positions = np.asarray(list(aspect_positions), dtype=np.int64)
    if not positions.size:
        raise ValueError("aspect has no positions")
    offsets = np.subtract.outer(np.asarray(token_pos, dtype=np.int64), positions)
    return np.abs(offsets).sum(axis=-1) / positions.size


@dataclass(frozen=True)
class TokenAlignment:
    """Model-token index -> source-word index; monotone non-decreasing."""

    token_to_word: tuple[int, ...]

    def word_of(self, token_index):
        """The word of a token, or of each of an array of tokens."""
        index = np.asarray(token_index, dtype=np.int64)
        uncovered = (index < 0) | (index >= len(self.token_to_word))
        if uncovered.any():
            raise DataError(
                f"token {index[uncovered].flat[0]} is not covered by the alignment "
                f"({len(self.token_to_word)} tokens mapped)"
            )
        return np.asarray(self.token_to_word, dtype=np.int64)[index]


def align_tokens_to_words(tokens, words) -> TokenAlignment:
    """Greedy monotone alignment: each word is covered by the run of tokens
    whose concatenated text equals it (subword tokens inherit the word)."""
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
    return TokenAlignment(tuple(mapping))


def syntactic_distance(
    tree: DependencyTree,
    alignment: TokenAlignment,
    token_i,
    aspect_tokens,
):
    """Mean tree distance between a token's word (or that of each of an
    array of tokens) and each aspect token's word."""
    aspect_tokens = list(aspect_tokens)
    if not aspect_tokens:
        raise ValueError("aspect has no tokens")
    words = alignment.word_of(token_i)
    aspect_words = alignment.word_of(aspect_tokens)
    return tree.distances[words[..., None], aspect_words].sum(axis=-1) / len(aspect_tokens)


def load_parses(path) -> dict[str, DependencyTree]:
    """Read a CoNLL-U subset: ID/FORM/HEAD columns, '# sent_id =' comments."""
    path = Path(path)
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
        trees[sent_id] = tree
        sent_id, forms, heads = None, [], []

    lineno = 0
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
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
