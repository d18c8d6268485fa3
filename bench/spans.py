"""Spans around the public functions of each ``lsa`` layer, installed from
outside the package.

A wrapper is installed on the name its caller resolves.  ``window.py``
imports ``encode``, ``self_attention_block``, ``syntactic_distance`` and
``align_tokens_to_words`` by name, so ``lsa.window.self_attention_block``
is the shared ``head.sa`` block while ``lsa.encoder.self_attention_block``
(resolved inside ``encode``) is the encoder stack.  Methods are wrapped on
their class.

A span's self time is its duration minus the durations of the spans it
directly contains.  Its tape-node count is the growth of the active tape
while it ran; the tape is captured by wrapping ``Tape.__enter__``.  The
freeing of one training step's tape happens between two calls, and is
booked as the pseudo-span ``autodiff.tape_release``.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import lsa.autodiff
import lsa.checkpoint
import lsa.corpus
import lsa.distance
import lsa.encoder
import lsa.optim
import lsa.training
import lsa.window

# (owner, attribute, span name).  Several owners may share one span name
# when the same function is reached through different imports.
SPAN_SITES = (
    (lsa.training, "train", "training.train"),
    (lsa.training, "evaluate", "training.evaluate"),
    (lsa.training, "total_loss", "training.total_loss"),
    (lsa.training, "load_dataset", "corpus.load_dataset"),
    (lsa.corpus, "load_dataset", "corpus.load_dataset"),
    (lsa.training, "load_parses", "distance.load_parses"),
    (lsa.distance, "load_parses", "distance.load_parses"),
    (lsa.checkpoint, "load_checkpoint", "checkpoint.load_checkpoint"),
    (lsa.autodiff.Tape, "backward", "autodiff.backward"),
    (lsa.optim.AdamW, "step", "optim.step"),
    (lsa.optim.AdamW, "zero_grad", "optim.zero_grad"),
    (lsa.window.Model, "forward_example", "window.forward_example"),
    (lsa.window.Model, "global_context", "window.global_context"),
    (lsa.window, "aspect_feature_local", "window.aspect_feature_local"),
    (lsa.window, "self_attention_block", "window.head_sa"),
    (lsa.window, "build_window", "window.build_window"),
    (lsa.window, "apply_dwa", "window.apply_dwa"),
    (lsa.window, "project_window", "window.project_window"),
    (lsa.window, "classify", "window.classify"),
    (lsa.window, "encode", "encoder.encode"),
    (lsa.encoder, "self_attention_block", "encoder.self_attention_block"),
    (lsa.window, "syntactic_distance", "distance.syntactic_distance"),
    (lsa.window, "align_tokens_to_words", "distance.align_tokens_to_words"),
)


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    tape_nodes: int = 0


@dataclass
class Root:
    """A span entered with no span open: one call from the benchmark."""

    name: str
    wall_s: float
    self_s: float  # the part of the call that no layer span covers


@dataclass
class Tracer:
    stats: dict[str, SpanStats] = field(default_factory=dict)
    roots: list[Root] = field(default_factory=list)
    pairs_forwarded: int = 0
    tape_nodes: int = 0
    _tape: lsa.autodiff.Tape | None = None
    _created: tuple[int, float] | None = None  # id and creation time of the newest tape
    # The summed durations of the finished children of each open span.
    _open: list[list[float]] = field(default_factory=list)

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, SpanStats())
        open_spans = self._open

        @functools.wraps(fn)
        def span(*args, **kwargs):
            tape = self._tape
            nodes = len(tape) if tape is not None else 0
            children = [0.0]
            open_spans.append(children)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = perf_counter() - start
                open_spans.pop()
                if tape is not None and tape is self._tape:
                    stats.tape_nodes += len(tape) - nodes
                self._close(name, stats, wall, children[0])

        return span

    def _close(self, name, stats, wall, children):
        """Book a finished span on its own statistics and on its parent."""
        stats.calls += 1
        stats.self_s += wall - children
        if self._open:
            self._open[-1][0] += wall
        else:
            self.roots.append(Root(name, wall, wall - children))

    def _wrap_forward(self, fn):
        @functools.wraps(fn)
        def forward_example(model, example, *args, **kwargs):
            self.pairs_forwarded += len(example.aspects)
            return fn(model, example, *args, **kwargs)

        return forward_example

    def _wrap_init(self, fn):
        @functools.wraps(fn)
        def init(tape, *args, **kwargs):
            fn(tape, *args, **kwargs)
            self._created = (id(tape), perf_counter())

        return init

    def _wrap_enter(self, fn):
        """Besides capturing the tape, book the time between its creation
        and its entry as ``autodiff.tape_release``: in ``tape = Tape()``
        followed by ``with tape:``, that is the freeing of the previous
        step's tape, its nodes and their arrays."""
        stats = self.stats.setdefault("autodiff.tape_release", SpanStats())

        @functools.wraps(fn)
        def enter(tape):
            created, self._created = self._created, None
            if created is not None and created[0] == id(tape):
                self._close("autodiff.tape_release", stats, perf_counter() - created[1], 0.0)
            out = fn(tape)
            self._tape = tape
            return out

        return enter

    def _wrap_exit(self, fn):
        @functools.wraps(fn)
        def exit_(tape, *exc):
            self.tape_nodes += len(tape)
            self._tape = None
            return fn(tape, *exc)

        return exit_

    @contextmanager
    def installed(self):
        """Wrap every span site for the duration of the block."""
        saved = []

        def patch(owner, attr, wrapper):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapper(original))

        try:
            for owner, attr, name in SPAN_SITES:
                patch(owner, attr, functools.partial(self.wrap, name))
            patch(lsa.window.Model, "forward_example", self._wrap_forward)
            patch(lsa.autodiff.Tape, "__init__", self._wrap_init)
            patch(lsa.autodiff.Tape, "__enter__", self._wrap_enter)
            patch(lsa.autodiff.Tape, "__exit__", self._wrap_exit)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
