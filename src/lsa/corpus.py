"""ABSA data model, dataset ingestion, cluster statistics, synthetic corpora.

The canonical on-disk form is "absa-json": one UTF-8 JSON file per split,
``{"version": 1, "examples": [...]}``.  A SemEval-style XML adapter converts
to the same in-memory form; aspects with the 4th "conflict" label are
dropped at load (the classifier is strictly 3-class).
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from enum import Enum
from itertools import groupby
from pathlib import Path

import numpy as np

from .encoder import tokenize, tokenize_with_offsets

CLUSTER_BUCKETS = (1, 2, 3, 4, 5)  # 5 == "5 or more"


class DataError(Exception):
    """Schema violations, span mismatches, malformed inputs."""


class Polarity(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    NEUTRAL = "neutral"

    @property
    def index(self) -> int:
        return _POLARITY_ORDER.index(self)

    @classmethod
    def from_index(cls, i: int) -> "Polarity":
        return _POLARITY_ORDER[i]

    @classmethod
    def parse(cls, s: str, where: str = "") -> "Polarity":
        try:
            return cls(s)
        except ValueError:
            raise DataError(f"unknown polarity {s!r}{' at ' + where if where else ''}")


_POLARITY_ORDER = (Polarity.POSITIVE, Polarity.NEGATIVE, Polarity.NEUTRAL)
NUM_CLASSES = 3


@dataclass(frozen=True)
class AspectAnnotation:
    start: int  # token span [start, end)
    end: int
    term: tuple[str, ...]
    polarity: Polarity
    implicit: bool = False

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise DataError(f"bad aspect span [{self.start}, {self.end})")
        if len(self.term) != self.end - self.start:
            raise DataError(
                f"aspect term length {len(self.term)} does not match span "
                f"[{self.start}, {self.end})"
            )


@dataclass
class Example:
    text: str
    tokens: list[str]
    aspects: list[AspectAnnotation]
    parse_ref: str | None = None

    def __post_init__(self):
        if len(self.tokens) < 1:
            raise DataError("example has no tokens")
        self.aspects = sorted(self.aspects, key=lambda a: (a.start, a.end))
        prev_end = 0
        for a in self.aspects:
            if a.end > len(self.tokens):
                raise DataError(
                    f"aspect span [{a.start}, {a.end}) out of bounds for "
                    f"{len(self.tokens)} tokens in {self.text[:40]!r}"
                )
            if a.start < prev_end:
                raise DataError(
                    f"nested/overlapping aspect spans at token {a.start} "
                    f"in {self.text[:40]!r}"
                )
            prev_end = a.end
            if tuple(self.tokens[a.start : a.end]) != a.term:
                raise DataError(
                    f"aspect term {list(a.term)} does not match tokens at "
                    f"[{a.start}, {a.end}) in {self.text[:40]!r}"
                )


@dataclass
class Dataset:
    examples: list[Example]

    def aspect_count(self) -> int:
        return sum(len(ex.aspects) for ex in self.examples)


@dataclass
class ClusterHistogram:
    counts: dict[int, int] = field(
        default_factory=lambda: {b: 0 for b in CLUSTER_BUCKETS}
    )

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def labelled(self) -> list[tuple[str, int]]:
        """(size label, aspect count) per bucket; the last label is "5+"."""
        return [("5+" if b == 5 else str(b), self.counts[b]) for b in CLUSTER_BUCKETS]

    def as_csv(self) -> str:
        return "size,count\n" + "".join(f"{label},{n}\n" for label, n in self.labelled())


# ---------------------------------------------------------------------------
# Loading and saving


def _require(cond: bool, msg: str):
    if not cond:
        raise DataError(msg)


def _example_from_json(obj, where: str) -> Example:
    _require(isinstance(obj, dict), f"{where}: example must be an object")
    for key in ("text", "tokens", "aspects"):
        _require(key in obj, f"{where}: missing field {key!r}")
    _require(isinstance(obj["text"], str), f"{where}.text: must be a string")
    _require(
        isinstance(obj["tokens"], list)
        and all(isinstance(t, str) for t in obj["tokens"]),
        f"{where}.tokens: must be a list of strings",
    )
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
            and all(isinstance(x, int) for x in span),
            f"{aw}.span: must be [start, end]",
        )
        _require(
            isinstance(a["term"], list) and all(isinstance(t, str) for t in a["term"]),
            f"{aw}.term: must be a list of strings",
        )
        aspects.append(
            AspectAnnotation(
                start=span[0],
                end=span[1],
                term=tuple(a["term"]),
                polarity=Polarity.parse(a["polarity"], aw),
                implicit=bool(a.get("implicit", False)),
            )
        )
    return Example(
        text=obj["text"],
        tokens=list(obj["tokens"]),
        aspects=aspects,
        parse_ref=obj.get("parse_ref"),
    )


def load_absa_json(path) -> Dataset:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}")
    _require(isinstance(data, dict), f"{path}: top level must be an object")
    _require(data.get("version") == 1, f"{path}: unsupported or missing version")
    _require(isinstance(data.get("examples"), list), f"{path}: missing examples list")
    examples = []
    for i, obj in enumerate(data["examples"]):
        try:
            examples.append(_example_from_json(obj, f"examples[{i}]"))
        except DataError as e:
            raise DataError(f"{path}: {e}")
    return Dataset(examples)


def _char_span_to_token_span(offsets, start: int, end: int):
    """Token range covering character range [start, end), or None."""
    first = last = None
    for i, (s, e) in enumerate(offsets):
        if e > start and s < end:
            if first is None:
                first = i
            last = i
    if first is None:
        return None
    return first, last + 1


def load_semeval_xml(path) -> Dataset:
    """SemEval-2014-style <sentences><sentence><aspectTerms> files."""
    path = Path(path)
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as e:
        raise DataError(f"{path}: invalid XML: {e}")
    examples = []
    for sent in root.iter("sentence"):
        sid = sent.get("id", "?")
        text_el = sent.find("text")
        _require(text_el is not None and text_el.text, f"{path}: sentence {sid} has no text")
        text = text_el.text
        tokens, offsets = tokenize_with_offsets(text)
        if not tokens:
            continue
        aspects = []
        terms_el = sent.find("aspectTerms")
        if terms_el is not None:
            for term_el in terms_el.iter("aspectTerm"):
                pol = term_el.get("polarity")
                if pol == "conflict":
                    continue
                term = term_el.get("term", "")
                try:
                    start = int(term_el.get("from"))
                    end = int(term_el.get("to"))
                except (TypeError, ValueError):
                    raise DataError(f"{path}: sentence {sid}: bad from/to offsets")
                span = _char_span_to_token_span(offsets, start, end)
                if span is None:
                    raise DataError(
                        f"{path}: sentence {sid}: aspect {term!r} span matches no tokens"
                    )
                s, e = span
                if tokens[s:e] != tokenize(term):
                    raise DataError(
                        f"{path}: sentence {sid}: aspect {term!r} does not match "
                        f"tokens {tokens[s:e]}"
                    )
                aspects.append(
                    AspectAnnotation(
                        start=s,
                        end=e,
                        term=tuple(tokens[s:e]),
                        polarity=Polarity.parse(pol, f"sentence {sid}"),
                    )
                )
        try:
            examples.append(
                Example(text=text, tokens=tokens, aspects=aspects, parse_ref=sid)
            )
        except DataError as e:
            raise DataError(f"{path}: sentence {sid}: {e}")
    return Dataset(examples)


def load_dataset(path, format: str | None = None) -> Dataset:
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    if format is None:
        format = "semeval-xml" if path.suffix.lower() == ".xml" else "absa-json"
    if format == "absa-json":
        return load_absa_json(path)
    if format == "semeval-xml":
        return load_semeval_xml(path)
    raise DataError(f"unknown dataset format {format!r}")


def dataset_to_json(dataset: Dataset) -> str:
    """Canonical serialization; loading then re-serializing is a fixed point."""
    out = {"version": 1, "examples": []}
    for ex in dataset.examples:
        obj = {
            "text": ex.text,
            "tokens": ex.tokens,
            "aspects": [
                {
                    "span": [a.start, a.end],
                    "term": list(a.term),
                    "polarity": a.polarity.value,
                    "implicit": a.implicit,
                }
                for a in ex.aspects
            ],
        }
        if ex.parse_ref is not None:
            obj["parse_ref"] = ex.parse_ref
        out["examples"].append(obj)
    return json.dumps(out, ensure_ascii=False, separators=(",", ":")) + "\n"


def save_dataset(dataset: Dataset, path) -> None:
    Path(path).write_text(dataset_to_json(dataset), encoding="utf-8")


def read_key_values(path, error: type[Exception]) -> dict[str, str]:
    """The ``key=value`` lines of a spec or config file.  Blank lines and
    ``#`` comments are skipped; a line without ``=`` raises ``error``."""
    pairs = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise error(f"{path}:{lineno}: expected key=value")
        key, value = (s.strip() for s in line.split("=", 1))
        pairs[key] = value
    return pairs


# ---------------------------------------------------------------------------
# Clusters


def cluster_sizes(example: Example) -> list[int]:
    """For each aspect, in order, the size of the maximal same-polarity run
    of adjacent aspects it belongs to."""
    sizes: list[int] = []
    for _, run in groupby(example.aspects, key=lambda a: a.polarity):
        n = len(list(run))
        sizes.extend([n] * n)
    return sizes


def cluster_histogram(dataset: Dataset) -> ClusterHistogram:
    """Bucket every aspect by the size of its maximal same-polarity run."""
    hist = ClusterHistogram()
    for ex in dataset.examples:
        for size in cluster_sizes(ex):
            hist.counts[min(size, 5)] += 1
    return hist


# ---------------------------------------------------------------------------
# Synthetic corpus generation
#
# Every explicit aspect carries a direct sentiment cue immediately before
# its noun.  What keeps the labels of implicit aspects (no cue of their
# own) out of reach of a whole-context reader is counterfeit structure:
# each implicit aspect is flanked, at the same distance as its real
# neighbor's cue, by counterfeit cue/noun pairs asserting the other two
# classes.  Nothing in the token stream marks which noun is the annotated
# neighbor, so only a reader centered on the aspect span (the aggregation
# window) can resolve the tie.  Implicit aspects are therefore confined to
# two-aspect examples, which also keeps per-example cue counts balanced.

NOUNS = ("screen", "battery", "speaker", "keyboard", "webcam", "charger")
CUES = (
    ("superb", "lovely"),  # positive
    ("awful", "nasty"),  # negative
    ("plain", "ordinary"),  # neutral
)
_MIN_GAP = 4  # filler run keeping anything informative out of a foreign window


@dataclass
class SynthSpec:
    vocab_size: int = 20  # filler vocabulary size
    splits: dict[str, int] = field(default_factory=lambda: {"train": 200, "test": 50})
    rho: float = 1.0  # probability an aspect copies its predecessor's polarity
    implicit_fraction: float = 0.0  # target fraction of cue-less aspects
    aspects_dist: dict[int, float] = field(default_factory=lambda: {2: 0.6, 3: 0.4})

    def validate(self) -> None:
        if self.vocab_size < 3:
            raise DataError("synth spec: vocab_size must be >= 3")
        if not self.splits or any(n <= 0 for n in self.splits.values()):
            raise DataError("synth spec: split sizes must be positive")
        if not (0.0 <= self.rho <= 1.0):
            raise DataError("synth spec: rho must be in [0, 1]")
        if not (0.0 <= self.implicit_fraction < 1.0):
            raise DataError("synth spec: implicit_fraction must be in [0, 1)")
        if self.implicit_fraction > 0.0 and self.rho == 0.0:
            raise DataError(
                "synth spec: implicit aspects with rho=0 would be unlearnable"
            )
        if not self.aspects_dist or any(
            c < 1 or w < 0 for c, w in self.aspects_dist.items()
        ):
            raise DataError("synth spec: bad aspects-per-example distribution")
        if sum(self.aspects_dist.values()) <= 0:
            raise DataError("synth spec: aspect distribution weights sum to zero")
        self._implicit_rate()

    def _implicit_rate(self) -> float:
        """Probability that a two-aspect example gets one implicit endpoint,
        chosen so the corpus realizes the requested implicit fraction."""
        if self.implicit_fraction <= 0:
            return 0.0
        total = sum(self.aspects_dist.values())
        w2 = self.aspects_dist.get(2, 0.0) / total
        mean_aspects = sum(c * w for c, w in self.aspects_dist.items()) / total
        if w2 <= 0:
            raise DataError(
                "synth spec: implicit aspects require two-aspect examples"
            )
        q = self.implicit_fraction * mean_aspects / w2
        if q > 1.0 + 1e-9:
            raise DataError(
                f"synth spec: implicit_fraction {self.implicit_fraction} "
                f"unreachable with this aspect distribution"
            )
        return min(q, 1.0)

    @classmethod
    def from_file(cls, path) -> "SynthSpec":
        spec = cls()
        splits = {}
        scalars = {"vocab_size": int, "rho": float, "implicit_fraction": float}
        for key, value in read_key_values(path, DataError).items():
            try:
                if key in scalars:
                    setattr(spec, key, scalars[key](value))
                elif key == "aspects":
                    pairs = (part.split(":") for part in value.split(","))
                    spec.aspects_dist = {int(c): float(w) for c, w in pairs}
                elif key in ("train", "test", "valid"):
                    splits[key] = int(value)
                else:
                    raise DataError(f"{path}: unknown synth spec key {key!r}")
            except ValueError as e:
                raise DataError(f"{path}: bad value for {key}: {e}")
        if splits:
            spec.splits = splits
        spec.validate()
        return spec


def _synth_example(
    rng: np.random.Generator, spec: SynthSpec, fillers, q_impl: float
) -> Example:
    counts = sorted(spec.aspects_dist)
    weights = np.array([spec.aspects_dist[c] for c in counts], dtype=float)
    n_aspects = int(rng.choice(counts, p=weights / weights.sum()))

    pol_idx = []
    for i in range(n_aspects):
        if i > 0 and rng.random() < spec.rho:
            pol_idx.append(pol_idx[-1])
        else:
            pol_idx.append(int(rng.integers(0, 3)))

    # Segment plan: (cue_class | None, aspect_ordinal | None); an aspect
    # segment with cue_class None is the implicit target.
    plan: list[tuple[int | None, int | None]]
    if n_aspects == 2 and rng.random() < q_impl:
        # Four-segment chain: the implicit target sits at an interior slot,
        # the real (annotated) neighbor occupies one of the other three
        # slots uniformly at random, and fake segments asserting the two
        # non-cluster classes fill the rest.  Nothing in the token stream
        # distinguishes the annotated pair, so the implicit label is
        # irreducibly ambiguous for any reader blind to the annotations.
        target_slot = int(rng.integers(1, 3))
        other_slots = [s for s in range(4) if s != target_slot]
        real_slot = other_slots[int(rng.integers(0, 3))]
        target_ord = 1 if real_slot < target_slot else 0
        real_ord = 1 - target_ord
        fake_classes = [c for c in range(3) if c != pol_idx[real_ord]]
        rng.shuffle(fake_classes)
        plan = []
        for s in range(4):
            if s == target_slot:
                plan.append((None, target_ord))
            elif s == real_slot:
                plan.append((pol_idx[real_ord], real_ord))
            else:
                plan.append((fake_classes.pop(), None))
    else:
        plan = [(pol_idx[i], i) for i in range(n_aspects)]
        for _ in range(int(rng.integers(0, 3))):
            slot = int(rng.integers(0, len(plan) + 1))
            plan.insert(slot, (int(rng.integers(0, 3)), None))

    def filler():
        return str(rng.choice(fillers))

    tokens: list[str] = [filler() for _ in range(int(rng.integers(0, 3)))]
    annotated: dict[int, AspectAnnotation] = {}
    for cue_class, ordinal in plan:
        tokens.extend(filler() for _ in range(int(rng.integers(_MIN_GAP, _MIN_GAP + 3)) - 1))
        is_target = ordinal is not None and cue_class is None
        if cue_class is None:
            tokens.append(filler())
        else:
            tokens.append(str(rng.choice(CUES[cue_class])))
        noun = str(rng.choice(NOUNS))
        start = len(tokens)
        tokens.append(noun)
        if ordinal is not None:
            annotated[ordinal] = AspectAnnotation(
                start=start,
                end=start + 1,
                term=(noun,),
                polarity=Polarity.from_index(pol_idx[ordinal]),
                implicit=is_target,
            )
    tokens.extend(filler() for _ in range(int(rng.integers(2, 5))))

    aspects = [annotated[i] for i in range(n_aspects)]
    return Example(text=" ".join(tokens), tokens=tokens, aspects=aspects)


def generate_synthetic_corpus(spec: SynthSpec, seed: int) -> dict[str, Dataset]:
    """Deterministic datasets keyed by split name; byte-identical per (spec, seed)."""
    spec.validate()
    q_impl = spec._implicit_rate()
    out = {}
    for offset, (split, count) in enumerate(sorted(spec.splits.items())):
        rng = np.random.Generator(np.random.PCG64(seed + offset))
        fillers = [f"w{i}" for i in range(spec.vocab_size)]
        out[split] = Dataset(
            [_synth_example(rng, spec, fillers, q_impl) for _ in range(count)]
        )
    return out
