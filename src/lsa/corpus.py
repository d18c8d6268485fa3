"""ABSA data model, dataset ingestion, the pair table, synthetic corpora.

The canonical on-disk form is "absa-json": one UTF-8 JSON file per split,
``{"version": 1, "examples": [...]}``.  A SemEval-style XML adapter converts
to the same in-memory form; aspects with the 4th "conflict" label are
dropped at load (the classifier is strictly 3-class).

``pair_table`` gives the (example, aspect) pairs of examples as numpy columns,
which training, evaluation, the slices and the cluster histogram read.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, fields
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .encoder import tokenize, tokenize_with_offsets

CLUSTER_LABELS = ("1", "2", "3", "4", "5+")  # the buckets of a cluster size


class DataError(Exception):
    """Schema violations, span mismatches, malformed inputs."""


class AspectFault(DataError):
    """A fault of one aspect, found by its ``Example``; ``aspect`` is that aspect."""

    def __init__(self, aspect: "AspectAnnotation", message: str):
        super().__init__(message)
        self.aspect = aspect


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
        """The member that ``s`` is or has as its value, as ``cls(s)`` finds
        it; anything else, an unhashable value too, is a DataError."""
        try:
            return _POLARITIES[s]
        except (KeyError, TypeError):  # TypeError: ``s`` is unhashable
            raise DataError(f"unknown polarity {s!r}{' at ' + where if where else ''}")


_POLARITY_ORDER = (Polarity.POSITIVE, Polarity.NEGATIVE, Polarity.NEUTRAL)
_POLARITIES = {**{p: p for p in Polarity}, **{p.value: p for p in Polarity}}
NUM_CLASSES = 3
_SPAN = attrgetter("start", "end")  # an aspect's sort key


@dataclass(slots=True)
class AspectAnnotation:
    """One annotated aspect of an ``Example``.  It is not frozen: a frozen
    dataclass's ``__init__`` sets each field through ``object.__setattr__``,
    three quarters of the cost of building one at load.  Nothing hashes an
    annotation or sets a field of one after it is built."""

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


@dataclass(slots=True)
class Example:
    text: str
    tokens: list[str]
    aspects: list[AspectAnnotation]
    parse_ref: str | None = None

    def __post_init__(self):
        if len(self.tokens) < 1:
            raise DataError("example has no tokens")
        self.aspects = sorted(self.aspects, key=_SPAN)
        prev_end = 0
        for a in self.aspects:
            if a.end > len(self.tokens):
                raise AspectFault(
                    a,
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
                raise AspectFault(
                    a,
                    f"aspect term {list(a.term)} does not match tokens at "
                    f"[{a.start}, {a.end}) in {self.text[:40]!r}"
                )


@dataclass
class Dataset:
    examples: list[Example]

    def aspect_count(self) -> int:
        return sum(len(ex.aspects) for ex in self.examples)


# ---------------------------------------------------------------------------
# Loading and saving


def _require(cond: bool, msg: str):
    if not cond:
        raise DataError(msg)


_is_str = str.__instancecheck__


def _example_from_json(obj, i: int) -> Example:
    """Example ``i`` of an absa-json file.  The checks are plain conditions
    on whole lists (``map`` over the tokens and terms) and on the two ints
    of a span: the location (``examples[i]``, ``.aspects[k]``) and the
    message are formatted only when one fails.  A fault that
    ``AspectAnnotation`` or ``Example`` finds gets the same location."""

    def error(field: str, msg: str, k: int | None = None) -> DataError:
        aspect = "" if k is None else f".aspects[{k}]"
        return DataError(f"examples[{i}]{aspect}{field}: {msg}")

    if not isinstance(obj, dict):
        raise error("", "example must be an object")
    for key in ("text", "tokens", "aspects"):
        if key not in obj:
            raise error("", f"missing field {key!r}")
    text, tokens, raw = obj["text"], obj["tokens"], obj["aspects"]
    if not isinstance(text, str):
        raise error(".text", "must be a string")
    if not (isinstance(tokens, list) and all(map(_is_str, tokens))):
        raise error(".tokens", "must be a list of strings")
    if not isinstance(raw, list):
        raise error(".aspects", "must be a list")
    aspects = []
    for k, a in enumerate(raw):
        if not isinstance(a, dict):
            raise error("", "must be an object", k)
        for key in ("span", "term", "polarity"):
            if key not in a:
                raise error("", f"missing field {key!r}", k)
        span, term, implicit = a["span"], a["term"], a.get("implicit", False)
        if not (isinstance(span, list) and len(span) == 2
                and type(span[0]) is int and type(span[1]) is int):
            raise error(".span", "must be [start, end]", k)
        if not (isinstance(term, list) and all(map(_is_str, term))):
            raise error(".term", "must be a list of strings", k)
        if not isinstance(implicit, bool):
            raise error(".implicit", "must be true or false", k)
        try:
            polarity = Polarity.parse(a["polarity"])
        except DataError as e:
            raise DataError(f"{e} at examples[{i}].aspects[{k}]")
        try:
            aspects.append(AspectAnnotation(span[0], span[1], tuple(term), polarity, implicit))
        except DataError as e:
            raise error("", str(e), k)
    if not isinstance(obj.get("parse_ref", ""), str):
        raise error(".parse_ref", "must be a string")
    try:
        return Example(text, tokens, aspects, obj.get("parse_ref"))
    except AspectFault as e:
        raise error("", str(e), next(k for k, a in enumerate(aspects) if a is e.aspect))
    except DataError as e:
        raise error("", str(e))


def load_absa_json(path) -> Dataset:
    path = Path(path)
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}")
    _require(isinstance(data, dict), f"{path}: top level must be an object")
    version = data.get("version")
    _require(type(version) is int and version == 1, f"{path}: unsupported or missing version")
    _require(isinstance(data.get("examples"), list), f"{path}: missing examples list")
    examples = []
    for i, obj in enumerate(data["examples"]):
        try:
            examples.append(_example_from_json(obj, i))
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
        root = ET.fromstring(read_existing(path))
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


def read_existing(path) -> bytes:
    """The bytes of the file at ``path``; DataError, naming the path, if
    it cannot be read (none there, a directory, no permission)."""
    try:
        return Path(path).read_bytes()
    except OSError as e:
        raise DataError(f"cannot read {path}: {e.strerror or e}")


def read_text(path) -> str:
    """The UTF-8 text of the file at ``path``; DataError if there is none
    or it is not UTF-8."""
    try:
        return read_existing(path).decode("utf-8")
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text (byte {e.start})")


def load_dataset(path, format: str | None = None) -> Dataset:
    path = Path(path)
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
    ``#`` comments are skipped; a line without ``=`` raises ``error``, and
    a missing file ``DataError``."""
    pairs = {}
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise error(f"{path}:{lineno}: expected key=value")
        key, value = (s.strip() for s in line.split("=", 1))
        pairs[key] = value
    return pairs


def _finite(raw) -> float:
    """``float(raw)``, or a ValueError if that is nan or infinite."""
    if not math.isfinite(value := float(raw)):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def field_value(kind: str, raw):
    """The value that ``raw``, from a flag, a ``key=value`` file or a JSON
    document, gives a config or spec field annotated ``kind``.

    A string is the field's text form, as ``int``, ``float`` or ``str``
    reads it: a bool is true/yes/1/false/no/0 in any case, a tuple is
    comma-separated floats, and "" is None for an optional field.  Any
    other value must have the field's JSON type: an int that is not a bool
    for ``int``, an int or a float for ``float`` (read as a float), a bool
    for ``bool``, a list (or, as ``asdict`` gives, a tuple) of numbers for
    a tuple (read as floats), and null for an optional field.  Anything
    else, nan and infinities included, is a ValueError.
    """
    base = kind.removesuffix(" | None")
    if base != kind and raw in ("", None):
        return None
    if isinstance(raw, str):
        if base.startswith("tuple"):
            return tuple(_finite(x) for x in raw.split(","))
        if base == "bool":
            if raw.lower() not in _BOOLS:
                raise ValueError(f"expected one of {'/'.join(_BOOLS)}, got {raw!r}")
            return _BOOLS[raw.lower()]
        return {"int": int, "float": _finite, "str": str}[base](raw)
    if (base == "int" and type(raw) is int) or (base == "bool" and type(raw) is bool):
        return raw
    if base == "float" and type(raw) in (int, float):
        return _finite(raw)
    if (base.startswith("tuple") and type(raw) in (list, tuple)
            and all(type(x) in (int, float) for x in raw)):
        return tuple(_finite(x) for x in raw)
    raise ValueError(f"expected {kind}, got {raw!r}")


# the domains of the numeric fields of the configs and the synth spec, by their text
DOMAINS = {
    "positive": lambda v: v > 0,
    "non-negative": lambda v: v >= 0,
    ">= 3": lambda v: v >= 3,
    "in (0, 1)": lambda v: 0 < v < 1,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "in [0, 1)": lambda v: 0 <= v < 1,
}


def in_domain(text: str, default):
    """A dataclass field with ``default`` whose values must be in ``DOMAINS[text]``."""
    return field(default=default, metadata={"domain": text})


def check_domains(obj, error: type[Exception], prefix: str = "") -> None:
    """Raise ``error`` naming the first field of ``obj`` outside its declared domain."""
    for f in fields(obj):
        text = f.metadata.get("domain")
        if text and not DOMAINS[text](getattr(obj, f.name)):
            raise error(f"{prefix}{f.name} must be {text}")


# ---------------------------------------------------------------------------
# The pair table


class Pairs(NamedTuple):
    """The (example, aspect) pairs of a list of examples, in dataset order,
    one numpy column per attribute."""
    gold: np.ndarray  # the class index
    implicit: np.ndarray  # bool
    aspects: np.ndarray  # the number of aspects in its example
    cluster: np.ndarray  # the index in ``CLUSTER_LABELS`` of its same-polarity run's size


def pair_table(examples) -> Pairs:
    """The ``Pairs`` of ``examples``.  A run of adjacent aspects of one
    polarity starts where the gold class changes or an example starts; an
    example without aspects has no pair and starts no run."""
    counts = np.array([len(ex.aspects) for ex in examples], dtype=np.intp)
    aspects = [a for ex in examples for a in ex.aspects]
    gold = np.array([a.polarity.index for a in aspects], dtype=np.intp)
    starts = np.ones(len(gold), dtype=bool)
    starts[1:] = gold[1:] != gold[:-1]
    starts[(np.cumsum(counts) - counts)[counts > 0]] = True
    runs = np.diff(np.append(np.flatnonzero(starts), len(gold)))
    cluster = np.minimum(np.repeat(runs, runs), len(CLUSTER_LABELS)) - 1
    return Pairs(gold, np.array([a.implicit for a in aspects], dtype=bool),
                 np.repeat(counts, counts), cluster)


def cluster_histogram(dataset: Dataset) -> dict[str, int]:
    """The number of aspects in each bucket of ``CLUSTER_LABELS``, by the
    size of the maximal same-polarity run each belongs to."""
    counts = np.bincount(pair_table(dataset.examples).cluster, minlength=len(CLUSTER_LABELS))
    return dict(zip(CLUSTER_LABELS, counts.tolist()))


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


@dataclass(frozen=True)
class SynthSpec:
    """A synthetic corpus's settings, checked when built: a value outside its
    field's domain, or a spec no corpus can realize, is a DataError."""

    vocab_size: int = in_domain(">= 3", 20)  # filler vocabulary size
    splits: dict[str, int] = field(default_factory=lambda: {"train": 200, "test": 50})
    rho: float = in_domain("in [0, 1]", 1.0)  # P(an aspect copies its predecessor's polarity)
    implicit_fraction: float = in_domain("in [0, 1)", 0.0)  # target fraction of cue-less aspects
    aspects_dist: dict[int, float] = field(default_factory=lambda: {2: 0.6, 3: 0.4})

    def __post_init__(self) -> None:
        check_domains(self, DataError, "synth spec: ")
        if not self.splits or any(n <= 0 for n in self.splits.values()):
            raise DataError("synth spec: split sizes must be positive")
        if self.implicit_fraction > 0.0 and self.rho == 0.0:
            raise DataError("synth spec: implicit aspects with rho=0 would be unlearnable")
        if not self.aspects_dist or any(c < 1 or w < 0 for c, w in self.aspects_dist.items()):
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
            raise DataError("synth spec: implicit aspects require two-aspect examples")
        q = self.implicit_fraction * mean_aspects / w2
        if q > 1.0 + 1e-9:
            raise DataError(
                f"synth spec: implicit_fraction {self.implicit_fraction} "
                f"unreachable with this aspect distribution"
            )
        return min(q, 1.0)

    @classmethod
    def from_file(cls, path) -> "SynthSpec":
        values, splits = {}, {}
        kinds = {f.name: f.type for f in fields(cls) if not f.type.startswith("dict")}
        for key, value in read_key_values(path, DataError).items():
            try:
                if key in kinds:
                    values[key] = field_value(kinds[key], value)
                elif key == "aspects":
                    pairs = (part.split(":") for part in value.split(","))
                    values["aspects_dist"] = {int(c): _finite(w) for c, w in pairs}
                elif key in ("train", "test", "valid"):
                    splits[key] = int(value)
                else:
                    raise DataError(f"{path}: unknown synth spec key {key!r}")
            except ValueError as e:
                raise DataError(f"{path}: bad value for {key}: {e}")
        if splits:
            values["splits"] = splits
        try:
            return cls(**values)
        except DataError as e:
            raise DataError(f"{path}: {str(e).removeprefix('synth spec: ')}")


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
    q_impl = spec._implicit_rate()
    out = {}
    for offset, (split, count) in enumerate(sorted(spec.splits.items())):
        rng = np.random.Generator(np.random.PCG64(seed + offset))
        fillers = [f"w{i}" for i in range(spec.vocab_size)]
        out[split] = Dataset(
            [_synth_example(rng, spec, fillers, q_impl) for _ in range(count)]
        )
    return out
