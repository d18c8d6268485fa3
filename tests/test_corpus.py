"""Data model, loaders, the window over adjacent aspects, cluster statistics,
synthetic corpora."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsa.corpus import (
    AspectAnnotation,
    DataError,
    Dataset,
    Example,
    Polarity,
    SynthSpec,
    cluster_histogram,
    cluster_sizes,
    dataset_to_json,
    generate_synthetic_corpus,
    load_dataset,
)
from lsa.window import build_window

from util import FIXTURES


def make_example(polarities, tokens_per_aspect=2):
    tokens, aspects = [], []
    for i, pol in enumerate(polarities):
        tokens.append(f"w{i}")
        start = len(tokens)
        tokens.append(f"noun{i}")
        aspects.append(
            AspectAnnotation(start, start + 1, (f"noun{i}",), Polarity(pol))
        )
    tokens.append("end")
    return Example(" ".join(tokens), tokens, aspects)


# ---------------------------------------------------------------------------
# loading


def test_mini_fixture_loads_to_twenty_pairs():
    ds = load_dataset(FIXTURES / "mini.json")
    assert len(ds.examples) == 12
    assert ds.aspect_count() == 20


def test_aspects_are_sorted_on_load(tmp_path):
    obj = {
        "version": 1,
        "examples": [
            {
                "text": "a b c d",
                "tokens": ["a", "b", "c", "d"],
                "aspects": [
                    {"span": [2, 3], "term": ["c"], "polarity": "negative"},
                    {"span": [0, 1], "term": ["a"], "polarity": "positive"},
                ],
            }
        ],
    }
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(obj))
    ds = load_dataset(path)
    assert [a.start for a in ds.examples[0].aspects] == [0, 2]


def test_empty_aspect_list_is_accepted(tmp_path):
    obj = {
        "version": 1,
        "examples": [{"text": "a", "tokens": ["a"], "aspects": []}],
    }
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(obj))
    assert load_dataset(path).aspect_count() == 0


def test_schema_violation_reports_field(tmp_path):
    obj = {"version": 1, "examples": [{"text": "a", "aspects": []}]}
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(DataError, match=r"examples\[0\].*tokens"):
        load_dataset(path)


def test_span_mismatch_names_offending_aspect(tmp_path):
    obj = {
        "version": 1,
        "examples": [
            {
                "text": "a b",
                "tokens": ["a", "b"],
                "aspects": [{"span": [0, 1], "term": ["b"], "polarity": "neutral"}],
            }
        ],
    }
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(DataError, match="does not match"):
        load_dataset(path)


def test_overlapping_spans_rejected():
    with pytest.raises(DataError, match="overlap"):
        Example(
            "a b c",
            ["a", "b", "c"],
            [
                AspectAnnotation(0, 2, ("a", "b"), Polarity.POSITIVE),
                AspectAnnotation(1, 3, ("b", "c"), Polarity.NEGATIVE),
            ],
        )


def test_semeval_xml_adapter_drops_conflict_and_aligns_spans():
    ds = load_dataset(FIXTURES / "mini_semeval.xml", format="semeval-xml")
    assert len(ds.examples) == 3
    first = ds.examples[0]
    assert first.tokens == ["the", "screen", "is", "great", "."]
    assert first.aspects[0].term == ("screen",)
    assert first.aspects[0].start == 1
    # sentence 103 has one "conflict" aspect that must be dropped
    last = ds.examples[2]
    assert len(last.aspects) == 1
    assert last.aspects[0].polarity is Polarity.NEUTRAL
    two = ds.examples[1]
    assert [a.term for a in two.aspects] == [("battery",), ("price",)]


def test_canonical_serialization_is_fixed_point(tmp_path):
    ds = load_dataset(FIXTURES / "mini.json")
    text1 = dataset_to_json(ds)
    path = tmp_path / "round.json"
    path.write_text(text1)
    text2 = dataset_to_json(load_dataset(path))
    assert text1 == text2


# ---------------------------------------------------------------------------
# adjacency


def aspect_window(ex, target, k=1):
    """The aggregation window of aspect ``target``, over features that
    record each aspect's start token."""
    feats = np.array([float(a.start) for a in ex.aspects])
    window = feats[build_window([0], [len(ex.aspects)], k)[target]].tolist()
    return window[:k], window[k], window[k + 1:]


def test_adjacent_aspects_middle_target():
    ex = make_example(["positive", "negative", "neutral"])
    left, target, right = aspect_window(ex, 1)
    assert left == [ex.aspects[0].start]
    assert target == ex.aspects[1].start
    assert right == [ex.aspects[2].start]


def test_adjacent_aspects_single_aspect():
    ex = make_example(["positive"])
    # a missing neighbour is padded with the target's own feature
    assert aspect_window(ex, 0) == ([1.0], 1.0, [1.0])


def test_adjacent_aspects_first_of_many():
    ex = make_example(["positive"] * 4)
    left, target, right = aspect_window(ex, 0, k=2)
    assert left == [target, target]
    assert right == [ex.aspects[1].start, ex.aspects[2].start]


def test_adjacent_aspects_respects_sort_order():
    ex = make_example(["positive", "negative", "neutral"])
    shuffled = Example(ex.text, ex.tokens, [ex.aspects[2], ex.aspects[0], ex.aspects[1]])
    left, target, right = aspect_window(shuffled, 1)
    assert left[0] < target < right[0]


def test_adjacent_aspects_invalid_index():
    ex = make_example(["positive"])
    with pytest.raises(IndexError):
        aspect_window(ex, 3)


# ---------------------------------------------------------------------------
# cluster histogram


def test_cluster_histogram_run_of_two():
    ds = Dataset([make_example(["positive", "positive", "negative"])])
    hist = cluster_histogram(ds)
    assert hist.counts == {1: 1, 2: 2, 3: 0, 4: 0, 5: 0}


def test_cluster_sizes_per_aspect():
    ex = make_example(["positive", "positive", "negative", "neutral", "neutral", "neutral"])
    assert cluster_sizes(ex) == [2, 2, 1, 3, 3, 3]
    assert cluster_sizes(make_example([])) == []


def test_cluster_histogram_alternating():
    ds = Dataset([make_example(["positive", "negative", "positive"])])
    assert cluster_histogram(ds).counts == {1: 3, 2: 0, 3: 0, 4: 0, 5: 0}


def oracle_histogram(ds):
    """Independent run-length scan."""
    counts = {1: 0, 2: 0, 3: 0, 4: 0, 5: 0}
    for ex in ds.examples:
        pols = [a.polarity for a in ex.aspects]
        runs, i = [], 0
        for j, p in enumerate(pols):
            if j > 0 and p != pols[j - 1]:
                runs.append(j - i)
                i = j
        if pols:
            runs.append(len(pols) - i)
        for r in runs:
            counts[min(r, 5)] += r
    return counts


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(["positive", "negative", "neutral"]), min_size=0, max_size=8),
        min_size=1,
        max_size=6,
    )
)
def test_cluster_histogram_matches_oracle(polarity_lists):
    ds = Dataset([make_example(pols) for pols in polarity_lists if True])
    hist = cluster_histogram(ds)
    assert hist.counts == oracle_histogram(ds)
    assert hist.total == ds.aspect_count()


# ---------------------------------------------------------------------------
# synthetic corpus


def test_synth_deterministic_bytes():
    spec = SynthSpec(splits={"train": 20}, rho=1.0, implicit_fraction=0.3,
                     aspects_dist={2: 0.9, 3: 0.1})
    a = dataset_to_json(generate_synthetic_corpus(spec, 9)["train"])
    b = dataset_to_json(generate_synthetic_corpus(spec, 9)["train"])
    assert a == b
    c = dataset_to_json(generate_synthetic_corpus(spec, 10)["train"])
    assert a != c


def test_synth_rho_one_forces_shared_polarity():
    spec = SynthSpec(splits={"train": 50}, rho=1.0, aspects_dist={2: 1.0})
    ds = generate_synthetic_corpus(spec, 3)["train"]
    for ex in ds.examples:
        assert len({a.polarity for a in ex.aspects}) == 1


def test_synth_rho_zero_agreement_near_chance():
    spec = SynthSpec(
        splits={"train": 5000}, rho=0.0, implicit_fraction=0.0, aspects_dist={3: 1.0}
    )
    ds = generate_synthetic_corpus(spec, 4)["train"]
    agree = total = 0
    for ex in ds.examples:
        for a, b in zip(ex.aspects, ex.aspects[1:]):
            agree += a.polarity == b.polarity
            total += 1
    assert total >= 10000
    assert abs(agree / total - 1 / 3) < 0.02


def test_synth_implicit_aspects_have_explicit_neighbor():
    spec = SynthSpec(
        splits={"train": 200}, rho=1.0, implicit_fraction=0.4,
        aspects_dist={2: 0.9, 3: 0.1},
    )
    ds = generate_synthetic_corpus(spec, 5)["train"]
    n_implicit = 0
    for ex in ds.examples:
        for j, a in enumerate(ex.aspects):
            if a.implicit:
                n_implicit += 1
                neighbors = [
                    ex.aspects[i] for i in (j - 1, j + 1) if 0 <= i < len(ex.aspects)
                ]
                assert any(not n.implicit for n in neighbors)
    frac = n_implicit / ds.aspect_count()
    assert 0.3 <= frac <= 0.5


def test_synth_rejects_implicit_with_rho_zero():
    spec = SynthSpec(rho=0.0, implicit_fraction=0.4)
    with pytest.raises(DataError, match="unlearnable"):
        spec.validate()


def test_synth_rejects_unreachable_implicit_fraction():
    spec = SynthSpec(rho=1.0, implicit_fraction=0.6, aspects_dist={2: 0.2, 3: 0.8})
    with pytest.raises(DataError, match="unreachable|two-aspect"):
        spec.validate()


def test_synth_spec_from_file(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text(
        "vocab_size=10\nrho=0.5\nimplicit_fraction=0.1\n"
        "aspects=2:0.7,3:0.3\ntrain=40\ntest=10\n"
    )
    spec = SynthSpec.from_file(path)
    assert spec.vocab_size == 10
    assert spec.rho == 0.5
    assert spec.splits == {"train": 40, "test": 10}
    assert spec.aspects_dist == {2: 0.7, 3: 0.3}


def test_synth_emits_loadable_schema(tmp_path):
    spec = SynthSpec(splits={"train": 15}, rho=1.0, implicit_fraction=0.3,
                     aspects_dist={2: 0.9, 3: 0.1})
    ds = generate_synthetic_corpus(spec, 1)["train"]
    path = tmp_path / "synth.json"
    path.write_text(dataset_to_json(ds))
    loaded = load_dataset(path)
    assert loaded.aspect_count() == ds.aspect_count()
    assert any(a.implicit for ex in loaded.examples for a in ex.aspects)
