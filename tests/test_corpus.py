"""Data model, loaders, the window over adjacent aspects, the pair table and
cluster statistics, synthetic corpora."""

import copy
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsa.corpus import (
    CLUSTER_LABELS,
    AspectAnnotation,
    DataError,
    Dataset,
    Example,
    Polarity,
    SynthSpec,
    cluster_histogram,
    dataset_to_json,
    generate_synthetic_corpus,
    load_absa_json,
    load_dataset,
    pair_table,
)
from lsa.window import ModelConfig, build_window

from util import (FIXTURES, aspect_runs, cluster_sizes, make_example, outcome,
                  reference_example_from_json, reference_pairs)


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


@pytest.mark.parametrize("aspects", [5, None])
def test_aspects_not_a_list_is_data_error(aspects, tmp_path):
    obj = {"version": 1, "examples": [{"text": "a", "tokens": ["a"], "aspects": aspects}]}
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(DataError, match=r"ds\.json: examples\[0\]\.aspects: must be a list"):
        load_dataset(path)


@pytest.mark.parametrize("aspect, example, field", [
    ({"implicit": "false"}, {}, r"examples\[0\]\.aspects\[0\]\.implicit: must be true or false"),
    ({"implicit": 1}, {}, r"examples\[0\]\.aspects\[0\]\.implicit: must be true or false"),
    ({}, {"parse_ref": ["x"]}, r"examples\[0\]\.parse_ref: must be a string"),
    ({}, {"parse_ref": None}, r"examples\[0\]\.parse_ref: must be a string"),
    ({"span": [False, True]}, {}, r"examples\[0\]\.aspects\[0\]\.span: must be \[start, end\]"),
], ids=["implicit_string", "implicit_number", "parse_ref_list", "parse_ref_null", "span_bools"])
def test_field_of_the_wrong_type_is_data_error(aspect, example, field, tmp_path):
    """``implicit`` is a JSON boolean, not its text (``bool("false")`` is
    true); ``parse_ref`` is a string or absent; a span holds integers, and
    a JSON boolean is not one (``[false, true]`` once loaded as [0, 1))."""
    a = {"span": [0, 1], "term": ["a"], "polarity": "positive", **aspect}
    obj = {"version": 1, "examples": [{"text": "a", "tokens": ["a"], "aspects": [a], **example}]}
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(DataError, match=rf"ds\.json: {field}"):
        load_dataset(path)


@pytest.mark.parametrize("version", [True, 1.0, "1", None])
def test_version_must_be_the_integer_one(version, tmp_path):
    """JSON ``true`` and ``1.0`` compare equal to 1 in Python; neither is
    the version."""
    path = tmp_path / "ds.json"
    path.write_text(json.dumps({"version": version, "examples": []}))
    with pytest.raises(DataError, match=r"ds\.json: unsupported or missing version"):
        load_dataset(path)


@pytest.mark.parametrize("tokens, aspects, message", [
    (["a", "b"], [([0, 1], ["a"]), ([-1, 2], ["a", "b", "c"])],
     r"examples\[0\]\.aspects\[1\]: bad aspect span \[-1, 2\)"),
    (["a", "b"], [([0, 1], ["a"]), ([1, 1], [])],
     r"examples\[0\]\.aspects\[1\]: bad aspect span \[1, 1\)"),
    (["a", "b"], [([0, 2], ["a"])],
     r"examples\[0\]\.aspects\[0\]: aspect term length 1 does not match span \[0, 2\)"),
    (["a", "b"], [([1, 2], ["b"]), ([0, 3], ["a", "b", "c"])],
     r"examples\[0\]\.aspects\[1\]: aspect span \[0, 3\) out of bounds for 2 tokens in 'a b'"),
    (["a", "b"], [([1, 2], ["b"]), ([0, 2], ["a", "b"])],
     r"examples\[0\]: nested/overlapping aspect spans at token 1 in 'a b'"),
    (["a", "b"], [([0, 1], ["a"]), ([1, 2], ["c"])],
     r"examples\[0\]\.aspects\[1\]: aspect term \['c'\] does not match tokens at \[1, 2\) in 'a b'"),
    ([], [], r"examples\[0\]: example has no tokens"),
], ids=["bad_span", "empty_span", "term_length", "out_of_bounds", "overlap", "term_mismatch",
        "no_tokens"])
def test_aspect_and_example_faults_name_their_location(tokens, aspects, message, tmp_path):
    """A fault that ``AspectAnnotation`` or ``Example`` finds is located as
    the type checks' faults are: at the example, and at the aspect (its
    index in the file, also when the aspects are sorted) where one is at
    fault.  Each fault is loaded as the file's only example and as the
    second one, after a valid example."""
    good = {"text": "a", "tokens": ["a"], "aspects": []}
    bad = {"text": " ".join(tokens), "tokens": tokens, "aspects": [
        {"span": span, "term": term, "polarity": "positive"} for span, term in aspects]}
    for examples, index in (([bad], 0), ([good, bad], 1)):
        path = tmp_path / "ds.json"
        path.write_text(json.dumps({"version": 1, "examples": examples}))
        located = message.replace(r"examples\[0\]", rf"examples\[{index}\]")
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: {located}$"):
            load_dataset(path)


MINI_EXAMPLES = json.loads((FIXTURES / "mini.json").read_text())["examples"]
JSON_VALUES = (None, True, False, 0, 2, -1, 1.5, "", "a", "positive", [], [0, 1], ["a"], [True], {},
               {"a": 1})


def mutate(draw, examples) -> None:
    """Mutate one place of ``examples``: at an example or one of its
    aspects, a key dropped, a field or an item of a list field set to any
    JSON value, a span of length 1 or 3, a bool inside a span, the object
    itself replaced, or a null ``parse_ref``.  Nothing happens where an
    earlier mutation left no such place."""
    i = draw(st.integers(0, len(examples) - 1))
    if not isinstance(examples[i], dict):
        return
    holder, index = examples, i
    aspects = examples[i].get("aspects")
    if isinstance(aspects, list) and aspects and draw(st.booleans()):
        holder, index = aspects, draw(st.integers(0, len(aspects) - 1))
    target = holder[index]
    if not (isinstance(target, dict) and target):
        return
    key = draw(st.sampled_from(sorted(target)))
    value = copy.deepcopy(draw(st.sampled_from(JSON_VALUES)))  # a later mutation may edit it
    kind = draw(st.sampled_from(["drop", "value", "item", "span", "span_bool", "object", "parse_ref"]))
    span = target.get("span")
    whole_span = isinstance(span, list) and len(span) == 2
    if kind == "drop":
        del target[key]
    elif kind == "value":
        target[key] = value
    elif kind == "item" and isinstance(target[key], list) and target[key]:
        target[key][draw(st.integers(0, len(target[key]) - 1))] = value
    elif kind == "span" and whole_span:
        target["span"] = span[:1] if draw(st.booleans()) else [*span, 0]
    elif kind == "span_bool" and whole_span:
        span[draw(st.integers(0, 1))] = draw(st.booleans())
    elif kind == "object":
        holder[index] = value
    elif kind == "parse_ref":
        examples[i]["parse_ref"] = None


@st.composite
def mutated_examples(draw):
    """``mini.json``'s examples mutated in 1 to 3 places, in one example or
    in several."""
    examples = copy.deepcopy(MINI_EXAMPLES)
    for _ in range(draw(st.integers(1, 3))):
        mutate(draw, examples)
    return examples


def reference_dataset(examples) -> Dataset:
    return Dataset([reference_example_from_json(obj, f"examples[{i}]")
                    for i, obj in enumerate(examples)])


@settings(max_examples=400, deadline=None)
@given(examples=mutated_examples())
def test_load_absa_json_matches_the_reference(tmp_path_factory, examples):
    """The same dataset, or the same DataError text, as the checks that
    format every location and message up front.  With faults in several
    examples, the one reported is in the first example that fails alone."""
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps({"version": 1, "examples": examples}))

    def reference():
        try:
            return reference_dataset(examples)
        except DataError as e:
            raise DataError(f"{path}: {e}")

    loaded = outcome(load_absa_json, path)
    assert loaded == outcome(reference)
    failing = [i for i, obj in enumerate(examples) if outcome(reference_dataset, [obj])[0] != "ok"]
    if loaded[0] == "ok":
        assert failing == []
    else:
        assert re.search(r"examples\[(\d+)\]", loaded[1])[1] == str(failing[0])


@pytest.mark.parametrize("value", [*Polarity, *(p.value for p in Polarity), "Positive", "POSITIVE",
                                   None, 1, ["positive"], {"positive": 1}])
def test_polarity_parse_is_the_enum_call(value):
    """The member ``Polarity(value)`` gives, or for any other value, an
    unhashable one too, the same text."""
    try:
        expected = Polarity(value)
    except ValueError:
        with pytest.raises(DataError, match=f"^{re.escape(f'unknown polarity {value!r} at x')}$"):
            Polarity.parse(value, "x")
    else:
        assert Polarity.parse(value, "x") is expected


def test_non_utf8_dataset_is_data_error(tmp_path):
    path = tmp_path / "ds.json"
    path.write_bytes(b'{"version": 1, "examples": [{"text": "caf\xe9"}]}')
    with pytest.raises(DataError, match=r"ds\.json: not UTF-8 text \(byte 41\)"):
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


EXAMPLE = {"text": "a b", "tokens": ["a", "b"],
           "aspects": [{"span": [0, 1], "term": ["a"], "polarity": "positive"}]}


@pytest.mark.parametrize("text, message", [
    ('{"version": 1, "examples": [}', "invalid JSON at line 1: Expecting value"),
    (json.dumps({"version": 1, "examples": [
        {**EXAMPLE, "aspects": [{**EXAMPLE["aspects"][0], "term": "a"}]}]}),
     "examples[0].aspects[0].term: must be a list of strings"),
    (json.dumps({"version": 1, "examples": [
        {**EXAMPLE, "aspects": [{**EXAMPLE["aspects"][0], "term": ["a", 1]}]}]}),
     "examples[0].aspects[0].term: must be a list of strings"),
], ids=["invalid_json", "term_a_string", "term_with_a_number"])
def test_load_absa_json_refuses_a_malformed_file(text, message, tmp_path):
    path = tmp_path / "data.json"
    path.write_text(text)
    with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}"):
        load_absa_json(path)


SEMEVAL = """<sentences><sentence id="7"><text>The screen is great.</text>
<aspectTerms><aspectTerm term="{term}" polarity="positive" from="{start}" to="{end}"/>
</aspectTerms></sentence></sentences>"""


@pytest.mark.parametrize("text, message", [
    (SEMEVAL.replace("</sentences>", ""), "invalid XML: no element found: line 3, column 25"),
    (SEMEVAL.format(term="screen", start="4x", end="10"), "sentence 7: bad from/to offsets"),
    (SEMEVAL.format(term="screen", start="4", end="10").replace(' to="10"', ""),
     "sentence 7: bad from/to offsets"),
    (SEMEVAL.format(term="screen", start="40", end="46"),
     "sentence 7: aspect 'screen' span matches no tokens"),
    (SEMEVAL.format(term="screen", start="0", end="10"),
     "sentence 7: aspect 'screen' does not match tokens ['the', 'screen']"),
], ids=["invalid_xml", "from_not_integer", "no_to", "span_past_the_text", "term_not_tokens"])
def test_load_semeval_xml_refuses_a_malformed_file(text, message, tmp_path):
    path = tmp_path / "data.xml"
    path.write_text(text)
    with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_dataset(path)


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
    offsets = ModelConfig(k=k).slot_offsets
    window = feats[build_window([0], [len(ex.aspects)], offsets)[target]].tolist()
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
    assert cluster_histogram(ds) == {"1": 1, "2": 2, "3": 0, "4": 0, "5+": 0}


def test_cluster_sizes_per_aspect():
    """The reference's run sizes, and the pair table's buckets of them."""
    ex = make_example(["positive", "positive", "negative", "neutral", "neutral", "neutral"])
    assert cluster_sizes(ex) == [2, 2, 1, 3, 3, 3]
    assert pair_table([ex]).cluster.tolist() == [1, 1, 0, 2, 2, 2]
    assert cluster_sizes(make_example([])) == []
    assert pair_table([make_example([])]).cluster.tolist() == []


def test_cluster_histogram_alternating():
    ds = Dataset([make_example(["positive", "negative", "positive"])])
    assert cluster_histogram(ds) == {"1": 3, "2": 0, "3": 0, "4": 0, "5+": 0}


def oracle_histogram(ds):
    """Independent run-length scan."""
    counts = {"1": 0, "2": 0, "3": 0, "4": 0, "5+": 0}
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
            counts["5+" if r >= 5 else str(r)] += r
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
    assert hist == oracle_histogram(ds)
    assert sum(hist.values()) == ds.aspect_count()


def table_rows(examples) -> list[tuple]:
    """The pair table of ``examples`` as rows of Python values, the cluster
    as its label."""
    pairs = pair_table(examples)
    assert all(len(column) == len(pairs.gold) for column in pairs)
    return [(gold, (implicit, aspects, CLUSTER_LABELS[cluster]))
            for gold, implicit, aspects, cluster in zip(*(c.tolist() for c in pairs))]


@settings(max_examples=200, deadline=None)
@given(st.lists(aspect_runs(), max_size=8))
def test_pair_table_matches_the_reference(runs):
    """Every pair's gold, implicit flag, aspect count and cluster bucket are
    those of the per-example groupby, with examples without aspects
    anywhere, runs across example boundaries, and runs past 5."""
    examples = [make_example(pols, implicit=flags) for pols, flags in runs]
    assert table_rows(examples) == reference_pairs(examples)


@pytest.mark.parametrize("fixture", ["mini.json", "mini_semeval.xml"])
def test_pair_table_of_a_fixture_matches_the_reference(fixture):
    examples = load_dataset(FIXTURES / fixture).examples
    assert table_rows(examples) == reference_pairs(examples) != []
    assert table_rows([]) == []


def test_a_run_of_seven_is_in_the_last_bucket():
    pairs = pair_table([make_example([]), make_example(["neutral"] * 7, implicit=[True]),
                        make_example(["neutral"])])
    assert pairs.cluster.tolist() == [4] * 7 + [0]
    assert pairs.aspects.tolist() == [7] * 7 + [1]
    assert pairs.implicit.tolist() == [True] + [False] * 7


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


@pytest.mark.parametrize("line, message", [
    ("aspects=2:nan", "bad value for aspects: expected a finite number, got 'nan'"),
    ("aspects=2:inf,3:1", "bad value for aspects: expected a finite number, got 'inf'"),
    ("rho=nan", "bad value for rho: expected a finite number, got 'nan'"),
    ("implicit_fraction=-inf", "bad value for implicit_fraction: expected a finite number, "
                               "got '-inf'"),
], ids=["aspects_nan", "aspects_inf", "rho_nan", "implicit_fraction_inf"])
def test_synth_spec_rejects_non_finite_numbers(line, message, tmp_path):
    """A nan or infinite aspect weight once died in numpy's ``choice``
    with a ValueError traceback."""
    path = tmp_path / "spec.txt"
    path.write_text(line + "\n")
    with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}$"):
        SynthSpec.from_file(path)


@pytest.mark.parametrize("text, message", [
    ("vocab_size=2", "{path}: vocab_size must be >= 3"),
    ("train=0", "{path}: split sizes must be positive"),
    ("rho=1.5", "{path}: rho must be in [0, 1]"),
    ("implicit_fraction=1", "{path}: implicit_fraction must be in [0, 1)"),
    ("rho=0\nimplicit_fraction=0.1", "{path}: implicit aspects with rho=0 would be "
                                      "unlearnable"),
    ("aspects=0:1", "{path}: bad aspects-per-example distribution"),
    ("aspects=2:-1", "{path}: bad aspects-per-example distribution"),
    ("aspects=2:0,3:0", "{path}: aspect distribution weights sum to zero"),
    ("implicit_fraction=0.1\naspects=3:1", "{path}: implicit aspects require two-aspect "
                                            "examples"),
    ("implicit_fraction=0.6\naspects=2:0.2,3:0.8", "{path}: implicit_fraction 0.6 "
                                                    "unreachable with this aspect distribution"),
    ("colour=red", "{path}: unknown synth spec key 'colour'"),
    ("rho=0.5\nrho", "{path}:2: expected key=value"),
], ids=["vocab_size", "split_size", "rho", "implicit_fraction", "implicit_rho_0", "count_0",
        "weight_negative", "weights_zero", "no_two_aspect", "unreachable", "unknown_key",
        "no_equals"])
def test_synth_spec_refuses_each_bad_spec(text, message, tmp_path):
    """Each fault of a spec file names the file."""
    path = tmp_path / "spec.txt"
    path.write_text(text + "\n")
    with pytest.raises(DataError, match=f"^{re.escape(message.format(path=path))}$"):
        SynthSpec.from_file(path)


def test_a_spec_in_memory_is_named_the_synth_spec():
    with pytest.raises(DataError, match=r"^synth spec: rho must be in \[0, 1\]$"):
        generate_synthetic_corpus(SynthSpec(rho=1.5), 0)


def test_synth_emits_loadable_schema(tmp_path):
    spec = SynthSpec(splits={"train": 15}, rho=1.0, implicit_fraction=0.3,
                     aspects_dist={2: 0.9, 3: 0.1})
    ds = generate_synthetic_corpus(spec, 1)["train"]
    path = tmp_path / "synth.json"
    path.write_text(dataset_to_json(ds))
    loaded = load_dataset(path)
    assert loaded.aspect_count() == ds.aspect_count()
    assert any(a.implicit for ex in loaded.examples for a in ex.aspects)
