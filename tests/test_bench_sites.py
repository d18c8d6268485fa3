"""Every function the benchmark wraps by name must stay defined where the
benchmark looks for it: a rename or an inlining fails here rather than in
the benchmark run."""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402


@pytest.mark.parametrize(
    "owner, attr, span",
    spans.SPAN_SITES,
    ids=[f"{owner.__name__}.{attr}" for owner, attr, _ in spans.SPAN_SITES],
)
def test_span_site_is_defined_on_its_owner(owner, attr, span):
    assert attr in owner.__dict__, f"{span}: {owner.__name__} has no {attr!r}"
