"""Property tests: BenchRecord/BenchSuite survive a to_dict round-trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.perf.bench import BenchRecord, BenchSuite, SCHEMA_VERSION

names = st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)),
                min_size=1, max_size=30)
json_scalars = st.one_of(
    st.booleans(),
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False,
              min_value=-1e9, max_value=1e9),
    st.text(max_size=20),
)
records = st.builds(
    BenchRecord,
    name=names,
    wall_seconds=st.floats(min_value=1e-6, max_value=1e6,
                           allow_nan=False),
    cycles=st.integers(min_value=0, max_value=10**12),
    cells=st.integers(min_value=0, max_value=10**9),
    mode=st.sampled_from(["scalar", "batched"]),
    extra=st.dictionaries(names, json_scalars, max_size=4),
)
suites = st.builds(
    BenchSuite,
    records=st.lists(records, max_size=6),
    context=st.dictionaries(names, json_scalars, max_size=4),
)


@settings(max_examples=60, deadline=None)
@given(records)
def test_record_round_trips(record):
    clone = BenchRecord.from_dict(record.to_dict())
    assert clone == record


@settings(max_examples=60, deadline=None)
@given(suites)
def test_suite_round_trips(suite):
    clone = BenchSuite.from_dict(suite.to_dict())
    assert clone.context == suite.context
    assert clone.records == suite.records


@settings(max_examples=60, deadline=None)
@given(suites)
def test_suite_dict_carries_schema(suite):
    assert suite.to_dict()["schema"] == SCHEMA_VERSION


def test_wrong_schema_rejected():
    data = BenchSuite(records=[]).to_dict()
    data["schema"] = SCHEMA_VERSION + 1
    with pytest.raises(ConfigurationError, match="schema"):
        BenchSuite.from_dict(data)
