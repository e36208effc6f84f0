"""Response parser tests: the example-response and failure corpus, plus
classification of every failure reason and fuzzing for total behaviour."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from beamtune.prompts import ParseFailure, parse
from beamtune.task import MagnetSettings

from conftest import read_data


def fenced(body: str, tag: str = "json") -> str:
    return f"```{tag}\n{body}\n```"

SETTINGS_BODY = """{
    "Q1": -14.30,
    "Q2": -9.70,
    "CV": -2.55,
    "Q3": -8.10,
    "CH": -5.21
}"""


class TestCorpus:
    def test_example_response_parses_exactly(self):
        result = parse(read_data("corpus", "example_response.txt"))
        # internal units: angles converted from mrad to rad
        assert result == MagnetSettings(
            q1=-14.30, q2=-9.70, cv=-2.55 * 1e-3, q3=-8.10, ch=-5.21 * 1e-3,
        )
        assert result.cv == pytest.approx(-2.55e-3)

    def test_trailing_comma_is_invalid_json(self):
        result = parse(read_data("corpus", "trailing_comma.txt"))
        assert isinstance(result, ParseFailure)
        assert result.reason == "invalid_json"

    def test_cot_essay_has_no_parsable_settings(self):
        result = parse(read_data("corpus", "cot_essay.txt"))
        assert isinstance(result, ParseFailure)
        assert result.reason == "no_json"

    def test_incoherent_multi_object_response_is_ambiguous(self):
        result = parse(read_data("corpus", "incoherent.txt"))
        assert isinstance(result, ParseFailure)
        assert result.reason == "ambiguous_multiple"


class TestExtraction:
    def test_bare_fence_without_tag(self):
        assert isinstance(parse(fenced(SETTINGS_BODY, tag="")), MagnetSettings)

    def test_unfenced_object_on_own_line(self):
        text = "Here are my proposed settings:\n" + SETTINGS_BODY + "\nGood luck!"
        assert isinstance(parse(text), MagnetSettings)

    def test_unfenced_object_mid_sentence_is_not_extracted(self):
        text = (
            'I would try {"Q1": -1.0, "Q2": 2.0, "CV": 0.5, "Q3": 3.0, "CH": -0.5} '
            "as the next step."
        )
        result = parse(text)
        assert isinstance(result, ParseFailure)
        assert result.reason == "no_json"

    def test_fenced_block_wins_over_bare_text(self):
        text = SETTINGS_BODY + "\n" + fenced(SETTINGS_BODY)
        # only the fenced candidate is considered: exactly one -> success
        assert isinstance(parse(text), MagnetSettings)

    def test_two_fenced_objects_ambiguous(self):
        text = fenced(SETTINGS_BODY) + "\nor alternatively\n" + fenced(SETTINGS_BODY)
        assert parse(text).reason == "ambiguous_multiple"

    def test_plain_prose_is_no_json(self):
        assert parse("I cannot help with that.").reason == "no_json"

    def test_json_tag_case_insensitive(self):
        assert isinstance(parse(fenced(SETTINGS_BODY, tag="JSON")), MagnetSettings)


class TestSchemaStrictness:
    def test_missing_key(self):
        body = '{"Q1": 1.0, "Q2": 2.0, "CV": 0.5, "Q3": 3.0}'
        assert parse(fenced(body)).reason == "missing_keys"

    def test_extra_key(self):
        body = '{"Q1": 1, "Q2": 2, "CV": 0.5, "Q3": 3, "CH": -0.5, "Q4": 1}'
        assert parse(fenced(body)).reason == "extra_keys_disallowed"

    def test_numeric_strings_rejected(self):
        body = '{"Q1": "1.0", "Q2": 2.0, "CV": 0.5, "Q3": 3.0, "CH": -0.5}'
        assert parse(fenced(body)).reason == "non_numeric"

    def test_booleans_rejected(self):
        body = '{"Q1": true, "Q2": 2.0, "CV": 0.5, "Q3": 3.0, "CH": -0.5}'
        assert parse(fenced(body)).reason == "non_numeric"

    def test_null_rejected(self):
        body = '{"Q1": null, "Q2": 2.0, "CV": 0.5, "Q3": 3.0, "CH": -0.5}'
        assert parse(fenced(body)).reason == "non_numeric"

    def test_comments_rejected(self):
        body = '{"Q1": 1.0, // first quad\n "Q2": 2, "CV": 0.5, "Q3": 3, "CH": -0.5}'
        assert parse(fenced(body)).reason == "invalid_json"

    def test_integers_accepted(self):
        body = '{"Q1": 1, "Q2": 2, "CV": 0, "Q3": 3, "CH": -1}'
        assert parse(fenced(body)) == MagnetSettings(q1=1.0, q2=2.0, cv=0.0, q3=3.0, ch=-1e-3)

    def test_non_object_json_rejected(self):
        assert parse(fenced("[1, 2, 3]")).reason == "invalid_json"

    def test_most_specific_reason_wins(self):
        # one block with bad syntax, one with the right keys but a string
        text = (
            fenced('{"Q1": 1.0,}')
            + "\n"
            + fenced('{"Q1": "x", "Q2": 2, "CV": 0.5, "Q3": 3, "CH": -0.5}')
        )
        assert parse(text).reason == "non_numeric"


class TestClampFlags:
    def test_out_of_range_values_parse_with_flags(self):
        body = '{"Q1": 45.0, "Q2": 2.0, "CV": -7.5, "Q3": 3.0, "CH": -0.5}'
        parsed = parse(fenced(body))
        # values are kept unclamped; the task clamps on application and
        # flags the clamped fields
        assert parsed.q1 == 45.0
        assert parsed.cv == pytest.approx(-7.5e-3)
        assert parsed.clamped()[1] == ("q1", "cv")
        # the range edges in prompt units are inside the actuator box
        edges = '{"Q1": 30.0, "Q2": -30.0, "CV": 6.0, "Q3": 30.0, "CH": -6.0}'
        assert parse(fenced(edges)).clamped()[1] == ()


class TestFailureRecord:
    @given(st.text(max_size=400))
    def test_parse_never_raises(self, text):
        result = parse(text)
        assert isinstance(result, (MagnetSettings, ParseFailure))
