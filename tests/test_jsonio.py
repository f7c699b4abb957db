import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import bridge_decomposition, bridge_graph, corpus, decomposition_to_obj, graph_to_obj
from relfact import jsonio
from relfact.graphs import GraphError


# ASCII digits, then Arabic-Indic three, fullwidth nine and superscript two,
# which str.isdigit accepts and int() does not
DIGITS = "0123456789\u0663\uff19\u00b2"


def digit_runs():
    """A few digits and underscores, or 299..5000 of one digit after leading zeros."""
    short = st.text(st.sampled_from(DIGITS + "_"), max_size=6)
    long = st.builds(
        lambda zeros, d, k: "0" * zeros + d * k, st.integers(0, 3), st.sampled_from(DIGITS), st.integers(299, 5000)
    )
    return short | long


def read(parse, s):
    """parse(s), or the text of the FormatError it raises."""
    try:
        return parse(s)
    except jsonio.FormatError as exc:
        return str(exc)


def fraction_str_path(s):
    """fraction_from_str without its int() path: the digit-limit check on
    the decimal scale, then Fraction(s)."""
    limit = sys.get_int_max_str_digits() or jsonio._DEFAULT_DIGIT_LIMIT
    scale = abs(jsonio._decimal_scale(s))
    if scale >= limit:
        raise jsonio.FormatError(f"bad rational {s!r}: 10**{scale} exceeds the {limit}-digit integer limit")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise jsonio.FormatError(f"bad rational {s!r}: {exc}") from None


class TestRationals:
    @settings(max_examples=300, deadline=None)
    @given(
        pad=st.sampled_from(["", " ", "\t"]),
        sign=st.sampled_from(["", "+", "-"]),
        num=digit_runs(),
        mid=st.sampled_from(["/", " / ", ".", "e", "e-", ""]),
        den=digit_runs(),
    )
    @example(pad="", sign="", num="0003", mid="/", den="0")
    @example(pad="", sign="", num="7" * 4301, mid="/", den="9" * 4301)
    @example(pad="", sign="", num="1", mid="/", den="0" * 299 + "8" * 4300)
    def test_the_int_path_reads_as_fraction_str(self, pad, sign, num, mid, den):
        s = f"{pad}{sign}{num}{mid}{den}{pad}"
        value = read(jsonio.fraction_from_str, s)
        assert value == read(fraction_str_path, s)
        assert value.__class__ in (Fraction, str)

    def test_to_str_reduced_sign_on_numerator(self):
        assert jsonio.fraction_to_str(Fraction(2, 4)) == "1/2"
        assert jsonio.fraction_to_str(Fraction(-1, 2)) == "-1/2"
        assert jsonio.fraction_to_str(Fraction(0)) == "0/1"

    def test_decimal_strings_exact(self):
        assert jsonio.prob_from_json("0.9") == Fraction(9, 10)
        assert jsonio.prob_from_json("3/4") == Fraction(3, 4)
        assert jsonio.prob_from_json(1) == Fraction(1)

    def test_floats_rejected(self):
        with pytest.raises(jsonio.FormatError):
            jsonio.prob_from_json(0.9)

    def test_bad_strings_rejected(self):
        with pytest.raises(jsonio.FormatError):
            jsonio.prob_from_json("1/0")
        with pytest.raises(jsonio.FormatError):
            jsonio.prob_from_json("p")


    def test_decimal_scale_bounded_by_int_digit_limit(self):
        assert jsonio.prob_from_json("1e-4299") == Fraction(1, 10**4299)
        assert jsonio.prob_from_json("2.5e-3") == Fraction(1, 400)
        for text in ("1e-4300", "0.01e-4299", "1e5000"):
            with pytest.raises(jsonio.FormatError, match="integer limit"):
                jsonio.prob_from_json(text)

    def test_boolean_edge_id_rejected(self):
        doc = graph_to_obj(bridge_graph())
        doc["edges"][0]["id"] = True
        with pytest.raises(jsonio.FormatError):
            jsonio.graph_from_obj(doc)


class TestGraphDocuments:
    def test_roundtrip(self):
        g = bridge_graph()
        assert jsonio.graph_from_obj(graph_to_obj(g)) == g

    def test_decomposition_roundtrip(self):
        d = bridge_decomposition()
        back = jsonio.decomposition_from_obj(decomposition_to_obj(d))
        assert back == d

    def test_corpus_roundtrip(self):
        for n in (1, 2, 3):
            for d in corpus(91, n, 3):
                assert jsonio.decomposition_from_obj(decomposition_to_obj(d)) == d

    def test_missing_key(self):
        with pytest.raises(jsonio.FormatError):
            jsonio.graph_from_obj({"nodes": [], "edges": []})

    def test_semantic_error_is_not_format_error(self):
        doc = {
            "nodes": ["a", "b"],
            "edges": [
                {"id": 1, "u": "a", "v": "b", "p": "1/2"},
                {"id": 1, "u": "a", "v": "b", "p": "1/2"},
            ],
            "terminals": ["a"],
        }
        with pytest.raises(GraphError):
            jsonio.graph_from_obj(doc)

    def test_canonical_dump_is_stable(self):
        obj = graph_to_obj(bridge_graph())
        text = jsonio.dumps_canonical(obj)
        assert text == jsonio.dumps_canonical(json.loads(text))
        assert text.endswith("\n")
