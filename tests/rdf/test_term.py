"""RDF term model."""

from datetime import date, datetime

import pytest

from repro.geometry import Polygon
from repro.rdf import BNode, Literal, URI, Variable, XSD, STRDF


class TestURI:
    def test_equality_and_hash(self):
        a = URI("http://example.org/x")
        b = URI("http://example.org/x")
        assert a == b and hash(a) == hash(b)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            URI("")

    def test_local_name(self):
        assert URI("http://ex.org/onto#Hotspot").local_name() == "Hotspot"
        assert URI("http://ex.org/onto/Hotspot").local_name() == "Hotspot"

    def test_n3(self):
        assert URI("http://x/y").n3() == "<http://x/y>"

    def test_immutable(self):
        with pytest.raises(AttributeError):
            URI("http://x/y").value = "other"


class TestBNode:
    def test_fresh_labels_unique(self):
        assert BNode() != BNode()

    def test_same_label_equal(self):
        assert BNode("a") == BNode("a")


class TestLiteral:
    def test_python_inference_int(self):
        lit = Literal(42)
        assert lit.datatype == XSD.base + "integer"
        assert lit.value == 42

    def test_python_inference_float(self):
        lit = Literal(2.5)
        assert lit.datatype == XSD.base + "double"
        assert lit.value == 2.5

    def test_python_inference_bool(self):
        assert Literal(True).lexical == "true"
        assert Literal(True).value is True

    def test_datetime_roundtrip(self):
        when = datetime(2007, 8, 24, 18, 15)
        lit = Literal(when)
        assert lit.value == when

    def test_date_roundtrip(self):
        lit = Literal(date(2010, 8, 22))
        assert lit.value == date(2010, 8, 22)

    def test_plain_string(self):
        lit = Literal("hello")
        assert lit.datatype is None
        assert lit.value == "hello"

    def test_language_tag(self):
        lit = Literal("Patras", language="en")
        assert lit.language == "en"
        assert lit.n3() == '"Patras"@en'

    def test_datatype_and_language_conflict(self):
        with pytest.raises(ValueError):
            Literal("x", datatype=XSD.base + "string", language="en")

    def test_geometry_literal_parses(self):
        lit = Literal(
            "POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))",
            datatype=STRDF.base + "geometry",
        )
        assert lit.is_geometry
        assert isinstance(lit.value, Polygon)

    def test_strdf_wkt_also_geometry(self):
        lit = Literal("POINT (1 2)", datatype=STRDF.base + "WKT")
        assert lit.is_geometry

    def test_bad_geometry_value_falls_back_to_text(self):
        lit = Literal("not wkt", datatype=STRDF.base + "geometry")
        assert lit.value == "not wkt"

    def test_bad_integer_falls_back(self):
        lit = Literal("abc", datatype=XSD.base + "integer")
        assert lit.value == "abc"

    def test_n3_escaping(self):
        lit = Literal('say "hi"\n')
        assert lit.n3() == '"say \\"hi\\"\\n"'

    def test_equality_depends_on_datatype(self):
        assert Literal("1") != Literal("1", datatype=XSD.base + "integer")

    @pytest.mark.parametrize(
        "parts",
        [
            ("fire",),
            ("", None, None),
            ("3.5", XSD.base + "double"),
            ("POINT (23.1 38.2)", STRDF.base + "WKT"),
            ("Αθήνα", None, "el"),
        ],
    )
    def test_from_str_equals_the_constructor(self, parts):
        lexical, datatype, language = (parts + (None, None))[:3]
        built = Literal(lexical, datatype=datatype, language=language)
        decoded = Literal.from_str(*parts)
        assert decoded == built and hash(decoded) == hash(built)
        assert (decoded.lexical, decoded.datatype, decoded.language) == (
            built.lexical, built.datatype, built.language,
        )
        assert decoded.value == built.value
        assert decoded.n3() == built.n3()
        with pytest.raises(AttributeError):
            decoded.lexical = "other"


class TestVariable:
    def test_strips_question_mark(self):
        assert Variable("?x") == Variable("x")
        assert Variable("$x").name == "x"
