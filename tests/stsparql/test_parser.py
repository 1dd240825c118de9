"""stSPARQL parser coverage."""

import pytest

from repro.rdf import NOA, RDF, STRDF
from repro.rdf.term import Literal, URI, Variable
from repro.stsparql import SparqlParseError
from repro.stsparql import ast
from repro.stsparql.parser import parse


class TestSelect:
    def test_simple_select(self):
        q = parse("SELECT ?s WHERE { ?s a noa:Hotspot . }")
        assert isinstance(q, ast.SelectQuery)
        assert q.projections[0].variable == Variable("s")
        bgp = q.pattern.elements[0]
        assert isinstance(bgp, ast.BGP)
        assert bgp.triples[0].predicate == RDF.type

    def test_select_star(self):
        q = parse("SELECT * WHERE { ?s ?p ?o }")
        assert q.select_star

    def test_distinct(self):
        q = parse("SELECT DISTINCT ?s WHERE { ?s ?p ?o }")
        assert q.distinct

    def test_expression_projection(self):
        q = parse(
            "SELECT ( strdf:boundary(?g) AS ?b ) WHERE { ?s strdf:hasGeometry ?g }"
        )
        proj = q.projections[0]
        assert proj.variable == Variable("b")
        assert isinstance(proj.expression, ast.FunctionCall)
        assert proj.expression.name == STRDF.base + "boundary"

    def test_predicate_object_lists(self):
        q = parse(
            "SELECT ?s WHERE { ?s a noa:Hotspot ; noa:p ?a, ?b . }"
        )
        bgp = q.pattern.elements[0]
        assert len(bgp.triples) == 3

    def test_variable_predicate(self):
        q = parse("SELECT ?s WHERE { ?s ?hProperty ?hObject . }")
        bgp = q.pattern.elements[0]
        assert bgp.triples[0].predicate == Variable("hProperty")

    def test_filter_with_trailing_dot(self):
        # The paper writes FILTER(...) . inside groups.
        q = parse(
            'SELECT ?s WHERE { ?s noa:p ?v . FILTER( ?v > 3 ) . ?s noa:q ?w . }'
        )
        kinds = [type(e).__name__ for e in q.pattern.elements]
        assert kinds == ["BGP", "Filter", "BGP"]

    def test_optional_bound_combo(self):
        q = parse(
            """SELECT ?h WHERE {
                 ?h a noa:Hotspot .
                 OPTIONAL { ?c a noa:Other . FILTER(strdf:anyInteract(?h, ?c)) }
                 FILTER(!bound(?c)) }"""
        )
        assert any(isinstance(e, ast.Optional_) for e in q.pattern.elements)

    def test_group_by_having(self):
        q = parse(
            """SELECT ?h (COUNT(?p) AS ?n) WHERE { ?h noa:prev ?p }
               GROUP BY ?h HAVING (COUNT(?p) >= 3)"""
        )
        assert len(q.group_by) == 1
        assert len(q.having) == 1

    def test_order_limit_offset(self):
        q = parse(
            "SELECT ?s WHERE { ?s ?p ?o } ORDER BY DESC(?s) LIMIT 5 OFFSET 2"
        )
        assert q.order_by[0].descending
        assert q.limit == 5 and q.offset == 2

    def test_union(self):
        q = parse(
            "SELECT ?s WHERE { { ?s a noa:A } UNION { ?s a noa:B } }"
        )
        assert any(
            isinstance(e, ast.UnionPattern) for e in q.pattern.elements
        )

    def test_bind(self):
        q = parse(
            "SELECT ?area WHERE { ?s strdf:hasGeometry ?g . "
            "BIND(strdf:area(?g) AS ?area) }"
        )
        assert any(isinstance(e, ast.Bind) for e in q.pattern.elements)

    def test_subselect_in_braces(self):
        q = parse(
            "SELECT ?s WHERE { { SELECT ?s WHERE { ?s ?p ?o } } }"
        )
        assert isinstance(q.pattern.elements[0], ast.SubSelect)

    def test_bare_subselect(self):
        q = parse("SELECT ?s WHERE { SELECT ?s WHERE { ?s ?p ?o } }")
        assert isinstance(q.pattern.elements[0], ast.SubSelect)

    def test_typed_literal_object(self):
        q = parse(
            'SELECT ?s WHERE { ?s noa:t "2007-08-24T00:00:00"^^xsd:dateTime }'
        )
        obj = q.pattern.elements[0].triples[0].object
        assert isinstance(obj, Literal)
        assert obj.datatype.endswith("dateTime")

    def test_prefix_declaration(self):
        q = parse(
            "PREFIX my: <http://my.org/> SELECT ?s WHERE { ?s a my:Thing }"
        )
        obj = q.pattern.elements[0].triples[0].object
        assert obj == URI("http://my.org/Thing")

    def test_spatial_aggregate_parsed(self):
        q = parse(
            "SELECT (strdf:union(?g) AS ?u) WHERE { ?s strdf:hasGeometry ?g } "
            "GROUP BY ?s"
        )
        expr = q.projections[0].expression
        assert isinstance(expr, ast.Aggregate)
        assert expr.name == STRDF.base + "union"

    def test_binary_strdf_union_is_function(self):
        q = parse(
            "SELECT (strdf:union(?a, ?b) AS ?u) WHERE { ?s noa:p ?a, ?b }"
        )
        expr = q.projections[0].expression
        assert isinstance(expr, ast.FunctionCall)


class TestAskAndUpdates:
    def test_ask(self):
        q = parse("ASK { ?s a noa:Hotspot }")
        assert isinstance(q, ast.AskQuery)

    def test_delete_where_template(self):
        q = parse("DELETE { ?h ?p ?o } WHERE { ?h ?p ?o . FILTER(?o > 1) }")
        assert isinstance(q, ast.UpdateRequest)
        assert len(q.delete_template) == 1
        assert q.where_pattern is not None

    def test_delete_insert_where(self):
        q = parse(
            """DELETE { ?h strdf:hasGeometry ?g }
               INSERT { ?h strdf:hasGeometry ?d }
               WHERE { ?h strdf:hasGeometry ?g . BIND(?g AS ?d) }"""
        )
        assert q.delete_template and q.insert_template

    def test_insert_data(self):
        q = parse(
            "INSERT DATA { noa:h1 a noa:Hotspot . noa:h1 noa:c 1.0 . }"
        )
        assert len(q.insert_template) == 2
        assert q.where_pattern is None

    def test_delete_data(self):
        q = parse("DELETE DATA { noa:h1 a noa:Hotspot }")
        assert len(q.delete_template) == 1

    def test_shorthand_delete_where(self):
        q = parse("DELETE WHERE { ?h a noa:Hotspot }")
        assert q.delete_template == _template_of(q.where_pattern)


def _template_of(pattern):
    triples = []
    for e in pattern.elements:
        triples.extend(e.triples)
    return tuple(triples)


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "SELECT WHERE { ?s ?p ?o }",
            "SELECT ?s WHERE { ?s ?p }",
            "SELECT ?s WHERE { ?s ?p ?o ",
            "FROB ?x WHERE { }",
            "SELECT ?s WHERE { ?s bad:prefixed ?o }",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(SparqlParseError):
            parse(bad)


class TestValues:
    def test_block_joins_the_triples_around_it(self):
        q = parse(
            "SELECT * WHERE { ?s ?p ?o . VALUES (?o ?t) "
            '{ (1 "a") (noa:x UNDEF) } ?s a ?c }'
        )
        (bgp,) = q.pattern.elements
        assert len(bgp.triples) == 2
        (block,) = bgp.values
        assert block.columns == (Variable("o"), Variable("t"))
        assert block.rows == (
            (Literal("1", datatype=XSD_INTEGER), Literal("a")),
            (NOA.x, None),
        )

    def test_single_variable_form(self):
        q = parse("SELECT * WHERE { VALUES ?x { 1 UNDEF true } }")
        (bgp,) = q.pattern.elements
        assert bgp.triples == ()
        assert [row[0] for row in bgp.values[0].rows] == [
            Literal("1", datatype=XSD_INTEGER),
            None,
            Literal("true", datatype=XSD_BOOLEAN),
        ]

    def test_block_inside_optional_and_union(self):
        q = parse(
            "SELECT * WHERE { ?s ?p ?o OPTIONAL { VALUES ?o { 1 } } "
            "{ VALUES ?s { noa:a } } UNION { ?s a ?c } }"
        )
        _, optional, union = q.pattern.elements
        assert optional.pattern.elements[0].values
        assert union.left.elements[0].values

    @pytest.mark.parametrize(
        "bad",
        [
            "SELECT * WHERE { VALUES (?a ?b) { (1) } }",  # arity
            "SELECT * WHERE { VALUES (?a) { (1 2) } }",  # arity
            "SELECT * WHERE { VALUES ?a { ?b } }",  # a variable
            "SELECT * WHERE { VALUES ?a { (1) } }",  # a row, one column
            "SELECT * WHERE { VALUES ?a { filter } }",  # a keyword
            "SELECT * WHERE { VALUES (?a ?a) { (1 1) } }",  # twice
            "SELECT * WHERE { VALUES (?a) { (1 ",  # unterminated
            "SELECT * WHERE { VALUES { (1) } }",  # no variables
        ],
    )
    def test_malformed_blocks_raise_a_parse_error(self, bad):
        with pytest.raises(SparqlParseError):
            parse(bad)

    def test_delete_where_refuses_a_block(self):
        with pytest.raises(SparqlParseError):
            parse("DELETE WHERE { ?s ?p ?o VALUES ?o { 1 } }")


XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
XSD_BOOLEAN = "http://www.w3.org/2001/XMLSchema#boolean"
