"""The seeded random differential (``random_differential.py``) at the
tier-1 seed budget; CI runs the same generators over a 20x longer
seed range."""

import pytest

from random_differential import check_query_seed, check_template_seed

pytest.importorskip("numpy")

#: Seeds 0..59: random OPTIONAL / MINUS / (NOT) EXISTS / UNION nestings.
QUERY_SEEDS = range(60)
#: Seeds 0..3: every refinement template, four acquisitions each.
TEMPLATE_SEEDS = range(4)


@pytest.mark.parametrize("seed", QUERY_SEEDS)
def test_random_queries_match_reference(seed):
    check_query_seed(seed)


@pytest.mark.parametrize("seed", TEMPLATE_SEEDS)
def test_refinement_templates_match_reference(seed):
    check_template_seed(seed)
