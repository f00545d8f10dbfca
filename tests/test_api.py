"""The package's public names."""

import magari4

# the names README's Library section imports or calls
README_LIBRARY = (
    "Element",
    "parse",
    "evaluate",
    "truth_table",
    "equivalent",
    "counterexample",
    "synthesize",
    "TwelveSystem",
    "derive_all_constants",
    "expressible_constants",
)


def test_public_names_resolve_once():
    assert len(set(magari4.__all__)) == len(magari4.__all__)
    assert [name for name in magari4.__all__ if not hasattr(magari4, name)] == []
    assert [name for name in README_LIBRARY if name not in magari4.__all__] == []
