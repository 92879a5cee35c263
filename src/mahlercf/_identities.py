"""The frozen vocabulary of named identities (``verify --identity``), kept
apart from the mathematics in ``structure`` so that the CLI parser can offer
it without importing any arithmetic."""

IDENTITY_NAMES = ("funceq", "lemma5", "prop2", "prop_sum3", "prop_bk", "theorem1", "bzz")

# The identities that hold for one d only; the CLI defaults --d to it.
IDENTITY_D = {"bzz": 2, "lemma5": 3, "prop2": 3, "prop_sum3": 3, "prop_bk": 3}
