import pytest

from schubcalc import oracles


@pytest.fixture
def wrong_signed_root(monkeypatch):
    """Plant a convention slip in the divided-difference oracle: the first
    positive root enters the top class with the wrong sign.  The oracle's
    caches are cleared on entry and on exit, so no other test sees it."""
    original = oracles.orthogonal_root

    def flipped(datum, root):
        vec = original(datum, root)
        return tuple(-x for x in vec) if root == oracles.positive_roots(datum)[0] else vec

    caches = (oracles.schubert_representative, oracles.bgg_structure_constants)
    for f in caches:
        f.cache_clear()
    monkeypatch.setattr(oracles, "orthogonal_root", flipped)
    yield
    monkeypatch.undo()
    for f in caches:
        f.cache_clear()
