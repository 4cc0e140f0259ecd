import pytest

from schubcalc import oracles, polytopes


@pytest.fixture
def wrong_signed_top_class(monkeypatch):
    """Plant a convention slip in the divided-difference oracle: the top
    class enters with the wrong sign, so every representative does and the
    identity one is -1.  The oracle's caches are cleared on entry and on
    exit, so no other test sees it."""
    original = oracles.top_class_polynomial
    caches = (oracles.schubert_representative, oracles.bgg_structure_constants)
    for f in caches:
        f.cache_clear()
    monkeypatch.setattr(oracles, "top_class_polynomial", lambda datum: tuple((m, -c) for m, c in original(datum)))
    yield
    monkeypatch.undo()
    for f in caches:
        f.cache_clear()


@pytest.fixture
def plant_rows(monkeypatch):
    """plant(name, change): the facet rows of one side planted, name
    "_interlacing_specs" for the GT/SGT side or "_string_rows" for the
    string side, change taking and returning its rows, F rows then Fv rows.
    The certificate's cache (`polytopes.model_map`) is cleared on planting
    and on exit, so no other test sees it."""

    def plant(name, change):
        true = getattr(polytopes, name)

        def planted(datum):
            f_rows, fv_rows, order = true(datum)
            rows = change(f_rows + fv_rows)
            return rows[: len(f_rows)], rows[len(f_rows) :], order

        monkeypatch.setattr(polytopes, name, planted)
        polytopes.model_map.cache_clear()

    yield plant
    monkeypatch.undo()
    polytopes.model_map.cache_clear()
