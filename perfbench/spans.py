"""Span tracer for the benchmark's traced passes.

The tracer wraps the coarse public entry points of the schubcalc modules from
outside the library.  A wrapped name is replaced in every schubcalc module that
binds it, because `faces` and `pipedreams` import `compatible_subsets` by name
and a patch of `cartan` alone would miss their calls.  Each call records a span
(name, start, end, parent span, cell id); a layer's self time is its span time
minus the time of its child spans.  Hits and misses of `lru_cache` functions
come from their own `cache_info()`.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# Only coarse entry points are wrapped.  f_op, e_op and multiply run millions
# of times per pass; wrapping them would make the traced pass measure the tracer.
ENTRY_POINTS = (
    "cartan.compatible_subsets",
    "pipedreams.mset",
    "crystals.crystal_states",
    "crystals.string_coords",
    "crystals.generate_b_lambda",
    "crystals.opposite_demazure_crystal",
    "crystals.demazure_crystal",
    "polytopes.lattice_points",
    "polytopes.vertices",
    "polytopes.is_simple",
    "polytopes.affine_rank",
    "faces.opposite_demazure_faces",
    "faces.demazure_faces",
    "faces.model_face_union_count",
    "faces.product_c",
    "oracles.bgg_structure_constants",
)
# Classes are traced through their constructor.
CONSTRUCTORS = ("faces.DeformedContext",)
# Entry points whose call counts and lru hit ratios are reported.
COUNT_CALLS = (
    "cartan.compatible_subsets",
    "pipedreams.mset",
    "crystals.string_coords",
    "polytopes.lattice_points",
    "polytopes.affine_rank",
    "oracles.bgg_structure_constants",
)
HIT_RATIOS = ("pipedreams.mset", "crystals.string_coords", "polytopes.lattice_points")
# Work counters filled from results, reported as they are.
RESULT_COUNTERS = ("polytopes.lattice_points.points", "polytopes.vertices.vertices")


def _points(result, missed):
    return (("polytopes.lattice_points.points", len(result)),) if missed else ()


def _vertices(result, missed):
    return (("polytopes.vertices.vertices", len(result)),) if missed else ()


def _tights(result, missed):
    return (("faces.tights_tried", len(result.tights) + len(result.empty)),
            ("faces.tights_empty", len(result.empty)))


# Work counts read off a call's result; `missed` says the call was a cache miss.
RESULT_HOOKS = {
    "polytopes.lattice_points": _points,
    "polytopes.vertices": _vertices,
    "faces.opposite_demazure_faces": _tights,
    "faces.demazure_faces": _tights,
}


def library_modules():
    return [m for name, m in sys.modules.items() if name == "schubcalc" or name.startswith("schubcalc.")]


def lru_caches():
    """Every module-level `lru_cache` function of the imported library."""
    found = {}
    for module in library_modules():
        for fn in vars(module).values():
            if callable(getattr(fn, "cache_clear", None)) and callable(getattr(fn, "cache_info", None)):
                found[id(fn)] = fn
    return list(found.values())


def _references(module):
    """(where, value) of what a module can call through: its globals, the
    attributes of its own classes, the items of its module-level containers
    and the default arguments of its functions."""
    for key, value in list(vars(module).items()):
        if key.startswith("__"):
            continue
        yield key, value
        if isinstance(value, type) and value.__module__ == module.__name__:
            for attr, item in vars(value).items():
                yield "%s.%s" % (key, attr), item
        elif isinstance(value, dict):
            for item_key, item in value.items():
                yield "%s[%r]" % (key, item_key), item
        elif isinstance(value, (list, tuple, set, frozenset)):
            for item in value:
                yield "%s[...]" % key, item
        elif inspect.isfunction(value):
            for item in value.__defaults__ or ():
                yield "%s(default)" % key, item


class Tracer:
    """Spans and counters of one traced run; install() and uninstall() patch
    and restore one imported copy of the library at a time."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or None, cell id, unit kind)
        self.calls = Counter()   # (unit kind, name) -> calls
        self.counts = Counter()  # (unit kind, counter name) -> total
        self.hits = Counter()    # name -> lru hits
        self.misses = Counter()  # name -> lru misses
        self.units = Counter()   # unit kind -> completed units
        self._stack = []
        self._patched = []       # (owner, attribute, original)
        self._cached = {}        # name -> original lru function
        self._cell = None
        self._kind = None

    # -- patching -----------------------------------------------------------

    def install(self, lib):
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = library_modules()
        originals = {}
        for name in ENTRY_POINTS:
            mod_name, attr = name.split(".")
            fn = getattr(getattr(lib, mod_name), attr)
            originals[id(fn)] = fn
            wrapper = self._wrap(name, fn)
            bound = 0
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, key, fn))
                        setattr(module, key, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError("entry point %s is bound nowhere" % name)
            if hasattr(fn, "cache_info"):
                self._cached[name] = fn
        for name in CONSTRUCTORS:
            mod_name, attr = name.split(".")
            cls = getattr(getattr(lib, mod_name), attr)
            init = cls.__init__
            self._patched.append((cls, "__init__", init))
            cls.__init__ = self._wrap(name, init)
        # no module may still reach an unwrapped entry point
        for module in modules:
            for where, value in _references(module):
                if id(value) in originals and originals[id(value)] is value:
                    raise RuntimeError("%s.%s escaped the tracer" % (module.__name__, where))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []
        self._cached = {}

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        info = getattr(fn, "cache_info", None)
        count = RESULT_HOOKS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            misses = info().misses if info is not None else 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._cell, self._kind)
            self.calls[self._kind, name] += 1
            if count is not None:
                for key, amount in count(result, info is not None and info().misses > misses):
                    self.counts[self._kind, key] += amount
            return result

        traced.__wrapped__ = fn
        return traced

    # -- units and cells ----------------------------------------------------

    def begin_unit(self, kind):
        """Start a setup or a pass; cache statistics restart from the last clear."""
        self._kind = kind

    def end_unit(self):
        """Fold the cache statistics of the finished unit in; call before the
        library's caches are cleared, since cache_clear() resets them."""
        for name, fn in self._cached.items():
            info = fn.cache_info()
            self.hits[name] += info.hits
            self.misses[name] += info.misses
        self.units[self._kind] += 1
        self._kind = None

    @contextmanager
    def cell(self, cell_id):
        """A root span around one cell or one set-up."""
        self._cell = cell_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = ("cell", start, end, None, cell_id, self._kind)
            self._cell = None

    # -- results ------------------------------------------------------------

    def self_times(self):
        """(unit kind, name) -> summed self time of the name's spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for index, (name, start, end, _, _, kind) in enumerate(self.spans):
            out[kind, name] += end - start - child[index]
        return out

    def hit_ratio(self, name):
        """lru hits over lookups, across all traced set-ups and passes."""
        lookups = self.hits[name] + self.misses[name]
        return self.hits[name] / lookups if lookups else 0.0

    def per_unit(self, table, name):
        """Average per unit: setup total over setups plus pass total over passes."""
        return sum(table[kind, name] / n for kind, n in self.units.items() if n)
