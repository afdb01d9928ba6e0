"""Per-layer tracing of rgdkit from outside the package.

`Tracer.install()` replaces the public functions and methods listed in
`SPANS` and `COUNTED` with wrappers and `Tracer.uninstall()` puts the
originals back.  Every binding is patched: modules that did
`from .galleries import min_gal` hold their own name for the function, so
each `rgdkit.*` module namespace is searched for the original object, not
only the defining module.

A span records calls, inclusive time (outermost activation only) and self
time (its duration minus the durations of the spans directly inside it).
Layer self times therefore add up to the time spent inside the outermost
spans (`cli.main`).  The QF24 operators get counters only: a span around
every scalar operation would cost more than the operation.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

MARK = "__perfbench_wrapper__"

# layer -> (module, attributes); "Class.method" patches the class.
SPANS = {
    "coxeter": ("rgdkit.coxeter", (
        "CoxeterSystem.reflect", "CoxeterSystem.apply", "CoxeterSystem.apply_inv",
        "CoxeterSystem.vec_sign", "CoxeterSystem.normal_form", "CoxeterSystem.reduce_word",
        "CoxeterSystem.right_mult", "CoxeterSystem.left_mult", "CoxeterSystem.nf_append",
        "CoxeterSystem.ball")),
    "roots": ("rgdkit.roots", (
        "interval", "pair_order", "residue_at", "stabilizes_residue", "reflection_word",
        "act", "phi_w")),
    "galleries": ("rgdkit.galleries", ("min_gal", "min_gal_s", "shift", "get_gallery")),
    "blueprints": ("rgdkit.blueprints", (
        "Blueprint.query", "LocalRank2.pair_value", "validate_cb1", "validate_cb2",
        "validate_weyl", "ingest")),
    "groupforge": ("rgdkit.groupforge", (
        "PCPres.collect", "PCPres.mul", "PCPres.comm", "PCPres.position",
        "PCPres.consistency_check", "build_Uw", "lower_central_series")),
    "chambers": ("rgdkit.chambers", (
        "build_CJ", "ChamberSystemJ.adjacent", "ChamberSystemJ.coset_members",
        "ChamberSystemJ.act_tau", "verify_building", "verify_action", "braid_check")),
    # cli calls ustausV_identity_check directly; without a span its time
    # would be charged to the cli layer
    "parabolics": ("rgdkit.parabolics", (
        "build_residue_group", "tau_on_residue", "ustausV_identity_check")),
    "appendix": ("rgdkit.appendix", ("verify_identity_chains",)),
    "cli": ("rgdkit.cli", (
        "main", "cmd_validate", "cmd_group", "cmd_residue", "cmd_chambers", "cmd_appendix")),
}

COUNTED = ("QF24.__add__", "QF24.__sub__", "QF24.__mul__", "QF24.sign")

COMMANDS = ("validate", "chambers", "residue", "appendix", "group")

# hit ratio -> (new cache entries counter, span whose calls are the base)
HIT_RATIOS = {
    "coxeter.nf_append.hit_ratio": ("coxeter.nf_append.new", ("coxeter", "nf_append")),
    "galleries.get_gallery.hit_ratio": ("galleries.get_gallery.new", ("galleries", "get_gallery")),
    "blueprints.pair_cache.hit_ratio": ("blueprints.pair_cache.new", ("blueprints", "pair_value")),
}

# every per-layer metric, with its unit and direction, in print order
LAYER_METRICS = (
    ("qf24.ops", "count", "lower"),
    ("qf24.sign.calls", "count", "lower"),
    ("qf24.sign.irrational_share", "ratio", "lower"),
    ("coxeter.self_s", "s", "lower"),
    ("coxeter.reflect.calls", "count", "lower"),
    ("coxeter.reduce_word.calls", "count", "lower"),
    ("coxeter.nf_append.hit_ratio", "ratio", "higher"),
    ("roots.self_s", "s", "lower"),
    ("roots.stabilizes_residue.calls", "count", "lower"),
    ("galleries.self_s", "s", "lower"),
    ("galleries.min_gal.calls", "count", "lower"),
    ("galleries.enumerated", "count", "lower"),
    ("galleries.get_gallery.hit_ratio", "ratio", "higher"),
    ("blueprints.self_s", "s", "lower"),
    ("blueprints.query.calls", "count", "lower"),
    ("blueprints.pair_value.calls", "count", "lower"),
    ("blueprints.pair_cache.hit_ratio", "ratio", "higher"),
    ("blueprints.pair_value.s", "s", "lower"),
    ("blueprints.validate_cb1.s", "s", "lower"),
    ("blueprints.validate_weyl.s", "s", "lower"),
    ("groupforge.self_s", "s", "lower"),
    ("groupforge.collect.calls", "count", "lower"),
    ("groupforge.collect.letters", "count", "lower"),
    ("groupforge.position.calls", "count", "lower"),
    ("groupforge.consistency_check.s", "s", "lower"),
    ("chambers.self_s", "s", "lower"),
    ("chambers.adjacent.calls", "count", "lower"),
    ("chambers.act_tau.calls", "count", "lower"),
    ("chambers.verify_building.s", "s", "lower"),
    ("chambers.verify_action.s", "s", "lower"),
    ("parabolics.self_s", "s", "lower"),
    ("appendix.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    *((f"cli.{cmd}.s", "s", "lower") for cmd in COMMANDS),
)


def _split(attr: str) -> tuple[str | None, str]:
    owner, _, name = attr.rpartition(".")
    return owner or None, name


class Tracer:
    """Wrappers, their in-memory aggregates, and the patch log to undo them."""

    def __init__(self):
        # (layer, function) -> [calls, inclusive s, self s, active depth]
        self.spans: dict[tuple[str, str], list] = {}
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []
        self._patches: list[tuple[dict | type, str, object]] = []

    def reset(self) -> None:
        """Zero the aggregates in place (the wrappers hold the records)."""
        for rec in self.spans.values():
            rec[0], rec[1], rec[2] = 0, 0.0, 0.0
        self.counts.clear()

    # -- wrappers ----------------------------------------------------------

    def _span(self, key: tuple[str, str], fn):
        rec = self.spans.setdefault(key, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            rec[3] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                rec[3] -= 1
                rec[0] += 1
                rec[2] += dt - frame[0]
                if not rec[3]:
                    rec[1] += dt
                if stack:
                    stack[-1][0] += dt
        return wrapper

    def _probe(self, key: tuple[str, str], fn):
        """Work counters measured inside the span of `key`, or None."""
        counts = self.counts

        def cache_growth(counter, attr):
            def probed(owner, *args, **kwargs):
                cache = getattr(owner, attr)
                before = len(cache)
                try:
                    return fn(owner, *args, **kwargs)
                finally:
                    counts[counter] += len(cache) - before
            return probed

        if key == ("coxeter", "nf_append"):
            return cache_growth("coxeter.nf_append.new", "_append_cache")
        if key == ("galleries", "get_gallery"):
            return cache_growth("galleries.get_gallery.new", "_gallery_cache")
        if key == ("blueprints", "pair_value"):
            return cache_growth("blueprints.pair_cache.new", "_pair_cache")
        if key == ("galleries", "min_gal"):
            def min_gal(*args, **kwargs):
                out = fn(*args, **kwargs)
                counts["galleries.enumerated"] += len(out)
                return out
            return min_gal
        if key == ("groupforge", "collect"):
            def collect(pres, word):
                if not hasattr(word, "__len__"):
                    word = tuple(word)
                counts["groupforge.collect.letters"] += len(word)
                return fn(pres, word)
            return collect
        return None

    def _counter(self, name: str, fn):
        counts = self.counts
        if name == "sign":
            def sign(q):
                counts["qf24.sign.calls"] += 1
                if q.b or q.c or q.d:
                    counts["qf24.sign.irrational"] += 1
                return fn(q)
            return sign

        def op(a, b):
            counts["qf24.ops"] += 1
            return fn(a, b)
        return op

    # -- patching ----------------------------------------------------------

    def _patch(self, module: str, attr: str, make) -> None:
        owner_name, name = _split(attr)
        mod = sys.modules[module]
        if owner_name is None:
            original = mod.__dict__[name]
            wrapper = make(original)
            setattr(wrapper, MARK, True)
            for other in _package_modules():
                ns = other.__dict__
                for binding, value in list(ns.items()):
                    if value is original:
                        self._patches.append((ns, binding, original))
                        ns[binding] = wrapper
            return
        cls = getattr(mod, owner_name)
        raw = cls.__dict__[name]
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrapper = make(fn)
        setattr(wrapper, MARK, True)
        self._patches.append((cls, name, raw))
        setattr(cls, name, staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import rgdkit.cli  # noqa: F401  (loads every module a command can reach)
        for attr in COUNTED:
            self._patch("rgdkit.qf24", attr, lambda fn, a=attr: self._counter(_split(a)[1], fn))
        for layer, (module, attrs) in SPANS.items():
            for attr in attrs:
                key = (layer, _split(attr)[1])

                def make(fn, key=key):
                    probed = self._probe(key, fn)
                    return self._span(key, probed or fn)
                self._patch(module, attr, make)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every LAYER_METRICS value for the aggregates since the last reset."""
        spans, counts = self.spans, self.counts

        def calls(layer, fn):
            return spans.get((layer, fn), (0,))[0]

        def incl(layer, fn):
            return spans.get((layer, fn), (0, 0.0))[1]

        out: dict[str, float] = {
            "qf24.ops": counts["qf24.ops"],
            "qf24.sign.calls": counts["qf24.sign.calls"],
            "qf24.sign.irrational_share":
                counts["qf24.sign.irrational"] / counts["qf24.sign.calls"]
                if counts["qf24.sign.calls"] else 0.0,
            "coxeter.reflect.calls": calls("coxeter", "reflect"),
            "coxeter.reduce_word.calls": calls("coxeter", "reduce_word"),
            "roots.stabilizes_residue.calls": calls("roots", "stabilizes_residue"),
            "galleries.min_gal.calls": calls("galleries", "min_gal"),
            "galleries.enumerated": counts["galleries.enumerated"],
            "blueprints.query.calls": calls("blueprints", "query"),
            "blueprints.pair_value.calls": calls("blueprints", "pair_value"),
            "blueprints.pair_value.s": incl("blueprints", "pair_value"),
            "blueprints.validate_cb1.s": incl("blueprints", "validate_cb1"),
            "blueprints.validate_weyl.s": incl("blueprints", "validate_weyl"),
            "groupforge.collect.calls": calls("groupforge", "collect"),
            "groupforge.collect.letters": counts["groupforge.collect.letters"],
            "groupforge.position.calls": calls("groupforge", "position"),
            "groupforge.consistency_check.s": incl("groupforge", "consistency_check"),
            "chambers.adjacent.calls": calls("chambers", "adjacent"),
            "chambers.act_tau.calls": calls("chambers", "act_tau"),
            "chambers.verify_building.s": incl("chambers", "verify_building"),
            "chambers.verify_action.s": incl("chambers", "verify_action"),
        }
        for name, (new, key) in HIT_RATIOS.items():
            out[name] = 1.0 - counts[new] / calls(*key) if calls(*key) else 0.0
        for layer in SPANS:
            out[f"{layer}.self_s"] = sum(rec[2] for (lay, _), rec in spans.items() if lay == layer)
        for cmd in COMMANDS:
            out[f"cli.{cmd}.s"] = incl("cli", f"cmd_{cmd}")
        return out

    def span_table(self) -> list[dict]:
        """The raw aggregates, one record per (layer, function)."""
        return [{"layer": layer, "function": fn, "calls": rec[0],
                 "inclusive_s": rec[1], "self_s": rec[2]}
                for (layer, fn), rec in sorted(self.spans.items())]


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "rgdkit" or name.startswith("rgdkit."))]


def leftover_wrappers() -> list[str]:
    """Names in rgdkit's modules and classes still bound to a tracer wrapper."""
    found = []
    for mod in _package_modules():
        for name, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, raw in vars(value).items():
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    if getattr(fn, MARK, False):
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return found
