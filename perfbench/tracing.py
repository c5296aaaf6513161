"""Per-layer spans and counters, installed from outside the program.

`Tracer.install()` replaces every public function of the seven supergeo
layers with a timing wrapper at every binding the program looks it up
through: the defining module, every module (or package) that imported the
name, module-level dicts that hold it (`selfcheck.CHECKS`), and the
arithmetic operators of `SuperElem` (aliases such as `__radd__` get their own
label).  `Fraction.__new__` gets a counting wrapper.  `uninstall()` puts every
original back.  Nothing in `src/` is edited.

A span is (id, label, start, end, parent id, op).  Spans of module-level
functions are kept one by one; the hot `SuperElem` operators are aggregated
per (op, label, parent label) to bound memory.  A layer's self time is its
spans' time minus the time of their child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
from fractions import Fraction
from time import perf_counter

LAYERS = ("superalg", "supermat", "atlas", "cech", "families", "selfcheck", "cli")
HOT_OPERATORS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__truediv__", "__pow__",
)
MUL = ("superalg.SuperElem.__mul__", "superalg.SuperElem.__rmul__")
ADD = ("superalg.SuperElem.__add__", "superalg.SuperElem.__radd__")
POW = "superalg.SuperElem.__pow__"
BUILDERS = ("build_decomposable", "build_omega1", "build_generic", "build_pi_plane")
CONNECTING = ("obstruction_delta", "picard_delta", "omega_cocycle_sum")

# Per-layer metrics of the traced run, in output order: name -> unit.
METRICS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "superalg.mul.calls": "count",
    "superalg.mul.term_pairs": "count",
    "fraction_new.calls": "count",
    "superalg.pow.calls": "count",
    "superalg.pow.mul_calls": "count",
    "superalg.add.calls": "count",
    "superalg.invert_unit.calls": "count",
    "superalg.substitute.calls": "count",
    "superalg.parse.calls": "count",
    "superalg.format.calls": "count",
    "supermat.matmul.calls": "count",
    "supermat.berezinian.calls": "count",
    "supermat.inverse.calls": "count",
    "supermat.det_even.calls": "count",
    "atlas.compose.calls": "count",
    "atlas.jacobian.calls": "count",
    "atlas.check_cocycle_loop.calls": "count",
    "atlas.invert_map.calls": "count",
    "atlas.invert_map.repeat_share": "ratio",
    "families.build.calls": "count",
    "families.frame_signs.calls": "count",
    "families.frame_signs.repeat_share": "ratio",
    "cech.connecting.calls": "count",
    "cech.h1_tangent.calls": "count",
    "cech.h1_tangent.self_s": "s",
    "selfcheck.cases": "count",
    "cli.run.calls": "count",
    "trace.overhead": "ratio",
}

_ROOT = "op"


def _elem_key(elem):
    return (elem.table, tuple(sorted(elem.terms.items())))


def _map_key(f):
    """Canonical form of a transition map (exact terms, no formatting)."""
    return (f.source, f.target, tuple(sorted((n, _elem_key(e)) for n, e in f.assignment.items())))


def _atlas_key(atlas):
    return tuple(sorted((pair, _map_key(f)) for pair, f in atlas.maps.items()))


class Tracer:
    """Spans, counters and self times of one traced pass."""

    def __init__(self):
        self.op = -1
        self.spans: list[tuple] = []
        self.hot: dict[tuple, list] = {}
        self.calls: dict[str, int] = {}
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.h1_self_s = 0.0
        self.term_pairs = 0
        self.fraction_new = 0
        self.cases = 0
        self.repeats = {"atlas.invert_map": 0, "families.frame_signs": 0}
        self._seen: dict[str, set] = {name: set() for name in self.repeats}
        # frame: [child seconds, layer, span id, label]
        self._stack = [[0.0, None, -1, _ROOT]]
        self._next_id = 0
        self._undo: list = []

    # -- op boundaries ------------------------------------------------------

    def begin_op(self, index: int) -> None:
        self.op = index
        for seen in self._seen.values():
            seen.clear()

    # -- wrappers -----------------------------------------------------------

    def _hook(self, label):
        """Bookkeeping run before a span starts, or None."""
        if label in self._seen:
            seen = self._seen[label]
            key_of = _map_key if label == "atlas.invert_map" else _atlas_key

            def note_repeat(args):
                key = key_of(args[0])
                if key in seen:
                    self.repeats[label] += 1
                seen.add(key)

            return note_repeat
        if label.startswith("selfcheck.check_"):

            def note_cases(args):
                self.cases += args[1]

            return note_cases
        return None

    def _span_wrapper(self, fn, label, layer):
        tr = self
        hook = self._hook(label)
        is_h1 = label == "cech.h1_tangent"

        def traced(*args, **kwargs):
            stack = tr._stack
            parent = stack[-1]
            if hook is not None:
                h0 = perf_counter()
                hook(args)
                parent[0] += perf_counter() - h0  # bookkeeping is nobody's self time
            span_id = tr._next_id
            tr._next_id += 1
            frame = [0.0, layer, span_id, label]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except ValueError:
                if parent[1] != layer:
                    tr.errors[layer] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                parent[0] += dt
                own = dt - frame[0]
                tr.self_s[layer] += own
                if is_h1:
                    tr.h1_self_s += own
                tr.calls[label] = tr.calls.get(label, 0) + 1
                tr.spans.append((span_id, label, t0, t1, parent[2], tr.op))

        traced.__wrapped__ = fn
        return traced

    def _hot_wrapper(self, fn, label):
        tr = self
        is_mul = label in MUL

        def traced(a, *rest):
            stack = tr._stack
            parent = stack[-1]
            if is_mul:
                b = rest[0]
                nb = len(b.terms) if hasattr(b, "terms") else (1 if b else 0)
                tr.term_pairs += len(a.terms) * nb
            frame = [0.0, "superalg", parent[2], label]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(a, *rest)
            except ValueError:
                if parent[1] != "superalg":
                    tr.errors["superalg"] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent[0] += dt
                tr.self_s["superalg"] += dt - frame[0]
                key = (tr.op, label, parent[3])
                agg = tr.hot.get(key)
                if agg is None:
                    tr.hot[key] = [1, dt]
                else:
                    agg[0] += 1
                    agg[1] += dt

        traced.__wrapped__ = fn
        return traced

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        import supergeo
        from supergeo import superalg

        modules = [importlib.import_module(f"supergeo.{layer}") for layer in LAYERS]
        layer_of = {f"supergeo.{layer}": layer for layer in LAYERS}
        wrappers: dict[int, object] = {}

        def wrapper_for(fn):
            if id(fn) not in wrappers:
                layer = layer_of[fn.__module__]
                wrappers[id(fn)] = self._span_wrapper(fn, f"{layer}.{fn.__name__}", layer)
            return wrappers[id(fn)]

        def public(name, value):
            return (
                inspect.isfunction(value)
                and not name.startswith(("_", "<"))
                and not value.__name__.startswith(("_", "<"))
                and value.__module__ in layer_of
            )

        for module in (supergeo, *modules):
            for name, value in list(vars(module).items()):
                if public(name, value):
                    self._undo.append((setattr, module, name, value))
                    setattr(module, name, wrapper_for(value))
                elif isinstance(value, dict) and not name.startswith("__"):
                    for key, entry in list(value.items()):
                        if isinstance(key, str) and public(key, entry):
                            self._undo.append((dict.__setitem__, value, key, entry))
                            value[key] = wrapper_for(entry)

        cls = superalg.SuperElem
        for name in HOT_OPERATORS:
            original = cls.__dict__[name]
            self._undo.append((setattr, cls, name, original))
            setattr(cls, name, self._hot_wrapper(original, f"superalg.SuperElem.{name}"))

        new = Fraction.__dict__["__new__"]
        inner = new.__func__

        def counting_new(cls_, *args, **kwargs):
            self.fraction_new += 1
            return inner(cls_, *args, **kwargs)

        self._undo.append((setattr, Fraction, "__new__", new))
        Fraction.__new__ = staticmethod(counting_new)

    def uninstall(self) -> None:
        while self._undo:
            put, target, name, value = self._undo.pop()
            put(target, name, value)

    # -- results ------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Deterministic work counters of the pass (no times)."""
        calls = dict(self.calls)
        pow_muls = 0
        for (_op, label, parent), (n, _t) in self.hot.items():
            calls[label] = calls.get(label, 0) + n
            if label in MUL and parent == POW:
                pow_muls += n
        c = lambda *labels: sum(calls.get(label, 0) for label in labels)
        return {
            **{f"{layer}.errors": self.errors[layer] for layer in LAYERS},
            "superalg.mul.calls": c(*MUL),
            "superalg.mul.term_pairs": self.term_pairs,
            "fraction_new.calls": self.fraction_new,
            "superalg.pow.calls": c(POW),
            "superalg.pow.mul_calls": pow_muls,
            "superalg.add.calls": c(*ADD),
            "superalg.invert_unit.calls": c("superalg.invert_unit"),
            "superalg.substitute.calls": c("superalg.substitute"),
            "superalg.parse.calls": c("superalg.parse"),
            "superalg.format.calls": c("superalg.format_elem"),
            "supermat.matmul.calls": c("supermat.matmul"),
            "supermat.berezinian.calls": c("supermat.berezinian"),
            "supermat.inverse.calls": c("supermat.inverse"),
            "supermat.det_even.calls": c("supermat.det_even"),
            "atlas.compose.calls": c("atlas.compose"),
            "atlas.jacobian.calls": c("atlas.jacobian"),
            "atlas.check_cocycle_loop.calls": c("atlas.check_cocycle_loop"),
            "atlas.invert_map.calls": c("atlas.invert_map"),
            "families.build.calls": c(*(f"families.{b}" for b in BUILDERS)),
            "families.frame_signs.calls": c("families.frame_signs"),
            "cech.connecting.calls": c(*(f"cech.{f}" for f in CONNECTING)),
            "cech.h1_tangent.calls": c("cech.h1_tangent"),
            "selfcheck.cases": self.cases,
            "cli.run.calls": c("cli.run"),
        }

    def shares(self) -> dict[str, float]:
        calls = self.counts()
        out = {}
        for label in self.repeats:
            n = calls[f"{label}.calls"]
            out[f"{label}.repeat_share"] = self.repeats[label] / n if n else 0.0
        return out

    def times(self) -> dict[str, float]:
        return {
            **{f"{layer}.self_s": self.self_s[layer] for layer in LAYERS},
            "cech.h1_tangent.self_s": self.h1_self_s,
        }

    def write(self, path: str, meta: dict) -> None:
        """Write the pass's spans and aggregates (times in microseconds)."""
        t_base = min((s[2] for s in self.spans), default=0.0)
        us = lambda t: round((t - t_base) * 1e6, 1)
        doc = {
            **meta,
            "span_fields": ["id", "label", "start_us", "end_us", "parent_id", "op"],
            "spans": [[i, label, us(t0), us(t1), parent, op] for i, label, t0, t1, parent, op in self.spans],
            "aggregate_fields": ["op", "label", "parent_label", "calls", "total_s"],
            "aggregates": [[op, label, parent, n, t] for (op, label, parent), (n, t) in sorted(self.hot.items())],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
