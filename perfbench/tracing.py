"""Span tracing of legoverlap from outside the library.

The tracer replaces public functions and methods of the legoverlap modules
with wrappers that record a span (operation id, parent span, name, start,
end) per call, and puts every original back when the traced run ends.
Nothing under ``src/`` changes: a module attribute is rebound wherever it
still holds the original object, so calls made through module globals
(``oracle`` calling ``legendre``, ``cli`` calling ``build_gram_matrix``)
are traced as well.
"""

from __future__ import annotations

import sys
import time

# (module, attribute or "Class.method", span name).  The span name's
# prefix up to the first dot is the layer that owns the span's self time.
TRACED = (
    ("legoverlap.legendre", "legendre", "legendre.legendre"),
    ("legoverlap.legendre", "Polynomial.__mul__", "legendre.poly_mul"),
    ("legoverlap.legendre", "Polynomial.__rmul__", "legendre.poly_mul"),
    ("legoverlap.legendre", "Polynomial.differentiate", "legendre.differentiate"),
    ("legoverlap.oracle", "overlap_oracle", "oracle.overlap_oracle"),
    ("legoverlap.oracle", "integrate_over_interval", "oracle.integrate"),
    ("legoverlap.boundary", "boundary_factorial", "boundary.factorial"),
    ("legoverlap.boundary", "boundary_recurrence", "boundary.recurrence"),
    ("legoverlap.boundary", "boundary_genfunc", "boundary.genfunc"),
    ("legoverlap.overlap", "overlap_general", "overlap.overlap_general"),
    ("legoverlap.gram", "build_gram_matrix", "gram.assemble"),
    ("legoverlap.gram", "GramMatrix.to_json", "gram.to_json"),
    ("legoverlap.gram", "GramMatrix.from_json", "gram.from_json"),
    ("legoverlap.gram", "GramMatrix.to_csv", "gram.to_csv"),
    ("legoverlap.quadrature", "gauss_legendre_rule", "quadrature.rule"),
    ("legoverlap.quadrature", "overlap_quadrature", "quadrature.overlap_quadrature"),
    ("legoverlap.cli", "main", "cli.main"),
)

LAYERS = ("legendre", "oracle", "boundary", "overlap", "gram", "quadrature", "cli")


def package_modules() -> list:
    """Every imported legoverlap module, the package itself first."""
    return [module for name, module in sorted(sys.modules.items()) if name == "legoverlap" or name.startswith("legoverlap.")]


class Tracer:
    """Records spans in memory while installed; see ``install``/``remove``.

    ``spans[i]`` is ``(op_id, parent, name, start_ns, end_ns)`` with
    ``parent`` the index of the enclosing span or -1.  ``op_id`` is set by
    the caller before each benchmark operation.  Calls to span names in
    ``record`` also keep ``(args, result)`` so the benchmark can count what
    the layer computed without timing it.
    """

    def __init__(self, record: tuple[str, ...] = ()):
        self.spans: list = []
        self.stack: list[int] = []
        self.op_id = -1
        self.record = {name: [] for name in record}
        self._patches: list = []  # (owner, attribute, original) in install order

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        calls = self.record.get(name)
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (tracer.op_id, parent, name, start, end)
            if calls is not None:
                calls.append((args, result))
            return result

        traced.__wrapped__ = fn
        traced.__traced__ = name
        return traced

    def install(self) -> None:
        modules = package_modules()
        for module_name, attr, span in TRACED:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(span, raw.__func__))
                else:
                    wrapped = self._wrap(span, raw)
                self._patches.append((cls, method, raw))
                setattr(cls, method, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        for calls in self.record.values():
            calls.clear()


def leftover_wrappers() -> list[str]:
    """Names of traced wrappers still reachable from any legoverlap module."""
    left = []
    for mod in package_modules():
        for key, value in vars(mod).items():
            if getattr(value, "__traced__", None):
                left.append(f"{mod.__name__}.{key}")
            if isinstance(value, type):
                for attr, raw in vars(value).items():
                    fn = raw.__func__ if isinstance(raw, classmethod) else raw
                    if getattr(fn, "__traced__", None):
                        left.append(f"{mod.__name__}.{key}.{attr}")
    return sorted(set(left))


def span_times(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: call count, total duration and self time in seconds.

    Self time is a span's duration minus that of its direct children; spans
    nest strictly because the benchmark runs on one thread.
    """
    child = [0] * len(spans)
    for op_id, parent, name, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for (op_id, parent, name, start, end), inner in zip(spans, child):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += (end - start) / 1e9
        entry["self_s"] += (end - start - inner) / 1e9
    return out


def layer_self_times(by_name: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self time summed over every span name of each layer."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, entry in by_name.items():
        out[name.split(".")[0]] += entry["self_s"]
    return out
