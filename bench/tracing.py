"""Per-layer spans for gme_lab, recorded from outside the program.

The tracer wraps every public function of the six gme_lab modules, plus
``DensityMatrix.__post_init__`` (construction-time validation) and
``numpy.linalg.eigvalsh``.  A wrapper replaces the original in every gme_lab
module namespace that holds it, so ``cli.product_form_to_dense`` and
``separability.xform_to_dense`` are traced as ``states`` spans.  Nothing in
the program's source changes.

Spans are aggregated in memory as they close: per function key the number
of calls, self time (duration minus the time covered by child spans) and
total time; per layer the self time and the exceptions that escaped.  Each op
is a root span whose self time is the ``unattributed`` share, so layer self
times plus ``unattributed`` add up to the traced op time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

LAYERS = ("linalg", "states", "gme", "separability", "boundent", "cli")


class _Stat:
    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


class Tracer:
    """Collects spans of traced ops; install wrappers only around an op."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.layer_errors = dict.fromkeys(LAYERS, 0)
        self.ops = 0
        self.op_s = 0.0
        self.unattributed_s = 0.0
        self.dense_bytes = 0     # computed as d*d*16 per DensityMatrix built
        self.max_dim = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self._stack: list[list] = []    # [start, child_s] per open span
        self._modules = [importlib.import_module(f"gme_lab.{m}") for m in LAYERS]
        self._keys: list[str] = []
        self._wrappers = self._build_wrappers()
        sep = importlib.import_module("gme_lab.separability")
        # Read before any wrapping: the wrappers do not carry cache_info.
        self._caches = [obj for name, obj in vars(sep).items()
                        if not name.startswith("_") and hasattr(obj, "cache_info")]

    # -- spans --------------------------------------------------------------

    def _close(self, key: str, layer: str, failed: bool) -> None:
        start, child = self._stack.pop()
        dur = perf_counter() - start
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = _Stat()
        st.calls += 1
        st.self_s += dur - child
        st.total_s += dur
        self.layer_self[layer] += dur - child
        if failed:
            self.layer_errors[layer] += 1
        self._stack[-1][1] += dur

    def _wrap(self, fn, key: str, layer: str, after=None):
        stack = self._stack
        self._keys.append(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append([perf_counter(), 0.0])
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(key, layer, True)
                raise
            if after is not None:
                after(args)
            self._close(key, layer, False)
            return out
        return wrapper

    def _count_dense(self, args) -> None:
        d = args[0].mat.shape[0]
        self.dense_bytes += d * d * 16
        self.max_dim = max(self.max_dim, d)

    def _build_wrappers(self) -> list[tuple[object, str, object, object]]:
        """(namespace, attribute, original, wrapper) for every patch site."""
        import numpy

        wrapped: dict[int, tuple[object, object]] = {}
        for layer, mod in zip(LAYERS, self._modules):
            for name, obj in vars(mod).items():
                if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrapped[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}", layer))
        sites = []
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "gme_lab" or n.startswith("gme_lab.")]
        for ns in namespaces:
            for name, obj in vars(ns).items():
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    sites.append((ns, name, obj, hit[1]))
        dm = importlib.import_module("gme_lab.linalg").DensityMatrix
        post = dm.__dict__["__post_init__"]
        sites.append((dm, "__post_init__", post,
                      self._wrap(post, "linalg.DensityMatrix", "linalg",
                                 after=self._count_dense)))
        eig = numpy.linalg.eigvalsh
        sites.append((numpy.linalg, "eigvalsh", eig,
                      self._wrap(eig, "linalg.eigvalsh", "linalg")))
        return sites

    # -- one traced op ------------------------------------------------------

    def begin_op(self) -> None:
        """Install the wrappers and open the op's root span."""
        self._hits0 = sum(c.cache_info().hits for c in self._caches)
        self._misses0 = sum(c.cache_info().misses for c in self._caches)
        for ns, name, _, wrapper in self._wrappers:
            setattr(ns, name, wrapper)
        self._stack.append([perf_counter(), 0.0])

    def end_op(self) -> float:
        """Close the root span, restore the originals; return the op time."""
        start, child = self._stack.pop()
        dur = perf_counter() - start
        for ns, name, original, _ in self._wrappers:
            setattr(ns, name, original)
        if self._stack:
            raise RuntimeError("a span was left open")
        self.ops += 1
        self.op_s += dur
        self.unattributed_s += dur - child
        self.cache_hits += sum(c.cache_info().hits for c in self._caches) - self._hits0
        self.cache_misses += (sum(c.cache_info().misses for c in self._caches)
                              - self._misses0)
        return dur

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-op means over the traced ops, for every layer and wrapped key.

        Keys never called read 0, so every name is present on every workload.
        """
        n = max(self.ops, 1)
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = sum(
                st.calls for k, st in self.stats.items()
                if k.split(".", 1)[0] == layer) / n
            out[f"{layer}.self_s"] = self.layer_self[layer] / n
            out[f"{layer}.errors"] = self.layer_errors[layer]
        for key in self._keys:
            st = self.stats.get(key) or _Stat()
            out[f"{key}.calls"] = st.calls / n
            out[f"{key}.self_s"] = st.self_s / n
            out[f"{key}.s"] = st.total_s / n
        out["unattributed_s"] = self.unattributed_s / n
        out["traced_op_s"] = self.op_s / n
        out["linalg.dense_bytes"] = self.dense_bytes / n
        out["linalg.max_dim"] = self.max_dim
        lookups = self.cache_hits + self.cache_misses
        out["separability.cache_hit_ratio"] = self.cache_hits / lookups if lookups else 0.0
        return out
