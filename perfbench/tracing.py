"""Span tracing of sumrank's public entry points, installed from outside.

``Tracer.install()`` replaces each function in ``TRACED`` with a wrapper
that records a span (name, start, end, parent span, op id) and adds the
call to per-function counts and self times.  Self time is a span's duration
minus the time covered by its traced children.  Every module-level copy of
a function is patched: a name imported into another module (for example
``cli.field_from_order`` or ``metric.sphere_volume``) is found by identity
in every loaded ``sumrank`` module.  Wrappers around ``lru_cache``
functions keep ``cache_info()`` and ``cache_clear()`` reachable.

Spans are kept in memory, up to ``SPAN_CAP`` of them, and written out by
``write_spans`` after the run; counts and self times cover every call.
Nothing here touches stdout, so a traced op prints the same bytes.
"""

import functools
import math
import sys
import time

# "<module>.<qualname>" of every traced function, in report order.
TRACED = (
    "galois.field_from_order",
    "linalg._rank_rows",
    "linalg.sample_full_rank",
    "linalg.sample_subspace",
    "linalg.mat_mul",
    "linalg.Subspace.span",
    "linalg.Subspace.intersect",
    "counting.sphere_volume",
    "counting.ball_volume",
    "counting.decomposable_count",
    "counting.gaussian_binomial",
    "counting.logq_int",
    "counting.sphere_bounds_logq",
    "counting.ball_bounds_logq",
    "counting.decomposable_bounds_logq",
    "metric.sample_ball_uniform",
    "metric.sample_uniform_matrix_of_rank",
    "metric.BlockTuple.__init__",
    "metric.BlockTuple.add",
    "metric.BlockTuple.weight",
    "metric.tuple_code",
    "metric.tuple_from_code",
    "metric.weight_histogram",
    "decomposable.sample_decomposable_uniform",
    "decomposable.DecomposableSubspace.intersect",
    "codes.correlation_estimate",
    "codes.limited_correlation_estimate",
    "codes.subset_span_event_estimate",
    "codes.span_ball_count",
    "codes.sample_linear_code",
    "codes.Code.codewords",
    "codes.max_list_size",
    "chains.random_chain_instance",
    "chains.best_shift_chain",
    "chains.max_chain_exact",
    "chains.bound_attainment_report",
    "montecarlo.RandomStream.child",
    "cli.main",
    "cli.emit",
)

# Layer counters reported next to the per-function calls and self times.
DERIVED = (
    ("galois.redundant_builds", "count", "lower"),
    ("linalg.sample_full_rank.accept_ratio", "ratio", "higher"),
    ("linalg.sample_full_rank.accept_expected", "ratio", "higher"),
    ("linalg.sample_full_rank.accept_wilson_low", "ratio", "higher"),
    ("linalg.sample_full_rank.accept_wilson_high", "ratio", "higher"),
    ("linalg.sample_full_rank.accept_flag", "flag", "lower"),
    ("counting.compositions_yielded", "count", "lower"),
    ("counting.cache_entries", "count", "lower"),
    ("counting.cache_hit_ratio", "ratio", "higher"),
    ("chains.exact_fallback_ratio", "ratio", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
)

# The lru_cache tables of counting, read through their public cache_info().
COUNTING_CACHES = ("sphere_volume", "ball_volume", "decomposable_count",
                   "_logq_euler_product")

# Spans kept in memory per traced run; counts and self times cover every
# call regardless.
SPAN_CAP = 100_000

# Two-sided 99.9% normal quantile: a correct sampler is flagged about once
# in a thousand traced runs.
WILSON_Z = 3.2905


def per_layer_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in TRACED:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out.extend(DERIVED)
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


def wilson(successes, trials, z=WILSON_Z):
    """Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    denom = 1 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials
                         + z * z / (4 * trials * trials)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def full_rank_probability(q, nrows, ncols):
    """P(uniform nrows x ncols matrix over F_q has full rank):
    prod_{i<k} (1 - q^(i-n)) with k = min and n = max of the sides."""
    k, n = min(nrows, ncols), max(nrows, ncols)
    p = 1.0
    for i in range(k):
        p *= 1.0 - float(q) ** (i - n)
    return p


class Tracer:
    """Per-process span recorder; one per traced run."""

    def __init__(self):
        self.op = -1
        self.calls = dict.fromkeys(TRACED, 0)
        self.self_s = dict.fromkeys(TRACED, 0.0)
        self.spans = []
        self.span_count = 0
        self._stack = []  # [span id, name, child seconds]
        self._undo = []
        self.field_builds = set()
        self.full_rank_samples = 0
        self.full_rank_evals = 0
        self.full_rank_inverse_p = 0.0
        self.compositions = 0
        self.reports = 0
        self.fallbacks = 0
        self.output_bytes = 0

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        spans, clock = self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.span_count
            self.span_count = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((sid, name, start, end,
                                  -1 if parent is None else parent[0],
                                  self.op))
            if after is not None:
                after(parent, args, kwargs, result)
            return result

        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _count_yields(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.compositions += 1
                yield item
        return wrapper

    def _replace_everywhere(self, orig, new):
        """Point every sumrank module global that is `orig` at `new`."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "sumrank"
                                   or modname.startswith("sumrank.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, orig))

    def _patch(self, dotted, after=None):
        modname, *path = dotted.split(".")
        mod = sys.modules[f"sumrank.{modname}"]
        if len(path) == 1:
            orig = getattr(mod, path[0])
            self._replace_everywhere(orig, self._wrap(dotted, orig, after))
            return
        cls_name, attr = path
        cls = getattr(mod, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self._wrap(dotted, raw.__func__, after))
        else:
            new = self._wrap(dotted, raw, after)
        setattr(cls, attr, new)
        self._undo.append((cls, attr, raw))

    # -- per-call hooks ----------------------------------------------------

    def _after_field(self, parent, args, kwargs, result):
        modulus = kwargs.get("modulus", args[1] if len(args) > 1 else None)
        self.field_builds.add((args[0], None if modulus is None
                               else tuple(modulus)))

    def _after_rank(self, parent, args, kwargs, result):
        if parent is not None and parent[1] == "linalg.sample_full_rank":
            self.full_rank_evals += 1

    def _after_full_rank(self, parent, args, kwargs, result):
        field, nrows, ncols = args[:3]
        self.full_rank_samples += 1
        self.full_rank_inverse_p += 1.0 / full_rank_probability(
            field.q, nrows, ncols)

    def _after_report(self, parent, args, kwargs, result):
        self.reports += 1
        self.fallbacks += bool(result.exact_used)

    def _after_emit(self, parent, args, kwargs, result):
        self.output_bytes += len(result.encode("utf-8"))

    # -- lifecycle ---------------------------------------------------------

    def install(self):
        import sumrank.cli  # noqa: F401  loads every traced module
        hooks = {
            "galois.field_from_order": self._after_field,
            "linalg._rank_rows": self._after_rank,
            "linalg.sample_full_rank": self._after_full_rank,
            "chains.bound_attainment_report": self._after_report,
            "cli.emit": self._after_emit,
        }
        for dotted in TRACED:
            self._patch(dotted, hooks.get(dotted))
        counting = sys.modules["sumrank.counting"]
        gen = counting.bounded_compositions
        self._replace_everywhere(gen, self._count_yields(gen))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def summary(self):
        """Per-layer metric values (all but trace.overhead_ratio)."""
        out = {}
        for name in TRACED:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        builds = self.calls["galois.field_from_order"]
        out["galois.redundant_builds"] = builds - len(self.field_builds)
        samples, evals = self.full_rank_samples, self.full_rank_evals
        ratio = samples / evals if evals else 0.0
        expected = (samples / self.full_rank_inverse_p
                    if self.full_rank_inverse_p else 0.0)
        low, high = wilson(samples, evals)
        out["linalg.sample_full_rank.accept_ratio"] = ratio
        out["linalg.sample_full_rank.accept_expected"] = expected
        out["linalg.sample_full_rank.accept_wilson_low"] = low
        out["linalg.sample_full_rank.accept_wilson_high"] = high
        out["linalg.sample_full_rank.accept_flag"] = int(
            evals > 0 and not low <= expected <= high)
        out["counting.compositions_yielded"] = self.compositions
        counting = sys.modules["sumrank.counting"]
        infos = [getattr(counting, fn).cache_info() for fn in COUNTING_CACHES]
        hits = sum(i.hits for i in infos)
        lookups = hits + sum(i.misses for i in infos)
        out["counting.cache_entries"] = sum(i.currsize for i in infos)
        out["counting.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        out["chains.exact_fallback_ratio"] = (self.fallbacks / self.reports
                                              if self.reports else 0.0)
        out["cli.output_bytes"] = self.output_bytes
        return out

    def write_spans(self, path):
        """Write kept spans as CSV: span,name,start,end,parent,op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# spans kept {len(self.spans)} of {self.span_count}\n")
            fh.write("span,name,start,end,parent,op\n")
            for sid, name, start, end, parent, op in self.spans:
                fh.write(f"{sid},{name},{start:.9f},{end:.9f},{parent},{op}\n")
