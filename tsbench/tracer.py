"""Spans around calls into tscode's layers, and the per-layer metrics.

A span is (id, parent, name, start, end, group, attrs). Spans are kept in
memory and written once, when the run ends. The benchmark opens spans at its
own call sites, or installs wrappers over a layer's public functions for the
calls one layer makes into another; nothing inside tscode is modified on
disk, and every wrapper is removed again after the traced round.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


class Tracer:
    def __init__(self):
        self.spans = []
        self.group = None
        self.quiet = False
        self._stack = []
        self._undo = []

    @contextmanager
    def span(self, name, opaque=False):
        """Record one span; an opaque span records no spans inside it, so
        its self time is its whole duration."""
        if self.quiet:
            yield None
            return
        rec = [len(self.spans), self._stack[-1] if self._stack else None,
               name, 0.0, 0.0, self.group, {}]
        self.spans.append(rec)
        self._stack.append(rec[0])
        self.quiet = opaque
        rec[3] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[4] = time.perf_counter()
            self.quiet = False
            self._stack.pop()

    def add(self, name, start, end):
        self.spans.append([len(self.spans), None, name, start, end, self.group, {}])

    def merge(self, spans, parent):
        """Adopt spans recorded by a child process under the span `parent`."""
        offset = len(self.spans)
        for sid, par, name, start, end, _, attrs in spans:
            self.spans.append([sid + offset, parent if par is None else par + offset,
                               name, start, end, self.group, attrs])

    # -- wrappers over public functions --------------------------------------

    def _wrap(self, fn, name, attrs_of):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.quiet:
                return fn(*args, **kwargs)
            rss0 = rss_bytes() if attrs_of else 0
            with tracer.span(name) as rec:
                result = fn(*args, **kwargs)
            if attrs_of:
                rec[6].update(attrs_of(args, result, rss_bytes() - rss0))
            return result

        return traced

    def patch_function(self, module, attr, name, attrs_of=None):
        """Wrap module.attr wherever a loaded tscode module binds it."""
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, attrs_of)
        for modname, mod in list(sys.modules.items()):
            if modname == "tscode" or modname.startswith("tscode."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def patch_method(self, cls, attr, name, attrs_of=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(original, name, attrs_of))
        self._undo.append((cls, attr, original))

    def unpatch(self):
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


# -- what gets wrapped --------------------------------------------------------

def _index_attrs(args, index, rss_delta):
    from tscode.typeclass import TypeIndex
    comps = sum(len(c.members) for c in index.classes) if isinstance(index, TypeIndex) else 0
    return {"classes": len(index.classes), "compositions": comps,
            "rss_mb": rss_delta / 2 ** 20}


def _ordering_attrs(args, result, rss_delta):
    ordering = args[0]
    return {"max_class_bits": max(c.size for c in ordering.classes).bit_length()}


def install_layer_wrappers(tracer, first_encode_is_warmup=False):
    """Wrap the layer entry points tscode's own modules call into.

    In a CLI process every encode runs on a freshly built ordering, so it is
    the warm-up that fills the lazy counts-to-class table.
    """
    from tscode import codec, container, markov, pointtypes, quantized, rates, specfile

    tracer.patch_function(quantized, "build_type_index", "quantized.build_type_index", _index_attrs)
    tracer.patch_function(pointtypes, "point_type_index", "pointtypes.point_type_index", _index_attrs)
    tracer.patch_function(markov, "markov_type_index", "markov.markov_type_index", _index_attrs)
    tracer.patch_method(codec.ClassOrdering, "__init__", "codec.ClassOrdering", _ordering_attrs)
    tracer.patch_method(codec.ClassOrdering, "encode",
                        "codec.warmup" if first_encode_is_warmup else "codec.encode")
    tracer.patch_method(codec.ClassOrdering, "decode", "codec.decode")
    tracer.patch_function(container, "pack", "container.pack")
    tracer.patch_function(container, "unpack", "container.unpack")
    tracer.patch_function(specfile, "parse_spec_file", "specfile.parse_spec_file")
    tracer.patch_function(rates, "class_masses", "rates.class_masses")
    tracer.patch_function(rates, "m_eps", "rates.m_eps")
    tracer.patch_function(markov, "markov_m_eps", "markov.markov_m_eps")
    tracer.patch_function(rates, "ml_approx_check", "rates.ml_approx_check")
    tracer.patch_function(rates, "max_sandwich_deviation", "rates.max_sandwich_deviation")
    tracer.patch_function(rates, "normality_check", "rates.normality_check")


# -- per-layer metrics ----------------------------------------------------------

# (metric, unit, span name, how, scale to the unit): "total" is the self
# time summed over one set-up repetition or one round, median over those
# groups; "p50" is the median self time of one call.
TIMED = [
    ("quantized.build_type_index_s", "s", "quantized.build_type_index", "total", 1.0),
    ("pointtypes.point_type_index_s", "s", "pointtypes.point_type_index", "total", 1.0),
    ("markov.markov_type_index_s", "s", "markov.markov_type_index", "total", 1.0),
    ("codec.ClassOrdering_s", "s", "codec.ClassOrdering", "total", 1.0),
    ("codec.warmup_ms", "ms", "codec.warmup", "total", 1e3),
    ("codec.encode_ms_p50", "ms", "codec.encode", "p50", 1e3),
    ("codec.decode_ms_p50", "ms", "codec.decode", "p50", 1e3),
    ("container.pack_ms_p50", "ms", "container.pack", "p50", 1e3),
    ("container.unpack_ms_p50", "ms", "container.unpack", "p50", 1e3),
    ("cli.import_s", "s", "cli.import", "p50", 1.0),
    ("specfile.parse_spec_file_ms", "ms", "specfile.parse_spec_file", "p50", 1e3),
    ("cli.encode_call_s_p50", "s", "cli.encode_call", "p50", 1.0),
    ("cli.decode_call_s_p50", "s", "cli.decode_call", "p50", 1.0),
    ("cli.rate_call_s", "s", "cli.rate_call", "p50", 1.0),
    ("rates.class_masses_s", "s", "rates.class_masses", "total", 1.0),
    ("rates.m_eps_s", "s", "rates.m_eps", "total", 1.0),
    ("markov.markov_m_eps_s", "s", "markov.markov_m_eps", "total", 1.0),
    ("rates.ml_approx_check_s", "s", "rates.ml_approx_check", "total", 1.0),
    ("rates.max_sandwich_deviation_s", "s", "rates.max_sandwich_deviation", "total", 1.0),
    ("rates.normality_check_s", "s", "rates.normality_check", "total", 1.0),
    ("family.mle_ms_p50", "ms", "family.mle", "p50", 1e3),
]
INDEX_SPANS = ("quantized.build_type_index", "pointtypes.point_type_index",
               "markov.markov_type_index")


def _median_or_zero(values):
    return statistics.median(values) if values else 0.0


def per_layer(spans, overhead_pct):
    """Every per-layer metric; a layer the workload never calls reads 0."""
    child_time = {}
    for sid, parent, name, start, end, group, attrs in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    per_group = {}
    calls = {}
    for sid, parent, name, start, end, group, attrs in spans:
        own = (end - start) - child_time.get(sid, 0.0)
        calls.setdefault(name, []).append(own)
        bucket = per_group.setdefault(name, {})
        bucket[group] = bucket.get(group, 0.0) + own
    out = {}
    for metric, unit, name, how, scale in TIMED:
        if how == "total":
            value = _median_or_zero(list(per_group.get(name, {}).values()))
        else:
            value = _median_or_zero(calls.get(name, []))
        out[metric] = (value * scale, unit)

    index_spans = [s for s in spans if s[2] in INDEX_SPANS]
    by_group = {}
    for s in index_spans:
        counts = by_group.setdefault(s[5], [0, 0])
        counts[0] += s[6]["compositions"]
        counts[1] += s[6]["classes"]
    out["typeclass.compositions"] = (
        _median_or_zero([c[0] for c in by_group.values()]), "count")
    out["typeclass.classes"] = (_median_or_zero([c[1] for c in by_group.values()]), "count")
    out["quantized.build_type_index_rss_mb"] = (
        max([s[6]["rss_mb"] for s in index_spans if s[2] == "quantized.build_type_index"],
            default=0.0), "MB")
    out["codec.max_class_bits"] = (
        max([s[6]["max_class_bits"] for s in spans if s[2] == "codec.ClassOrdering"],
            default=0), "bits")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out
