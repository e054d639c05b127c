"""Per-layer tracing for the benchmark, installed from outside the package.

Every traced function is replaced by a wrapper that records one span
(name, parent span, start, end) in memory; nothing inside ``src/`` is edited.
A name is rebound on every ``wreathchar`` module that holds the same function
object, because ``stats``, ``weyl_d``, ``wreath_chars`` and ``cli`` import
several of them by name, and a call through an unpatched binding would go
unseen.  Names that a refactor removes are reported as absent, never as an
error.

The per-layer metrics are derived from the spans of one invocation.  A
layer's self time is its spans' duration minus the time covered by their
child spans; the metrics in ``TIME_PARTITION`` cover every traced second
exactly once, which the self-test checks.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute[, class]) of every traced callable
FUNCTIONS = (
    ("partitions.unrank", "wreathchar.partitions", "unrank_multipartition"),
    ("partitions.count", "wreathchar.partitions", "count_multipartitions"),
    ("wreath_chars.character_column", "wreathchar.wreath_chars", "character_column"),
    ("wreath_chars.character_table", "wreathchar.wreath_chars", "character_table"),
    ("wreath_chars.mn_character", "wreathchar.wreath_chars", "mn_character"),
    ("congruence.mash_canonical", "wreathchar.congruence", "mash_canonical"),
    ("congruence.zero_certificate", "wreathchar.congruence", "zero_certificate"),
    ("stats.exact_census", "wreathchar.stats", "exact_census"),
    ("stats.sampled_census", "wreathchar.stats", "sampled_census"),
    ("stats.certificate_census", "wreathchar.stats", "certificate_census"),
    ("weyl_d.dn_restricted_census", "wreathchar.weyl_d", "dn_restricted_census"),
    ("cli.main", "wreathchar.cli", "main"),
)
METHODS = (
    ("stats.stream.below", "wreathchar.stats", "CounterStream", "below"),
    ("stats.stream.take", "wreathchar.stats", "CounterStream", "take"),
    ("cli.write_csv", "wreathchar.wreath_chars", "CharTable", "write_csv"),
)
# spans whose truthy results are counted (certificates that fired)
OUTCOMES = ("congruence.zero_certificate",)
STREAM = ("stats.stream.below", "stats.stream.take")
CENSUS = ("stats.exact_census", "stats.sampled_census", "stats.certificate_census")
EMIT = ("cli.write_csv", "cli.json_dumps", "cli.stdout_write")

# name, unit, better: the per-layer metrics of a traced run, in report order
PER_LAYER = (
    ("partitions.tables_s", "s", "lower"),
    ("partitions.tables_rss_mib", "MiB", "lower"),
    ("partitions.unrank.calls", "count", "lower"),
    ("partitions.unrank.self_s", "s", "lower"),
    ("partitions.count.calls", "count", "lower"),
    ("partitions.count.s", "s", "lower"),
    ("partitions.strip_removals.hits", "count", "higher"),
    ("partitions.strip_removals.misses", "count", "lower"),
    ("partitions.strip_removals.currsize", "count", "lower"),
    ("partitions.multipartitions_of.currsize", "count", "lower"),
    ("wreath_chars.character_column.calls", "count", "lower"),
    ("wreath_chars.character_column.self_s", "s", "lower"),
    ("wreath_chars.character_table.self_s", "s", "lower"),
    ("wreath_chars.mn_character.calls", "count", "lower"),
    ("wreath_chars.mn_character.self_s", "s", "lower"),
    ("wreath_chars.mn_character.p50_us", "us", "lower"),
    ("wreath_chars.mn_character.p999_us", "us", "lower"),
    ("congruence.mash_canonical.calls", "count", "lower"),
    ("congruence.mash_canonical.self_s", "s", "lower"),
    ("congruence.zero_certificate.calls", "count", "lower"),
    ("congruence.zero_certificate.self_s", "s", "lower"),
    ("congruence.certified_ratio", "ratio", "higher"),
    ("stats.stream.below.calls", "count", "lower"),
    ("stats.stream.take.calls", "count", "lower"),
    ("stats.stream.s", "s", "lower"),
    ("stats.stream.reject_ratio", "ratio", "lower"),
    ("stats.census.self_s", "s", "lower"),
    ("weyl_d.census.self_s", "s", "lower"),
    ("weyl_d.reject_ratio", "ratio", "lower"),
    ("cli.emit_s", "s", "lower"),
    ("cli.emit_bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# metrics that together account for the root span's duration exactly once
TIME_PARTITION = (
    "partitions.unrank.self_s",
    "partitions.count.s",
    "wreath_chars.character_column.self_s",
    "wreath_chars.character_table.self_s",
    "wreath_chars.mn_character.self_s",
    "congruence.mash_canonical.self_s",
    "congruence.zero_certificate.self_s",
    "stats.stream.s",
    "stats.census.self_s",
    "weyl_d.census.self_s",
    "cli.emit_s",
    "cli.self_s",
)


class Tracer:
    """In-memory span store; span ids are indices into ``spans``."""

    def __init__(self):
        self.spans: list = []  # (name, parent id or -1, start, end)
        self.fired: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, fired, clock = self.spans, self._stack, self.fired, time.perf_counter
        count_outcome = name in OUTCOMES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, parent, start, end)
            if count_outcome and result:
                fired[name] += 1
            return result

        for attr in ("cache_info", "cache_clear"):  # keep lru_cache introspection
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper


class _JsonProxy:
    """Stands in for ``cli.json`` so that only the report's ``dumps`` is traced."""

    def __init__(self, module, dumps):
        self._module = module
        self.dumps = dumps

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "wreathchar" or name.startswith("wreathchar."))]


def install(tracer: Tracer, capture) -> None:
    """Wrap every traced callable of the imported package and ``capture.write``."""
    modules = _package_modules()
    for name, module_name, attr in FUNCTIONS:
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            tracer.absent.append(name)
            continue
        wrapper = tracer.wrap(name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    for name, module_name, cls_name, attr in METHODS:
        cls = getattr(sys.modules.get(module_name), cls_name, None)
        original = None if cls is None else cls.__dict__.get(attr)
        if original is None:
            tracer.absent.append(name)
            continue
        setattr(cls, attr, tracer.wrap(name, original))
    cli = sys.modules.get("wreathchar.cli")
    json_module = getattr(cli, "json", None)
    if json_module is None:
        tracer.absent.append("cli.json_dumps")
    else:
        setattr(cli, "json", _JsonProxy(json_module, tracer.wrap("cli.json_dumps", json_module.dumps)))
    capture.write = tracer.wrap("cli.stdout_write", capture.write)


def layer_metrics(tracer: Tracer, samples: int) -> tuple[dict, list[float], list[str]]:
    """Per-layer metrics of one invocation, the mn_character latencies in
    microseconds, and the names of metrics whose source is absent.

    ``samples`` is the sample count of a sampled workload (0 otherwise); it is
    the base of ``weyl_d.reject_ratio``.
    """
    spans = tracer.spans
    calls: Counter = Counter()
    incl = defaultdict(float)  # inclusive seconds
    own = defaultdict(float)  # self seconds
    covered = [0.0] * len(spans)
    for name, parent, start, end in spans:
        calls[name] += 1
        incl[name] += end - start
        own[name] += end - start
        if parent >= 0:
            covered[parent] += end - start
    for sid, span in enumerate(spans):
        own[span[0]] -= covered[sid]

    def top_level(names):
        # inclusive time of spans in ``names`` not nested in another of them
        return sum((end - start for name, parent, start, end in spans
                    if name in names and (parent < 0 or spans[parent][0] not in names)), 0.0)

    dn_unranks = 0
    for name, parent, _, _ in spans:
        if name != "partitions.unrank":
            continue
        while parent >= 0 and spans[parent][0] != "weyl_d.dn_restricted_census":
            parent = spans[parent][1]
        dn_unranks += parent >= 0

    m, absent = {}, []

    def put(metric, sources, value):
        # a metric is absent when a span it is read from could not be wrapped
        if any(source in tracer.absent for source in sources):
            absent.append(metric)
        else:
            m[metric] = value

    for span in ("partitions.unrank", "wreath_chars.character_column", "wreath_chars.mn_character",
                 "congruence.mash_canonical", "congruence.zero_certificate"):
        put(f"{span}.calls", (span,), calls[span])
        put(f"{span}.self_s", (span,), own[span])
    put("partitions.count.calls", ("partitions.count",), calls["partitions.count"])
    put("partitions.count.s", ("partitions.count",), incl["partitions.count"])
    put("wreath_chars.character_table.self_s", ("wreath_chars.character_table",),
        own["wreath_chars.character_table"])
    certs = calls["congruence.zero_certificate"]
    put("congruence.certified_ratio", ("congruence.zero_certificate",),
        tracer.fired["congruence.zero_certificate"] / certs if certs else 0.0)
    below, take = calls["stats.stream.below"], calls["stats.stream.take"]
    put("stats.stream.below.calls", STREAM, below)
    put("stats.stream.take.calls", STREAM, take)
    put("stats.stream.s", STREAM, top_level(STREAM))
    put("stats.stream.reject_ratio", STREAM, take / below if below else 0.0)
    # the census self time stays meaningful while one census function is traced
    put("stats.census.self_s", CENSUS if all(c in tracer.absent for c in CENSUS) else (),
        sum((own[c] for c in CENSUS), 0.0))
    put("weyl_d.census.self_s", ("weyl_d.dn_restricted_census",), own["weyl_d.dn_restricted_census"])
    put("weyl_d.reject_ratio", ("weyl_d.dn_restricted_census", "partitions.unrank"),
        dn_unranks / (2 * samples) if samples else 0.0)
    put("cli.emit_s", EMIT, top_level(EMIT))
    put("cli.self_s", ("cli.main",), own["cli.main"])
    for prefix, attr, fields in (
        ("partitions.strip_removals", "_strip_removals", ("hits", "misses", "currsize")),
        ("partitions.multipartitions_of", "multipartitions_of", ("currsize",)),
    ):
        fn = getattr(sys.modules.get("wreathchar.partitions"), attr, None)
        info = getattr(fn, "cache_info", None)
        for field in fields:
            if info is None:
                absent.append(f"{prefix}.{field}")
            else:
                m[f"{prefix}.{field}"] = getattr(info(), field)
    mn_us = [(end - start) * 1e6 for name, _, start, end in spans
             if name == "wreath_chars.mn_character"]
    return m, mn_us, absent


def root_duration(tracer: Tracer) -> float:
    """Summed duration of the spans that have no parent (the ``cli.main`` call)."""
    return sum(end - start for _, parent, start, end in tracer.spans if parent < 0)


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile by nearest rank; at 10,000 values q=0.999 leaves 10 above."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(len(ordered) * q - 1e-9)
    return ordered[min(max(rank, 1), len(ordered)) - 1]
