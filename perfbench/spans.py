"""Span recorder for the traced run, patched in from outside the package.

`SpanRecorder.install` replaces every public function of the given cantorkit
modules (module attributes only, in this process only) by a wrapper that
records a span: name, start, end, parent span and job id.  `uninstall` puts
the originals back, so untraced runs call the package unwrapped.

A span is recorded where a call crosses into a layer (a module, or the
word-table builders of `core`); calls that stay inside the layer run without
one, so `wavelets.analyze` includes the `wavelets.wavelet` calls it makes but
not the `operators` and `core` work below them.  A layer's self time is its
span time minus the time its child spans cover.  Spans are kept in memory (up
to SPAN_CAP, the rest counted as dropped) and written out when the run ends.
"""

import functools
import math
import time
import types
from collections import defaultdict

SPAN_CAP = 100_000   # spans kept for writing out; the rest are only counted
TABLE_BUILDERS = frozenset(
    "core." + name for name in (
        "enumerate_words", "word_index", "first_digit_array", "last_digit_array",
        "prefix_index_array", "shift_index_array", "prepend_index_array",
        "value_array"))


def group_of(qualname):
    """The layer a function belongs to: its module, with core's tables apart."""
    return "core.tables" if qualname in TABLE_BUILDERS else qualname.split(".")[0]


def within(caller, callee):
    """Whether a call from layer `caller` into layer `callee` stays inside it.

    A sub-layer also keeps the calls it makes into its own module, so the
    `core.nadic_value` calls of `core.value_array` count as table building.
    """
    return caller == callee or caller.startswith(callee + ".")


class SpanRecorder:
    """Spans, per-entry self time, and the hooks' counts, samples and gauges."""

    def __init__(self, hooks=None, caches=None):
        self.hooks = hooks or {}           # qualified name -> after(rec, args, result, dur, own)
        self.caches = caches or {}         # qualified name -> lru_cache to probe
        self.names = []
        self.groups = []
        self.self_s = defaultdict(float)   # entry function id -> self seconds
        self.counts = defaultdict(float)   # hook counters
        self.gauges = {}                   # hook maxima
        self.samples = defaultdict(list)   # fit name -> [(size, seconds)]
        self.spans = []
        self.dropped = 0
        self.job = "setup"
        self.last_args = {}                # function name -> last arguments
        self._stack = []
        self._next_id = 0
        self._wrappers = {}                # id(original) -> (original, wrapper)
        self._patched = []

    # -- patching --

    def install(self, modules):
        """Wrap every public function defined in `modules`, wherever imported.

        The wrappers are made on the first call and reused afterwards.
        """
        if not self._wrappers:
            for mod in modules:
                short = mod.__name__.rsplit(".", 1)[-1]
                for name, obj in vars(mod).items():
                    if (name.startswith("_") or not _is_function(obj)
                            or getattr(obj, "__module__", None) != mod.__name__):
                        continue
                    self._wrappers[id(obj)] = (obj, self._wrap(obj, "%s.%s" % (short, name)))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                original, wrapper = self._wrappers.get(id(obj), (None, None))
                if original is obj:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched = []

    def _wrap(self, fn, qualname):
        fid = len(self.names)
        self.names.append(qualname)
        group = group_of(qualname)
        self.groups.append(group)
        hook = self.hooks.get(qualname)
        cache = self.caches.get(qualname)
        stack = self._stack
        leave = self._leave
        clock = time.perf_counter

        def missed(before):
            return cache is None or cache.cache_info().misses > before

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = cache.cache_info().misses if cache is not None else 0
            if stack and within(stack[-1][1], group):
                # a call that stays inside a layer crosses no boundary: no
                # span, and its time stays with the layer's entry point
                if hook is None:
                    return fn(*args, **kwargs)
                start = clock()
                result = fn(*args, **kwargs)
                dur = clock() - start
                if missed(before):
                    hook(self, args, result, dur, dur)
                return result
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [fid, group, 0.0, 0.0, span_id, stack[-1][4] if stack else -1]
            stack.append(frame)
            frame[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(clock(), frame)
                raise
            end = clock()
            if not missed(before):
                # a word-table cache hit is a lookup, not work: no span
                stack.pop()
                self._next_id -= 1
                return result
            dur, own = leave(end, frame)
            if hook is not None:
                hook(self, args, result, dur, own)
            return result

        return wrapper

    # -- spans --

    def _leave(self, end, frame):
        stack = self._stack
        stack.pop()
        fid, _, start, child, span_id, parent = frame
        dur = end - start
        own = dur - child
        self.self_s[fid] += own
        if stack:
            stack[-1][3] += dur
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, fid, start, end, parent, self.job))
        else:
            self.dropped += 1
        return dur, own

    # -- what hooks feed --

    def parent_group(self):
        """Group of the span enclosing the call that just returned."""
        return self._stack[-1][1] if self._stack else None

    def count(self, name, amount):
        self.counts[name] += amount

    def gauge(self, name, value):
        self.gauges[name] = max(self.gauges.get(name, value), value)

    def sample(self, name, size, seconds):
        self.samples[name].append((size, seconds))

    def snapshot(self):
        """Totals so far, for subtracting the set-up part from later passes."""
        def named(per_fid):
            return {self.names[fid]: v for fid, v in per_fid.items()}
        return {"self_s": named(self.self_s), "counts": dict(self.counts),
                "spans": self._next_id}

    def span_records(self):
        """Spans as dicts with the function name resolved."""
        return [{"id": s, "name": self.names[f], "start": a, "end": b,
                 "parent": p, "job": j} for s, f, a, b, p, j in self.spans]


def _is_function(obj):
    return isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")


def per_pass(setup, total, passes):
    """Set-up totals plus the average of one pass: {key: value} for each part."""
    out = {}
    for part in ("self_s", "counts"):
        keys = set(setup[part]) | set(total[part])
        out[part] = {
            k: setup[part].get(k, 0) + (total[part].get(k, 0) - setup[part].get(k, 0)) / passes
            for k in keys}
    out["spans"] = setup["spans"] + (total["spans"] - setup["spans"]) / passes
    return out


MIN_FIT_SIZE = 1000


def growth_exponent(samples):
    """Least-squares slope of log(seconds) against log(size).

    Samples are grouped by size and each size contributes its median time;
    sizes below MIN_FIT_SIZE are left out because fixed per-call costs
    dominate them.  Returns 0.0 when fewer than two sizes a factor 2 apart remain.
    """
    by_size = defaultdict(list)
    for size, seconds in samples:
        if size >= MIN_FIT_SIZE and seconds > 0:
            by_size[size].append(seconds)
    if len(by_size) < 2 or max(by_size) < 2 * min(by_size):
        return 0.0
    xs = [math.log(s) for s in sorted(by_size)]
    ys = [math.log(sorted(v)[len(v) // 2]) for _, v in sorted(by_size.items())]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
