"""In-memory span tracer installed around the public entry points of `dgb`.

Every public module-level function of every loaded `dgb` module is wrapped,
and so are the class methods listed in METHODS.  A wrapper replaces the
function at every name that binds it (``dgb.completion.reduce`` and
``dgb.cli.head_reduce`` are the same function bound twice), so a call is
timed wherever it is looked up.  Methods are patched on their class.

Each wrapped call is one span: label, start, end, parent span and item id.
Per label the tracer keeps calls, total time and self time (total minus the
time covered by wrapped callees).  Generators are timed while they run, one
span per resume, so the consumer's work between items is not charged to
them.  Spans are kept in memory up to a depth and count limit and written
out once at the end; the aggregates always cover every call.
"""

import functools
import inspect
import json
import sys
import time

# (module, class, methods) patched on the class
METHODS = (
    ("dgb.reduction", "ReducerBasis", ("find_divisor", "iter_divisors", "candidate_shifts")),
    ("dgb.orderings", "Ordering", ("monomial_key", "shift_key")),
    ("dgb.ring", "Polynomial", ("__add__", "__mul__", "mul_term", "shift", "monic")),
    ("dgb.field", "ConstantField", ("__init__",)),
)

MAX_SPAN_DEPTH = 4
MAX_SPANS = 50_000


def _label(fn):
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"


class Tracer:
    def __init__(self):
        self.stats = {}  # label -> [calls, total_s, self_s]
        self.counters = {}
        self.spans = []
        self.dropped = 0
        self.item = -1
        self._stack = []  # frames: [child_time, span_id]
        self._next_id = 0
        self._orderings = []  # Ordering has __slots__ and no weakref slot
        self._hooks = {
            "reduction.ReducerBasis.find_divisor": self._count_find_hit,
            "ring.Polynomial.__add__": self._count_merge,
            "completion.verify_sigma_gbasis": self._count_checked,
            "completion.sigma_gbasis": self._count_pairs,
            "completion.sigma_gbasis_truncated": self._count_pairs,
            "completion.sigma_gbasis_adaptive": self._count_pairs,
        }

    # --- counters fed from call arguments and results -----------------------

    def add(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    def _count_find_hit(self, args, result):
        if result is not None:
            self.add("reduction.ReducerBasis.find_divisor.hits")

    def _count_merge(self, args, result):
        self.add("ring.terms_merged", len(args[0].terms) + len(args[1].terms))

    def _count_checked(self, args, result):
        self.add("completion.checked_pairs", result.checked_pairs)

    def _count_pairs(self, args, result):
        for name, value in result.stats.as_dict().items():
            self.add(f"completion.pairs.{name}", value)

    # --- span bookkeeping ---------------------------------------------------

    def _enter(self):
        span_id = self._next_id
        self._next_id += 1
        frame = [0.0, span_id]
        self._stack.append(frame)
        return frame

    def _exit(self, label, st, frame, start, end):
        stack = self._stack
        stack.pop()
        duration = end - start
        st[1] += duration
        st[2] += duration - frame[0]
        parent = -1
        if stack:
            stack[-1][0] += duration
            parent = stack[-1][1]
        if len(stack) < MAX_SPAN_DEPTH and len(self.spans) < MAX_SPANS:
            self.spans.append((frame[1], parent, label, start, end, self.item))
        else:
            self.dropped += 1

    def wrap(self, fn):
        label = _label(fn)
        st = self.stats.setdefault(label, [0, 0.0, 0.0])
        hook = self._hooks.get(label)
        clock = time.perf_counter
        enter, exit_ = self._enter, self._exit
        hits_name = f"{label}.hits"

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                st[0] += 1
                inner = fn(*args, **kwargs)
                while True:
                    frame = enter()
                    start = clock()
                    try:
                        value = next(inner)
                    except StopIteration:
                        return
                    finally:
                        exit_(label, st, frame, start, clock())
                    self.add(hits_name)
                    yield value
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st[0] += 1
            frame = enter()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(label, st, frame, start, clock())
            if hook is not None:
                hook(args, result)
            return result
        return wrapper

    # --- installation -------------------------------------------------------

    def install(self):
        """Wrap every public dgb function at every binding, plus METHODS."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "dgb" or name.startswith("dgb.")) and m is not None]
        wrappers = {}
        for module in modules:
            for name, value in list(vars(module).items()):
                if (inspect.isfunction(value) and not value.__name__.startswith("_")
                        and value.__module__.startswith("dgb.")):
                    if value not in wrappers:
                        wrappers[value] = self.wrap(value)
                    setattr(module, name, wrappers[value])
        for module_name, class_name, methods in METHODS:
            cls = getattr(sys.modules.get(module_name), class_name, None)
            for method in methods:
                fn = cls and vars(cls).get(method)
                if inspect.isfunction(fn):
                    setattr(cls, method, self.wrap(fn))
        ordering_cls = getattr(sys.modules.get("dgb.orderings"), "Ordering", None)
        if ordering_cls is not None:
            init = ordering_cls.__init__
            orderings = self._orderings

            @functools.wraps(init)
            def register(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                orderings.append(obj)
            ordering_cls.__init__ = register

    def key_cache_entries(self):
        return sum(len(getattr(o, "_key_cache", ())) for o in self._orderings)

    # --- output -------------------------------------------------------------

    def summary(self):
        out = dict(self.counters)
        for label, (calls, total, self_s) in self.stats.items():
            out[f"{label}.calls"] = calls
            out[f"{label}.total_s"] = total
            out[f"{label}.self_s"] = self_s
        out["orderings.key_cache_entries"] = self.key_cache_entries()
        out["trace.spans"] = len(self.spans) + self.dropped
        out["trace.spans_kept"] = len(self.spans)
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, label, start, end, item in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent,
                                         "name": label, "start": start,
                                         "end": end, "item": item}) + "\n")
