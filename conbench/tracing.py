"""Per-layer tracing of conreal from outside the package.

``Tracer.install`` replaces, at every module that holds them, the package's
public functions, the public methods of its classes and the callables handed
to its constructors and functions (a real's interval generator, a map's
enclosure, a bar's membership test, a construction step) by wrappers that
count every call.  A layer is a module of ``src/conreal``; a wrapped callable
belongs to the module that defined it.  A call that crosses into another
layer, or comes from outside the package, also records a span (name, start,
end, parent span); calls within one layer only count, which keeps the span
list to the layer boundaries.  Self time is a span's duration minus its
child spans.

Spans stay in memory until ``write`` saves them.  Nothing is recorded while
``on`` is false, so the benchmark's own checks stay out of the counts.
"""

from __future__ import annotations

import array
import enum
import inspect
import json
import time
import types
from collections import Counter

LAYERS = ("streams", "real", "ivt", "coding", "fans", "combinatorics", "cli")

FUGITIVE_SCANS = ("fugitive_least", "fugitive_compare", "fugitive_equal")
REAL_SCANS = ("CReal.approx", "try_lt", "try_apart", "cotrans_split")
WRAPPED_DUNDERS = ("__init__", "__getitem__", "__add__", "__neg__", "__sub__", "__mul__", "__abs__")

CALL_COUNTS = {"NatStream.__getitem__": "streams.reads",
               "CReal.interval": "real.interval_calls",
               "ContinuousMap.at": "ivt.point_values",
               "encode": "coding.encode_calls",
               "decode": "coding.decode_calls"}
ARGUMENT_COUNTS = {"NatStream.__init__.generate": "streams.generations",
                   "CReal.__init__.generate": "real.interval_generations",
                   "ContinuousMap.__init__.enclose": "ivt.enclose_calls",
                   "DecidableBar.__init__.member": "fans.bar_tests"}


def _layer_of(obj) -> str:
    module = getattr(obj, "__module__", "") or ""
    name = module.rsplit(".", 1)[-1]
    return name if module.startswith("conreal.") and name in LAYERS else "other"


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.on = False
        self.counts: Counter[str] = Counter()
        self.maxima: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Parallel span columns: name id, start, end, parent span id (-1 at top).
        self.span_name = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.span_parent = array.array("i")
        self._calls: list[tuple[str, str]] = []  # (name, layer) of every wrapped call in progress
        self._spans: list[list] = []  # open spans: [start, time in child spans, span id]

    # --- recording -------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str, layer: str, callable_params=(), count: str | None = None,
              parent_counts: dict[str, str] | None = None, hook=None):
        """A counting stand-in for fn that records a span where the call crosses
        a layer boundary; ``hook(tracer, args, result)`` sees each call."""
        tracer = self
        name_id = self._name_id(name)
        calls = self._calls

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if callable_params:
                args, kwargs = tracer._wrap_args(name, callable_params, args, kwargs)
            if count:
                tracer.counts[count] += 1
            caller = calls[-1] if calls else None
            if parent_counts and caller is not None and caller[0] in parent_counts:
                tracer.counts[parent_counts[caller[0]]] += 1
            calls.append((name, layer))
            try:
                if caller is not None and caller[1] == layer:
                    # A call inside one layer is counted but makes no span of its own.
                    result = fn(*args, **kwargs)
                else:
                    result = tracer._span(name_id, layer, fn, args, kwargs)
            finally:
                calls.pop()
            if hook is not None:
                hook(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _span(self, name_id: int, layer: str, fn, args, kwargs):
        """Run fn as a span at a layer boundary: record it and charge its self time."""
        stack = self._spans
        span_id = len(self.span_name)
        self.span_name.append(name_id)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_parent.append(stack[-1][2] if stack else -1)
        frame = [time.perf_counter(), 0.0, span_id]  # start, time in child spans, id
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame[0]
            self.self_s[layer] += duration - frame[1]
            if stack:
                stack[-1][1] += duration
            self.span_start[span_id] = frame[0]
            self.span_end[span_id] = end

    def _wrap_args(self, owner: str, params, args, kwargs):
        args = list(args)
        for pos, pname in params:
            if pos < len(args) and isinstance(args[pos], types.FunctionType):
                args[pos] = self._wrap_argument(owner, pname, args[pos])
            elif isinstance(kwargs.get(pname), types.FunctionType):
                kwargs[pname] = self._wrap_argument(owner, pname, kwargs[pname])
        return args, kwargs

    def _wrap_argument(self, owner: str, pname: str, fn):
        # Not cached: these are closures made per object, and a cache would keep them alive.
        name = f"{owner}.{pname}"
        count = ARGUMENT_COUNTS.get(name)
        if (name == "CReal.from_steps.step" and _layer_of(fn) == "ivt"
                and not fn.__qualname__.startswith("ContinuousMap.")):
            count = "ivt.bisection_steps"
        hook = _interval_bits if name == "CReal.__init__.generate" else None
        return self._wrap(fn, name, _layer_of(fn), count=count, hook=hook)

    # --- installation ----------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public names of every conreal module, at every module holding them."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        classes = {}
        for module in modules:
            for value in vars(module).values():
                if isinstance(value, type) and _layer_of(value) != "other":
                    classes[id(value)] = value
        for cls in classes.values():
            if issubclass(cls, (enum.Enum, BaseException)):
                continue
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                    continue
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if not isinstance(fn, types.FunctionType):
                    continue
                wrapped = self._function(fn, f"{cls.__name__}.{attr}", _layer_of(cls))
                setattr(cls, attr, type(raw)(wrapped) if fn is not raw else wrapped)
        done: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and _layer_of(value) != "other"):
                    if id(value) not in done:
                        done[id(value)] = self._function(value, attr, _layer_of(value))
                    setattr(module, attr, done[id(value)])

    def _function(self, fn, name: str, layer: str):
        params = tuple((i, p) for i, (p, ann) in enumerate(_params(fn))
                       if isinstance(ann, str) and "Callable" in ann)
        parent_counts = None
        if name == "NatStream.__getitem__":
            parent_counts = {scan: "streams.fugitive_indices" for scan in FUGITIVE_SCANS}
        elif name == "CReal.interval":
            parent_counts = {scan: "real.scan_indices" for scan in REAL_SCANS}
        hook = {"encode": _code_bits_result, "decode": _code_bits_argument}.get(name)
        return self._wrap(fn, name, layer, params, CALL_COUNTS.get(name), parent_counts, hook)

    # --- output ----------------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        c = self.counts
        out = {
            "streams.reads": (c["streams.reads"], "count"),
            "streams.generations": (c["streams.generations"], "count"),
            "streams.fugitive_indices": (c["streams.fugitive_indices"], "count"),
            "real.interval_calls": (c["real.interval_calls"], "count"),
            "real.interval_generations": (c["real.interval_generations"], "count"),
            "real.scan_indices": (c["real.scan_indices"], "count"),
            "real.max_endpoint_bits": (self.maxima["real.max_endpoint_bits"], "bits"),
            "ivt.enclose_calls": (c["ivt.enclose_calls"], "count"),
            "ivt.bisection_steps": (c["ivt.bisection_steps"], "count"),
            "ivt.point_values": (c["ivt.point_values"], "count"),
            "coding.encode_calls": (c["coding.encode_calls"], "count"),
            "coding.decode_calls": (c["coding.decode_calls"], "count"),
            "coding.max_code_bits": (self.maxima["coding.max_code_bits"], "bits"),
            "fans.bar_tests": (c["fans.bar_tests"], "count"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        return out

    def write(self, path) -> None:
        """Save spans as a JSON header line followed by the four binary columns."""
        header = {"names": self.names, "spans": len(self.span_name),
                  "columns": ["name:i32", "start:f64", "end:f64", "parent:i32"]}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_name, self.span_start, self.span_end, self.span_parent):
                column.tofile(f)


def _params(fn):
    try:
        return [(p.name, p.annotation) for p in inspect.signature(fn).parameters.values()]
    except (TypeError, ValueError):
        return []


def _raise_max(tracer: Tracer, key: str, bits: int) -> None:
    if bits > tracer.maxima[key]:
        tracer.maxima[key] = bits


def _interval_bits(tracer: Tracer, args, iv) -> None:
    _raise_max(tracer, "real.max_endpoint_bits", max(_bits(iv.lo), _bits(iv.hi)))


def _code_bits_result(tracer: Tracer, args, code: int) -> None:
    _raise_max(tracer, "coding.max_code_bits", code.bit_length())


def _code_bits_argument(tracer: Tracer, args, result) -> None:
    _raise_max(tracer, "coding.max_code_bits", args[0].bit_length())
