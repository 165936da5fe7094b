"""Span recorder that times idak's layers from outside the package.

`Tracer.install()` replaces the public functions of each layer with
wrappers, at every name an idak module binds them under.  Wrapping
`idak.bilinear.scalar_exp` and `idak.protocol.scalar_exp` with the same
wrapper means a call is seen whichever module makes it, including calls
bilinear makes to itself.  Nothing in the package is edited, and
`uninstall()` puts every original back.

Each wrapped call becomes a span (id, name, start, end, parent, operation
id, attribute), kept in memory and written out once the run ends.  Span
clocks are perf_counter_ns, the clock speed.py samples on.  The
cheapest, most frequent functions (point_add, is_on_curve) are counted
instead, because a span would cost more than the call.
"""

from __future__ import annotations

import collections
import gzip
import importlib
import inspect
import itertools
import os
import time

# Every module that binds names of the layers.  `idak` itself re-exports.
MODULES = (
    "idak",
    "idak.bilinear",
    "idak.protocol",
    "idak.sessions",
    "idak.selfreduction",
    "idak.keystore",
    "idak.cli",
)

def _scalar_exp_label(args, kwargs):
    """A multiplication by the group order is the subgroup check."""
    group = args[0] if args else kwargs["params"]
    n = args[2] if len(args) > 2 else kwargs["n"]
    if n == group.q:
        return "bilinear.subgroup_check", None
    return "bilinear.scalar_exp", (abs(int(n)).bit_length(), group.q.bit_length())


def _derive_attr(default_strategy):
    def attr(args, kwargs, result, exc):
        strategy = args[7] if len(args) > 7 else kwargs.get("strategy", default_strategy)
        return strategy.label(), (exc if exc is not None else result[1])

    return attr


def _error_attr(args, kwargs, result, exc):
    return None if exc is None else type(exc).__name__


def _result_attr(args, kwargs, result, exc):
    return result


def _written_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


def span_specs():
    """(module, attribute, span name, label fn, attribute fn) per wrapped call."""
    protocol = importlib.import_module("idak.protocol")
    default_strategy = inspect.signature(protocol.derive).parameters["strategy"].default
    specs = [
        ("idak.bilinear", "pairing", "bilinear.pairing", None, None),
        ("idak.bilinear", "scalar_exp", None, _scalar_exp_label, None),
        ("idak.bilinear", "hash_to_group", "bilinear.hash_to_group", None, None),
        ("idak.bilinear", "gt_exp", "bilinear.gt_exp", None, None),
        ("idak.bilinear", "decode_group_params", "bilinear.decode_group_params", None, None),
        ("idak.protocol", "setup", "protocol.setup", None, None),
        ("idak.protocol", "extract", "protocol.extract", None, None),
        ("idak.protocol", "initiate", "protocol.initiate", None, None),
        ("idak.protocol", "derive", "protocol.derive", None, _derive_attr(default_strategy)),
        ("idak.protocol", "session_key", "protocol.session_key", None, None),
        ("idak.protocol", "pfs_respond", "protocol.pfs", None, None),
        ("idak.protocol", "pfs_verify_extra", "protocol.pfs", None, None),
        ("idak.protocol", "pfs_session_key", "protocol.pfs", None, None),
        ("idak.sessions", "World.send", "sessions.send", None, _error_attr),
        ("idak.sessions", "World.new_oracle", "sessions.new_oracle", None, None),
        ("idak.sessions", "World.fresh", "sessions.fresh", None, None),
        ("idak.sessions", "World.test", "sessions.test", None, None),
        ("idak.sessions", "World.reveal", "sessions.reveal", None, None),
        ("idak.sessions", "World.corrupt", "sessions.corrupt", None, None),
        ("idak.sessions", "World.extract_query", "sessions.extract_query", None, None),
        ("idak.sessions", "run_scenario", "sessions.scenario", None, None),
        ("idak.selfreduction", "make_instance", "selfreduction.make_instance", None, None),
        ("idak.selfreduction", "amplify", "selfreduction.amplify", None, _result_attr),
        ("idak.selfreduction", "validate_instance", "selfreduction.validate_instance", None, None),
        ("idak.selfreduction", "randomize", "selfreduction.randomize", None, None),
        ("idak.selfreduction", "correct", "selfreduction.correct", None, _result_attr),
        ("idak.selfreduction", "MockCbdhOracle.__call__", "selfreduction.oracle", None, None),
        ("idak.cli", "main", "cli.main", None, _result_attr),
        ("idak.cli", "cmd_initiate", "cli.initiate", None, None),
        ("idak.cli", "cmd_respond", "cli.respond", None, None),
        ("idak.cli", "cmd_finalize", "cli.finalize", None, None),
    ]
    for kind in ("group", "master", "identity", "session", "state"):
        specs.append(("idak.keystore", f"load_{kind}", "keystore.load", None, None))
        specs.append(("idak.keystore", f"save_{kind}", "keystore.save", None, None))
    return specs


COUNTER_SPECS = (
    ("idak.bilinear", "point_add", "bilinear.point_add.calls", None),
    ("idak.bilinear", "is_on_curve", "bilinear.is_on_curve.calls", None),
    ("idak.keystore", "write_entry", "keystore.bytes_written", _written_bytes),
)


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans = []  # (id, name, start_ns, end_ns, parent, op_id, attr)
        self.counts = collections.Counter()
        # count-only calls made directly inside a span: (span id, name) -> calls
        self.inner = collections.Counter()
        self.op_id = 0
        self._stack = [0]
        self._ids = itertools.count(1)
        self._patches = []

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, fn, name, label_fn, attr_fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = next(ids)
            label, attr = label_fn(args, kwargs) if label_fn else (name, None)
            parent = stack[-1]
            stack.append(span_id)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                end = clock()
                stack.pop()
                if attr_fn is not None:
                    attr = attr_fn(args, kwargs, result, exc)
                spans.append((span_id, label, start, end, parent, tracer.op_id, attr))

        return wrapper

    def _count_wrapper(self, fn, name, amount_fn):
        counts, inner, stack = self.counts, self.inner, self._stack

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1 if amount_fn is None else amount_fn(args, kwargs, result)
            inner[stack[-1], name] += 1
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def _bind_everywhere(self, module_name, attr, make_wrapper):
        owner_name, _, method = attr.partition(".")
        home = importlib.import_module(module_name)
        if method:
            owner = getattr(home, owner_name)
            original = owner.__dict__[method]
            self._patches.append((owner, method, original))
            setattr(owner, method, make_wrapper(original))
            return
        original = home.__dict__[attr]
        wrapper = make_wrapper(original)
        for name in MODULES:
            module = importlib.import_module(name)
            if module.__dict__.get(attr) is original:
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    def install(self):
        for module_name, attr, name, label_fn, attr_fn in span_specs():
            self._bind_everywhere(
                module_name, attr,
                lambda fn, n=name, l=label_fn, a=attr_fn: self._span_wrapper(fn, n, l, a),
            )
        for module_name, attr, name, amount_fn in COUNTER_SPECS:
            self._bind_everywhere(
                module_name, attr,
                lambda fn, n=name, a=amount_fn: self._count_wrapper(fn, n, a),
            )

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def write(self, path):
        """Dump every span as gzip'd CSV: id,name,start_ns,end_ns,parent,op."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as handle:
            handle.write("span_id,name,start_ns,end_ns,parent_id,op_id\n")
            for span in self.spans:
                handle.write("%d,%s,%d,%d,%d,%d\n" % span[:6])


class SpanIndex:
    """Self times, per-name totals and descendant walks over recorded spans.

    `scale(start_s, end_s)` converts a wall time to a nominal one (see
    speed.py); self times and `duration_ms` are nominal.
    """

    def __init__(self, spans, scale):
        self.spans = spans
        self.scale = scale
        self.children = collections.defaultdict(list)
        child_ns = collections.Counter()
        for span in spans:
            self.children[span[4]].append(span)
            child_ns[span[4]] += span[3] - span[2]
        self.calls = collections.Counter()
        self.self_ns = collections.Counter()
        for span in spans:
            self.calls[span[1]] += 1
            own_ns = span[3] - span[2] - child_ns[span[0]]
            self.self_ns[span[1]] += own_ns * scale(span[2] / 1e9, span[3] / 1e9)

    def by_name(self, name):
        return [span for span in self.spans if span[1] == name]

    def descendants(self, span):
        pending = list(self.children[span[0]])
        while pending:
            child = pending.pop()
            yield child
            pending.extend(self.children[child[0]])

    def duration_ms(self, span):
        return (span[3] - span[2]) / 1e6 * self.scale(span[2] / 1e9, span[3] / 1e9)

    def self_ms(self, name):
        return self.self_ns[name] / 1e6
