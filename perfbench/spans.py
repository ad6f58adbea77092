"""Span recorder for the traced run.

install() rebinds every public function of each cobkit layer module, in
every cobkit module namespace that holds it, to a wrapper that records a
span; public classes get their __init__ wrapped, so a span is one
construction.  This happens only inside the traced process and leaves the
library's files untouched.  Spans (name, start, end, parent span, op) are
kept in flat arrays and written out when the run ends.

Methods and properties are not wrapped: their time counts as self time of
the span that called them.
"""

import functools
import gzip
import inspect
import sys
from array import array
from time import perf_counter_ns

LAYERS = (
    "cli",
    "lens",
    "contfrac",
    "twobridge",
    "cobordism",
    "plumbing",
    "surgery",
    "arith",
)


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self.stack = [-1]
        self.current_op = -1

    def _wrap(self, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        name, start, end, parent, op, raised = (
            self.name, self.start, self.end, self.parent, self.op, self.raised
        )
        stack = self.stack
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            op.append(rec.current_op)
            raised.append(0)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the public names of every layer module (cobkit must be imported)."""
        namespaces = [
            m for n, m in sys.modules.items() if n == "cobkit" or n.startswith("cobkit.")
        ]
        for layer in LAYERS:
            mod = sys.modules[f"cobkit.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    init = obj.__dict__.get("__init__")
                    if init is not None and not issubclass(obj, BaseException):
                        obj.__init__ = self._wrap(f"{layer}.{attr}", init)
                elif inspect.isfunction(obj):
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                setattr(ns, key, wrapper)

    def extend(self, other: "Recorder", op: int) -> None:
        """Append another recorder's spans (a child process's) as one op."""
        ids = [self._name_id(n) for n in other.names]
        base = len(self.start)
        self.name.extend(array("H", (ids[i] for i in other.name)))
        self.start.extend(other.start)
        self.end.extend(other.end)
        self.parent.extend(array("i", (p + base if p >= 0 else -1 for p in other.parent)))
        self.op.extend(array("i", [op] * len(other.start)))
        self.raised.extend(other.raised)

    def _name_id(self, qualname: str) -> int:
        if qualname not in self.names:
            self.names.append(qualname)
        return self.names.index(qualname)

    def write(self, path) -> None:
        """One span per line: name, start_ns, end_ns, parent index, op, raised."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name\tstart_ns\tend_ns\tparent\top\traised\n")
            for i in range(len(self.start)):
                f.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\t"
                    f"{self.parent[i]}\t{self.op[i]}\t{self.raised[i]}\n"
                )

    @classmethod
    def read(cls, path) -> "Recorder":
        rec = cls()
        with gzip.open(path, "rt") as f:
            next(f)
            for line in f:
                name, start, end, parent, op, raised = line.split("\t")
                rec.name.append(rec._name_id(name))
                rec.start.append(int(start))
                rec.end.append(int(end))
                rec.parent.append(int(parent))
                rec.op.append(int(op))
                rec.raised.append(int(raised))
        return rec

    def summarize(self) -> tuple[dict, dict]:
        """Per layer and per function: self time (ns), calls, and, per
        layer, exceptions that left it (to another layer or to the caller)."""
        n = len(self.start)
        child = [0] * n
        start, end, parent, name = self.start, self.end, self.parent, self.name
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        layer_of = [q.split(".", 1)[0] for q in self.names]
        funcs = {q: {"self_ns": 0, "calls": 0} for q in self.names}
        layers = {layer: {"self_ns": 0, "calls": 0, "raised": 0} for layer in LAYERS}
        for i in range(n):
            q = self.names[name[i]]
            own = end[i] - start[i] - child[i]
            funcs[q]["self_ns"] += own
            funcs[q]["calls"] += 1
            layer = layers[layer_of[name[i]]]
            layer["self_ns"] += own
            layer["calls"] += 1
            if self.raised[i]:
                p = parent[i]
                if p < 0 or layer_of[name[p]] != layer_of[name[i]]:
                    layer["raised"] += 1
        return layers, funcs
