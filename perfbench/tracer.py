"""Spans and counts recorded around calls into ksalgebra, from outside it.

`install(tracer)` rebinds the public functions of every ksalgebra module in
every module namespace that holds them, so pipeline's call to `build_ZG`
and brauer's own `ramification -> hilbert_symbol` both pass a wrapper.  The
one exception is the polynomials namespace itself: its helpers (`trim`,
`pdivmod`, ...) call each other tens of times per field multiply, so
polynomials work is seen where another module calls into it.  Public
methods of `StructureAlgebra`, `GaloisModuleAlgebra` and `FieldElem` are
wrapped on the class.  Nothing under `src/` changes, and `install` returns
a function that puts every original back.

A span record is (name id, start ns, end ns, parent span index, op id).
Records are kept in memory and written out at the end.  Calls into
polynomials run ~10^5 times per report: they are timed, so their parents'
self time stays exact, but not stored one by one.  The hottest methods
(`FieldElem` arithmetic, `StructureAlgebra.row`, `GaloisModuleAlgebra.qrow`)
are only counted.
"""

import inspect
import time
import weakref

# FieldElem arithmetic, counted per field degree as exactfield.<op>_n.q<d>
_FIELD_ELEM_OPS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
    "__neg__": "neg", "__mul__": "mul", "__rmul__": "mul",
    "__truediv__": "div", "__rtruediv__": "div", "__pow__": "pow", "inverse": "inv",
}
_COUNT_ONLY = {"csa.StructureAlgebra.row", "csa.GaloisModuleAlgebra.qrow"}


class Tracer:
    """In-memory span and counter store; self time is computed on the fly."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        self.counts: dict[str, int] = {}
        self.op = "setup"
        self._stack: list[list] = []  # [span index or -1, start ns, child ns]
        self._qrow_keys = weakref.WeakKeyDictionary()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.total_ns.append(0)
            self.self_ns.append(0)
            self.calls.append(0)
        return nid

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def call(self, nid: int, store: bool, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        idx = -1
        if store:
            idx = len(self.spans)
            self.spans.append(None)
        frame = [idx, time.perf_counter_ns(), 0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            dur = end - frame[1]
            self.total_ns[nid] += dur
            self.self_ns[nid] += dur - frame[2]
            self.calls[nid] += 1
            if stack:
                stack[-1][2] += dur
            if store:
                self.spans[idx] = (nid, frame[1], end, parent, self.op)

    def calls_of(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def seconds(self, name: str, self_time: bool = False) -> float:
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        return (self.self_ns if self_time else self.total_ns)[nid] / 1e9

    def self_seconds_of_layer(self, layer: str) -> float:
        return sum(
            self.self_ns[i] for i, n in enumerate(self.names) if n.startswith(layer + ".")
        ) / 1e9

    def seconds_excluding(self, name: str, child_prefix: str) -> float:
        """Seconds in `name` spans minus their direct children whose name
        starts with child_prefix."""
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        own = {i for i, s in enumerate(self.spans) if s[0] == nid}
        excluded = sum(
            s[2] - s[1]
            for s in self.spans
            if s[3] in own and self.names[s[0]].startswith(child_prefix)
        )
        return (self.total_ns[nid] - excluded) / 1e9

    def to_json_dict(self) -> dict:
        return {
            "names": self.names,
            "spans": [list(s) for s in self.spans],
            "by_name": {
                n: {
                    "calls": self.calls[i],
                    "total_s": self.total_ns[i] / 1e9,
                    "self_s": self.self_ns[i] / 1e9,
                }
                for i, n in enumerate(self.names)
            },
            "counts": dict(sorted(self.counts.items())),
        }


# -- counts read from a call's arguments ------------------------------------------


def _kernel_hook(tracer, args, kwargs):
    rows = args[0] if args else kwargs["rows"]
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    tracer.count("linalg.kernel_shape", len(rows) * ncols)


def _table_hook(tracer, args, kwargs):
    # StructureAlgebra.__init__(self, field, constants, unit, check=True)
    constants = args[2] if len(args) > 2 else kwargs["constants"]
    check = args[4] if len(args) > 4 else kwargs.get("check", True)
    if check:
        tracer.count("csa.assoc_triples", len(constants) ** 3)


def _qrow_hook(tracer, args, kwargs):
    z, p, q = args[0], args[1], args[2]
    keys = tracer._qrow_keys.setdefault(z, set())
    if (p, q) not in keys:
        keys.add((p, q))
        tracer.count("csa.qrow_distinct")


_HOOKS = {
    "linalg.kernel": _kernel_hook,
    "csa.StructureAlgebra.__init__": _table_hook,
    "csa.GaloisModuleAlgebra.qrow": _qrow_hook,
}


def _finish(wrapper, fn):
    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _span_wrapper(tracer: Tracer, name: str, fn, store: bool):
    nid = tracer.name_id(name)
    hook = _HOOKS.get(name)
    call = tracer.call

    def wrapper(*args, **kwargs):
        if hook is not None:
            hook(tracer, args, kwargs)
        return call(nid, store, fn, args, kwargs)

    return _finish(wrapper, fn)


def _count_wrapper(tracer: Tracer, name: str, fn):
    hook = _HOOKS.get(name)
    key = name + "_n"
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        counts[key] = counts.get(key, 0) + 1
        if hook is not None:
            hook(tracer, args, kwargs)
        return fn(*args, **kwargs)

    return _finish(wrapper, fn)


def _degree_count_wrapper(tracer: Tracer, op: str, fn):
    keys = {d: f"exactfield.{op}_n.q{d}" for d in range(1, 9)}
    counts = tracer.counts

    def wrapper(self, *args):
        d = self.field.degree
        key = keys.get(d) or f"exactfield.{op}_n.q{d}"
        counts[key] = counts.get(key, 0) + 1
        return fn(self, *args)

    return _finish(wrapper, fn)


def ksalgebra_modules() -> list:
    """The package's modules, leaf layer first."""
    from ksalgebra import brauer, cli, clifford, csa, exactfield, linalg, pipeline, polynomials, qform

    return [polynomials, exactfield, linalg, qform, brauer, csa, clifford, pipeline, cli]


def install(tracer: Tracer):
    """Wrap ksalgebra's public functions and methods; return the restorer."""
    from ksalgebra.csa import GaloisModuleAlgebra, StructureAlgebra
    from ksalgebra.exactfield import FieldElem

    restore = []
    wrappers = {}
    for mod in ksalgebra_modules():
        layer = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            home = obj.__module__ or ""
            if not home.startswith("ksalgebra."):
                continue
            home_layer = home.rsplit(".", 1)[-1]
            if layer == "polynomials" and home_layer == "polynomials":
                continue
            if id(obj) not in wrappers:
                wrappers[id(obj)] = _span_wrapper(
                    tracer, f"{home_layer}.{obj.__name__}", obj,
                    store=home_layer != "polynomials",
                )
            restore.append((mod, attr, obj))
            setattr(mod, attr, wrappers[id(obj)])

    for cls in (StructureAlgebra, GaloisModuleAlgebra, FieldElem):
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if cls is FieldElem:
                if attr not in _FIELD_ELEM_OPS:
                    continue
                wrapper = _degree_count_wrapper(tracer, _FIELD_ELEM_OPS[attr], obj)
            elif attr.startswith("_") and attr != "__init__":
                continue
            else:
                name = f"csa.{cls.__name__}.{attr}"
                if name in _COUNT_ONLY:
                    wrapper = _count_wrapper(tracer, name, obj)
                else:
                    wrapper = _span_wrapper(tracer, name, obj, store=True)
            restore.append((cls, attr, obj))
            setattr(cls, attr, wrapper)

    def uninstall():
        for owner, attr, obj in reversed(restore):
            setattr(owner, attr, obj)

    return uninstall
