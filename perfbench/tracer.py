"""Outside-in tracer: times calls into hdx's public functions without editing hdx.

`Tracer.install()` wraps every public module-level function of every loaded
`hdx.*` module, plus `SimplicialComplex.link`, and the check functions listed
in `hdx.verify.CHECKS`. Modules copy names from each other at import
(`from .cochains import distance`), so each function object is found by
identity and replaced in every `hdx.*` namespace that holds it.
Per-element methods (`Ring.reduce`, `Cochain` arithmetic,
`Subcomplex.has_face`) are methods, not module functions, and stay unwrapped:
their time counts toward the caller.

Each call is a span (function, parent span, start, end) kept in memory and
written out by `save_spans`. A function's self time is its span's duration
minus the time its child spans cover; its busy time counts only outermost
calls, so recursion is not counted twice. Hooks on a few functions add the
work counters the benchmark reports (subgroup cache misses, cosets scanned,
Smith normal form sizes, certification flags).

`Tracer(select=MINIMA_FUNCS)` wraps only the functions that return minima,
which is how untraced runs count certification flags at negligible cost.
Given a running `HostSpeed` probe, durations leave out the time its samples
took, so the probe's interruptions are not charged to the layer they hit.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter

MINIMA_FUNCS = (
    "expansion.coboundary_epsilon",
    "expansion.cosystolic_pair",
    "lattice.minimal_representatives",
    "lattice.lattice_distance",
    "lattice.lattice_report",
)
LINK = "complexes.SimplicialComplex.link"
COUNTERS = (
    "cochains.subgroup.misses",
    "cochains.subgroup.elems",
    "building.intersection_complex.misses",
    "building.chain_family.entries",
    "intmat.smith_normal_form.entries",
)


def _short(module_name):
    return module_name.split(".", 1)[1] if "." in module_name else module_name


class _NoProbe:
    spent = 0.0


class Tracer:
    def __init__(self, select=None, probe=None):
        self.select = None if select is None else set(select)
        self.probe = probe or _NoProbe()
        self.names = []
        self.calls, self.self_s, self.busy_s = [], [], []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.scans = []           # (class, X, ring size, k, target, cosets, busy)
        self.minima = []          # (layer, certified) per minimum returned
        self.span_fid = array("i")
        self.span_parent = array("i")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self._stack = []          # [span index, child time] per open span
        self._depth = []
        self._minima_depth = 0
        self._restore = []

    # -- installation ----------------------------------------------------------

    def _wanted(self, qualname):
        return self.select is None or qualname in self.select

    def install(self):
        import hdx.verify
        from hdx.complexes import SimplicialComplex

        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "hdx" or name.startswith("hdx.")) and m is not None]
        wrappers = {}
        for m in modules:
            for attr, obj in vars(m).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == m.__name__ and id(obj) not in wrappers):
                    qualname = f"{_short(m.__name__)}.{attr}"
                    if self._wanted(qualname):
                        wrappers[id(obj)] = (obj, self._wrap(obj, qualname))
        for m in modules:
            for attr, obj in list(vars(m).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(m, attr, hit[1])
                    self._restore.append((m, attr, obj))
        if self._wanted(LINK):
            orig = SimplicialComplex.link
            SimplicialComplex.link = self._wrap(orig, LINK)
            self._restore.append((SimplicialComplex, "link", orig))
        checks = hdx.verify.CHECKS
        saved = list(checks)
        for i, (name, fn) in enumerate(saved):
            hit = wrappers.get(id(fn))
            if hit is not None:
                checks[i] = (name, hit[1])
        self._restore.append((checks, None, saved))
        return self

    def uninstall(self):
        for target, attr, orig in reversed(self._restore):
            if attr is None:
                target[:] = orig
            else:
                setattr(target, attr, orig)
        self._restore = []

    def _wrap(self, fn, qualname):
        fid = len(self.names)
        self.names.append(qualname)
        for table in (self.calls, self.self_s, self.busy_s):
            table.append(0)
        self._depth.append(0)
        stack, depth = self._stack, self._depth
        calls, self_s, busy_s = self.calls, self.self_s, self.busy_s
        fids, parents, t0s, t1s = self.span_fid, self.span_parent, self.span_t0, self.span_t1
        hook = HOOKS.get(qualname)
        probe = self.probe

        def timed(args, kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1][0] if stack else -1)
            t1s.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            depth[fid] += 1
            p0 = probe.spent
            t0 = perf_counter()
            t0s.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                t1s[idx] = t1
                stack.pop()
                depth[fid] -= 1
                d = t1 - t0 - (probe.spent - p0)
                calls[fid] += 1
                self_s[fid] += d - frame[1]
                if not depth[fid]:
                    busy_s[fid] += d
                if stack:
                    stack[-1][1] += d

        if hook is None:
            def wrapper(*args, **kwargs):
                return timed(args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return hook(self, lambda: timed(args, kwargs), args, kwargs)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- results -----------------------------------------------------------------

    def by_name(self):
        """qualified name -> (calls, self seconds, busy seconds)."""
        return {n: (self.calls[i], self.self_s[i], self.busy_s[i])
                for i, n in enumerate(self.names)}

    def save_spans(self, path):
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            fid=np.frombuffer(self.span_fid, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_t0, dtype=np.float64),
            end=np.frombuffer(self.span_t1, dtype=np.float64),
        )


# -- hooks: work counters at the layer boundaries ---------------------------------


def _subgroup_hook(tr, call, args, kwargs):
    X = args[0]
    before = len(X.cache)
    result = call()
    if len(X.cache) > before:
        tr.counters["cochains.subgroup.misses"] += 1
        tr.counters["cochains.subgroup.elems"] += len(result)
    return result


def _intersection_hook(tr, call, args, kwargs):
    B = args[0]
    before = len(B.cache)
    result = call()
    if len(B.cache) > before:
        tr.counters["building.intersection_complex.misses"] += 1
    return result


def _chain_family_hook(tr, call, args, kwargs):
    result = call()
    tr.counters["building.chain_family.entries"] += len(result.entries)
    return result


def _snf_hook(tr, call, args, kwargs):
    M = args[0]
    tr.counters["intmat.smith_normal_form.entries"] += len(M) * (len(M[0]) if M else 0)
    return call()


def _minima_hook(count):
    def hook(tr, call, args, kwargs):
        tr._minima_depth += 1
        p0 = tr.probe.spent
        t0 = perf_counter()
        try:
            result = call()
        finally:
            tr._minima_depth -= 1
        busy = perf_counter() - t0 - (tr.probe.spent - p0)
        if not tr._minima_depth:
            count(tr, args, kwargs, result, busy)
        return result
    return hook


def _count_report(target):
    def count(tr, args, kwargs, rep, busy):
        tr.minima.append(("expansion", bool(rep.certified)))
        X, ring, k = args[0], args[1], args[2]
        if ring.is_finite:
            kind = "field" if ring.is_field else "generic"
            cosets = rep.extra.get("cosets_scanned", 0)
            tr.scans.append((kind, X, ring.size, k, target, cosets, busy))
    return count


def _count_generators(tr, args, kwargs, gens, busy):
    tr.minima.extend(("lattice", bool(g.certified)) for g in gens)


def _count_distance(tr, args, kwargs, result, busy):
    tr.minima.append(("lattice", bool(result[1])))


def _count_lattice_report(tr, args, kwargs, doc, busy):
    tr.minima.extend(("lattice", bool(c)) for c in doc["generators_certified"])
    tr.minima.append(("lattice", bool(doc["certified"])))


HOOKS = {
    "cochains.coboundary_group": _subgroup_hook,
    "cochains.cocycle_group": _subgroup_hook,
    "building.intersection_complex": _intersection_hook,
    "building.chain_family": _chain_family_hook,
    "intmat.smith_normal_form": _snf_hook,
    "expansion.coboundary_epsilon": _minima_hook(_count_report("coboundaries")),
    "expansion.cosystolic_pair": _minima_hook(_count_report("cocycles")),
    "lattice.minimal_representatives": _minima_hook(_count_generators),
    "lattice.lattice_distance": _minima_hook(_count_distance),
    "lattice.lattice_report": _minima_hook(_count_lattice_report),
}
