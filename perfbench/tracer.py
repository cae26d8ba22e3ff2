"""Span and count tracing of the sddhopf layers, from outside the package.

Tracing wraps public functions at every place a package module binds them
(a `from .model import find_equilibrium` in cli.py is a separate binding
from model.find_equilibrium). Each wrapped call records a span (name,
start, end, parent) in per-thread arrays; count-only wrappers bump a
per-thread counter. Nothing is aggregated while the program runs: the
derived per-layer numbers come from the span tree afterwards.
"""

import itertools
import threading
import time
from array import array

import numpy as np

# (module, attribute, span name). A class attribute is given as
# "Class.method". brentq is wrapped only where dde binds it, so the
# equilibrium and Hopf solves in model/stability are not counted as
# threshold-delay fallbacks.
SPANS = [
    ("sddhopf.cli", "main", "cli.main"),
    ("sddhopf.cli", "load_config", "cli.load_config"),
    ("sddhopf.model", "find_equilibrium", "model.find_equilibrium"),
    ("sddhopf.model", "rhs_original", "model.rhs_original"),
    ("sddhopf.model", "rhs_transformed", "model.rhs_transformed"),
    ("sddhopf.stability", "classify_stability", "stability.classify_stability"),
    ("sddhopf.normalform", "analyze_normal_form", "normalform.analyze_normal_form"),
    ("sddhopf.dde", "integrate_sdd", "dde.integrate_sdd"),
    ("sddhopf.dde", "integrate_transformed", "dde.integrate_transformed"),
    ("sddhopf.dde", "History.eval", "dde.History.eval"),
    ("sddhopf.dde", "History.append", "dde.History.append"),
    ("sddhopf.dde", "solve_delay", "dde.solve_delay"),
    ("sddhopf.dde", "brentq", "dde.brentq"),
    ("sddhopf.dde", "measure_oscillation", "dde.measure_oscillation"),
    ("sddhopf.dde", "classify_dynamics", "dde.classify_dynamics"),
]
COUNTS = [
    ("sddhopf.normalform", "quadratic_coeffs", "normalform.quadratic_coeffs"),
    ("sddhopf.nonlinearity", "HillRepressor.value", "nonlinearity.value"),
    ("sddhopf.nonlinearity", "LinearMap.value", "nonlinearity.value"),
]
ONLY_IN_OWN_MODULE = {"brentq"}
ROOT_SPAN = "cli.main"
PACKAGE_MODULES = ("sddhopf", "sddhopf.cli", "sddhopf.model", "sddhopf.stability",
                   "sddhopf.normalform", "sddhopf.dde", "sddhopf.nonlinearity")


class _ThreadLog:
    def __init__(self, n_names):
        self.stack = []
        self.sid = array("q")
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = [0] * n_names


class Tracer:
    """Installs the wrappers on enter and removes them on exit."""

    def __init__(self, modules, spans=SPANS, counts=COUNTS):
        self.modules = modules          # name -> imported module
        self.span_specs, self.count_specs = spans, counts
        self.names = []
        self._name_ids = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._logs = []
        self._logs_lock = threading.Lock()
        self._root = -1                 # open ROOT_SPAN, parent of pool-thread spans
        self._patches = []
        for _, _, name in spans + counts:
            self._name_id(name)

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _log(self):
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog(len(self.names))
            with self._logs_lock:
                self._logs.append(log)
        return log

    def _span_wrapper(self, fn, name):
        nid, is_root = self._name_id(name), name == ROOT_SPAN
        clock, ids = time.perf_counter, self._ids

        def wrapper(*args, **kwargs):
            log = self._log()
            parent = log.stack[-1] if log.stack else self._root
            sid = next(ids)
            if is_root:
                self._root = sid
            log.stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                log.stack.pop()
                if is_root:
                    self._root = -1
                log.sid.append(sid)
                log.name.append(nid)
                log.parent.append(parent)
                log.start.append(t0)
                log.end.append(t1)
        return wrapper

    def _count_wrapper(self, fn, name):
        nid = self._name_id(name)

        def wrapper(*args, **kwargs):
            self._log().counts[nid] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _install(self, module_name, attr, wrapper_for):
        owner = self.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            self._patch(cls, meth, original, wrapper_for(original))
            return
        original = getattr(owner, attr)
        wrapped = wrapper_for(original)
        targets = [owner] if attr in ONLY_IN_OWN_MODULE else self.modules.values()
        for module in targets:
            if getattr(module, attr, None) is original:
                self._patch(module, attr, original, wrapped)

    def _patch(self, target, attr, original, wrapped):
        setattr(target, attr, wrapped)
        self._patches.append((target, attr, original))

    def __enter__(self):
        for module_name, attr, name in self.span_specs:
            self._install(module_name, attr, lambda f, n=name: self._span_wrapper(f, n))
        for module_name, attr, name in self.count_specs:
            self._install(module_name, attr, lambda f, n=name: self._count_wrapper(f, n))
        return self

    def __exit__(self, *exc):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()
        return False

    # -- results --------------------------------------------------------

    def spans(self):
        """All spans as numpy arrays sorted by id: sid, name, parent, start, end."""
        cols = {k: np.concatenate([np.frombuffer(getattr(log, k), dtype=dt)
                                   for log in self._logs])
                for k, dt in (("sid", np.int64), ("name", np.int32),
                              ("parent", np.int64), ("start", np.float64),
                              ("end", np.float64))}
        order = np.argsort(cols["sid"], kind="stable")
        return {k: v[order] for k, v in cols.items()}

    def counts(self):
        total = [0] * len(self.names)
        for log in self._logs:
            for i, n in enumerate(log.counts):
                total[i] += n
        return dict(zip(self.names, total))

    def threads_running(self, name):
        """Number of threads that recorded at least one span of this name."""
        nid = self._name_ids[name]
        return sum(1 for log in self._logs if nid in log.name)


def child_coverage(spans):
    """Per span, the length of its interval covered by its children.

    Children on one thread nest without overlap; spans started by pool
    threads under the root span overlap each other, so coverage is the
    length of the union of child intervals.
    """
    sid, parent = spans["sid"], spans["parent"]
    start, end = spans["start"], spans["end"]
    covered = np.zeros(len(sid))
    has_parent = parent >= 0
    child = np.nonzero(has_parent)[0]
    if not len(child):
        return covered
    prow = np.searchsorted(sid, parent[child])
    order = np.lexsort((start[child], prow))
    child, prow = child[order], prow[order]
    group_start = np.r_[True, prow[1:] != prow[:-1]]
    # fast path: within a group children are disjoint when each starts
    # after the previous one ended
    disjoint = np.r_[True, (start[child][1:] >= end[child][:-1]) | group_start[1:]]
    np.add.at(covered, prow, end[child] - start[child])
    for g in np.unique(prow[~disjoint]):
        rows = child[prow == g]
        total, reach = 0.0, -np.inf
        for s, e in zip(start[rows], end[rows]):
            if e > reach:
                total += e - max(s, reach)
                reach = e
        covered[g] = total
    return covered
