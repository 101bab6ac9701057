"""Outside-in span tracer for the ``wallcross`` package.

The tracer wraps a fixed list of public functions and methods by
reassigning module and class attributes, so the code under ``src/`` stays
unchanged.  Every module of the package that holds a reference to a wrapped
function gets the wrapper, which is what makes internal callers such as
``_loop_multipliers`` -> ``wall_crossing_automorphism`` and cross-module
imports such as ``qtorus.multicover_omega_from_bar`` visible.

Spans (name, start, end, parent) are kept in memory; self time is computed
afterwards as a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, class or None, attribute, span name).  The span names are the
# per-layer metric prefixes of BENCHMARK.json.
TARGETS = (
    ("algebra", "RationalFunc", "__init__", "algebra.RationalFunc"),
    ("algebra", "LaurentPoly", "__mul__", "algebra.LaurentPoly.mul"),
    ("algebra", "LaurentPoly", "exact_div", "algebra.LaurentPoly.exact_div"),
    ("algebra", "GradedSeries", "__mul__", "algebra.GradedSeries.mul"),
    ("algebra", None, "series_exp", "algebra.series_exp"),
    ("algebra", None, "series_log", "algebra.series_log"),
    ("combinat", None, "plethystic_exp", "combinat.plethystic_exp"),
    ("combinat", None, "plethystic_log", "combinat.plethystic_log"),
    ("invariants", None, "partition_sum_lhs", "invariants.partition_sum_lhs"),
    ("invariants", None, "dt_kronecker_numeric", "invariants.dt_kronecker_numeric"),
    ("invariants", None, "multicover_omega_from_bar", "invariants.multicover_omega_from_bar"),
    ("invariants", None, "multicover_bar_from_omega", "invariants.multicover_bar_from_omega"),
    ("scattering", None, "complete_to_consistency", "scattering.complete_to_consistency"),
    ("scattering", None, "wall_crossing_automorphism", "scattering.wall_crossing_automorphism"),
    ("scattering", None, "central_ray_omega", "scattering.central_ray_omega"),
    ("qtorus", None, "ks_factorization", "qtorus.ks_factorization"),
    ("qtorus", "QTorusElement", "__mul__", "qtorus.QTorusElement.mul"),
    ("qtorus", None, "quantum_dilog", "qtorus.quantum_dilog"),
    ("qtorus", None, "refined_from_factorization", "qtorus.refined_from_factorization"),
    ("qtorus", None, "divisibility_check", "qtorus.divisibility_check"),
    ("qtorus", None, "gv_from_refined", "qtorus.gv_from_refined"),
    ("cli", None, "main", "cli.main"),
)

SPAN_NAMES = tuple(t[3] for t in TARGETS)

PACKAGE = "wallcross"


class Tracer:
    """Install span-recording wrappers on the package, and take them off again.

    Use as a context manager around one pass; ``spans`` then holds that
    pass's spans and ``summary`` its per-name calls and self time.
    """

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = [-1]

    def _wrap(self, name: str, fn):
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for mod_name, cls_name, attr, span in TARGETS:
            owner = sys.modules.get(f"{PACKAGE}.{mod_name}")
            if cls_name is not None:
                owner = getattr(owner, cls_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                continue  # a target the program no longer has reports 0 calls
            wrapper = self._wrap(span, original)
            holders = [owner] if cls_name is not None else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def spans(self, origin: float) -> list[list]:
        """Recorded spans as [name, start, end, parent index] rows, times in
        seconds relative to ``origin``; an outermost span has parent -1."""
        return [[n, s - origin, e - origin, p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)]

    def summary(self) -> tuple[dict[str, int], dict[str, float], float]:
        """Calls and self seconds per span name, and the seconds covered by
        spans whose parent is an outermost span."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        below_roots = 0.0
        for i in range(n):
            name = self.names[i]
            dur = self.ends[i] - self.starts[i]
            calls[name] += 1
            self_s[name] += dur - child[i]
            p = self.parents[i]
            if p >= 0 and self.parents[p] < 0:
                below_roots += dur
        return calls, self_s, below_roots
