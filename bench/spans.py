"""Spans around calls into the program's public functions.

The tracer replaces each listed function in every codemismatch module
namespace that binds it (the defining module, the package and any module
that imported it by name), records one span per call in memory and puts
the originals back on `uninstall`. Work counts are read from the
returned objects; a count the object no longer carries is recorded as
absent, never guessed.
"""

from __future__ import annotations

import functools
import sys
import time
import warnings

PACKAGE = "codemismatch"

# module -> public functions whose calls are spanned
TARGETS = {
    "channel": ("load_channel_spec",),
    "cli": ("main",),
    "exponents": ("er_mismatch_dual", "mismatch_theta_sup", "er_cc_dual",
                  "er_cc_primal", "sweep_curve"),
    "optimal_metric": ("optimize_metric", "solve_fixed_point",
                       "build_metric"),
    "simulation": ("sample_code", "select_subcode", "decode", "run_trials",
                   "independence_probe", "union_bound_probe"),
}

# function -> (work count, where the result carries it): "diagnostics"
# for a key of result.diagnostics, "attribute" for an attribute
WORK_COUNTS = {
    "exponents.er_mismatch_dual": ("evaluations", "diagnostics"),
    "exponents.er_cc_dual": ("am_iterations", "diagnostics"),
    "exponents.er_cc_primal": ("lbfgs_iterations", "diagnostics"),
    "optimal_metric.solve_fixed_point": ("iterations", "attribute"),
}

# functions whose RuntimeWarnings are counted
WARNING_COUNTS = {"exponents.er_cc_primal": "restart_warnings"}


def span_names() -> list:
    return [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


def _read_count(obj, key: str, where: str):
    """obj.diagnostics[key] or obj.<key>; None when the result does not
    carry that count."""
    if where == "diagnostics":
        diags = getattr(obj, "diagnostics", None)
        val = diags.get(key) if isinstance(diags, dict) else None
    else:
        val = getattr(obj, key, None)
    return val if isinstance(val, (int, float)) and not isinstance(val, bool) \
        else None


class Tracer:
    """Span recorder. A span is [name, start, end, parent, unit, work]."""

    def __init__(self):
        self.spans = []
        self.unit = "setup"
        self._stack = []
        self._patched = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for mod, fns in TARGETS.items():
            home = sys.modules.get(f"{PACKAGE}.{mod}")
            for fn in fns:
                orig = getattr(home, fn, None)
                if orig is None:
                    continue        # function removed: its metrics read 0
                wrapper = self._wrap(f"{mod}.{fn}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched = []

    def _wrap(self, name: str, orig):
        count = WORK_COUNTS.get(name)
        warn_key = WARNING_COUNTS.get(name)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [name, 0.0, 0.0, parent, self.unit, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            caught = []
            span[1] = time.perf_counter()
            try:
                if warn_key is None:
                    out = orig(*args, **kwargs)
                else:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        out = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                for w in caught:
                    warnings.warn_explicit(w.message, w.category,
                                           w.filename, w.lineno)
            work = {count[0]: _read_count(out, *count)} if count else {}
            if warn_key is not None:
                work[warn_key] = sum(issubclass(w.category, RuntimeWarning)
                                     for w in caught)
            span[5] = work or None
            return out

        return traced

    def self_times(self) -> list:
        """Per span: duration minus the durations of its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own
