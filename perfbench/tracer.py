"""In-memory span tracer over wellpi's layers, for the traced benchmark run.

``Tracer.install`` replaces each traced function with a wrapper that records a
span (name, parent span, start, end) in a flat in-memory list.  wellpi's
modules bind their dependencies with ``from .x import y``, so a wrapper is put
at every name any wellpi module bound to the function, not only in the module
that defines it.  ``uninstall`` puts the originals back.

Besides spans the tracer counts, where the work happens:

* ``integrate_adaptive``: the panels of every result (``subdivisions``, also
  of the best estimate a ``QuadratureError`` carries) and the calls of the
  integrand it was given;
* ``drag_power`` at the name ``validation`` bound, which only the
  compressible sweep's right-hand side calls;
* each ``QuadratureError`` / ``StepSizeUnderflow`` raised, once per exception.

The program runs one thread, so spans nest strictly and a stack gives each
span its parent.  Nothing waits on another thread, so there is no wait time
to record.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

#: Functions that get a span, by defining module.
SPANNED = {
    "kinematics": ("partition_zones", "zone_segments"),
    "quadrature": (
        "darcy_zone_integral", "forchheimer_zone_integral", "predarcy_zone_integral",
        "integrate_adaptive",
    ),
    "productivity": ("compute_pi",),
    "validation": ("pi_from_profile", "pi_from_energy", "pressure_profile", "compressible_velocity"),
    "checks": (
        "check_constitutive_inverse", "check_radius_roundtrip", "check_closed_vs_quadrature",
        "check_darcy_profile", "check_oracle_equivalence", "check_darcy_flux_independence",
        "check_forchheimer_monotonicity", "check_predarcy_monotonicity", "check_fdpd_limit",
        "check_gamma_zero_identity", "check_gamma_linearity",
    ),
    "reference": ("load_reference_entries", "compare_table"),
    "fitting": ("fit_segments", "read_measurements_csv"),
    "cli": ("main",),
}

#: Exceptions counted as they leave a traced function, by defining module.
COUNTED_ERRORS = {"quadrature": "QuadratureError", "validation": "StepSizeUnderflow"}

ZONE_INTEGRALS = tuple(f"quadrature.{n}" for n in SPANNED["quadrature"][:3])


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit, in order."""
    out: list[tuple[str, str]] = []
    for module, names in SPANNED.items():
        for name in names:
            if module == "checks":
                out.append((f"checks.{name}.total_s", "s"))
                continue
            out += [(f"{module}.{name}.calls", "count"), (f"{module}.{name}.self_s", "s")]
            if name == "integrate_adaptive":
                out += [
                    ("quadrature.integrate_adaptive.panels", "count"),
                    ("quadrature.integrate_adaptive.integrand_calls", "count"),
                    ("quadrature.integrate_adaptive.useful_ratio", "ratio"),
                ]
            elif name == "compute_pi":
                out.append(("productivity.zone_integrals_per_pi", "count/pi"))
            elif name == "pi_from_profile":
                out.append(("validation.inner_integrals_per_profile", "count/profile"))
            elif name == "compressible_velocity":
                out.append(("validation.compressible_velocity.rhs_evals", "count"))
        if module in COUNTED_ERRORS:
            out.append((f"{module}.{COUNTED_ERRORS[module]}.count", "count"))
    return out


class Tracer:
    """Spans and counters of the wellpi calls made while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name index, parent span or -1, start ns, end ns]
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._seen_errors: list[BaseException] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Drop the spans and counts recorded so far."""
        self.spans.clear()
        self.counts.clear()
        self._seen_errors.clear()

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name: str, fn, errors: tuple[type[BaseException], ...]):
        index = len(self.names)
        self.names.append(name)
        spans, stack, counts, seen = self.spans, self._stack, self.counts, self._seen_errors
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = [index, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            except errors as exc:
                if not any(exc is e for e in seen):
                    seen.append(exc)
                    counts[f"{type(exc).__module__.split('.')[-1]}.{type(exc).__name__}"] += 1
                raise
            finally:
                span[3] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_integrator(self, fn, quadrature_error: type[BaseException]):
        counts = self.counts

        def integrate(f, *args, **kwargs):
            def integrand(x):
                counts["integrand_calls"] += 1
                return f(x)

            try:
                result = fn(integrand, *args, **kwargs)
            except quadrature_error as exc:
                counts["panels"] += exc.best.subdivisions
                raise
            counts["panels"] += result.subdivisions
            return result

        return integrate

    def _counting_drag_power(self, fn):
        counts = self.counts

        def drag_power(*args, **kwargs):
            counts["rhs_evals"] += 1
            return fn(*args, **kwargs)

        return drag_power

    # -- installation -------------------------------------------------------

    def _bind_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "wellpi" or mod_name.startswith("wellpi.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function at every wellpi name bound to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m: sys.modules[f"wellpi.{m}"] for m in SPANNED}
        errors = tuple(getattr(sys.modules[f"wellpi.{m}"], e) for m, e in COUNTED_ERRORS.items())
        for module, names in SPANNED.items():
            for name in names:
                original = getattr(modules[module], name)
                inner = original
                if name == "integrate_adaptive":
                    inner = self._counting_integrator(original, modules["quadrature"].QuadratureError)
                self._bind_everywhere(original, self._spanned(f"{module}.{name}", inner, errors))
        validation = modules["validation"]
        original = validation.drag_power
        self._patches.append((validation, "drag_power", original))
        validation.drag_power = self._counting_drag_power(original)

    def uninstall(self) -> None:
        """Put every original function back."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- report -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded since ``reset``.

        A span's self time is its duration minus the time of its child spans.
        ``checks.*`` report total (inclusive) time instead, because the checks
        call into every other layer.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for _, parent, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter[str] = Counter()
        self_ns: defaultdict[str, int] = defaultdict(int)
        total_ns: defaultdict[str, int] = defaultdict(int)
        for i, (index, _, start, end) in enumerate(spans):
            name = self.names[index]
            calls[name] += 1
            self_ns[name] += end - start - child_ns[i]
            total_ns[name] += end - start

        def under(names: tuple[str, ...], ancestor: str) -> int:
            # spans named in `names` with an `ancestor` span above them
            wanted = {i for i, n in enumerate(self.names) if n in names}
            target = self.names.index(ancestor)
            found = 0
            for index, parent, _, _ in spans:
                if index not in wanted:
                    continue
                while parent >= 0 and spans[parent][0] != target:
                    parent = spans[parent][1]
                found += parent >= 0
            return found

        out: dict[str, float] = {}
        for name, unit in per_layer_names():
            layer, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = calls[layer]
            elif field == "self_s":
                out[name] = self_ns[layer] / 1e9
            elif field == "total_s":
                out[name] = total_ns[layer] / 1e9
            elif field in ("panels", "integrand_calls", "rhs_evals"):
                out[name] = self.counts[field]
            elif field == "count":
                out[name] = self.counts[layer]
            elif field == "useful_ratio":
                calls_made = self.counts["integrand_calls"]
                out[name] = self.counts["panels"] / calls_made if calls_made else 0.0
            elif field == "zone_integrals_per_pi":
                n_pi = calls["productivity.compute_pi"]
                out[name] = under(ZONE_INTEGRALS, "productivity.compute_pi") / n_pi if n_pi else 0.0
            elif field == "inner_integrals_per_profile":
                n_prof = calls["validation.pi_from_profile"]
                inner = under(("quadrature.integrate_adaptive",), "validation.pi_from_profile")
                out[name] = inner / n_prof if n_prof else 0.0
            else:
                raise AssertionError(f"no rule for per-layer metric {name}")
        return out
