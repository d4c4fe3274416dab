"""Spans and counters around klvwb's public functions, installed from outside.

Tracer.install() rebinds module attributes and class methods of the klvwb
package to timing wrappers; every other binding of the same function object
inside the package (names taken with `from ... import`) is rebound too, and
uninstall() puts the originals back.  A target the package no longer has is
listed in `absent` instead of failing the run.

A span is (name, start, end, parent span, job id); spans stay in memory
until the run ends.  The arithmetic kernel is counted only, never spanned:
it is called millions of times per check run.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import inspect
import sys
import time
from collections import defaultdict

perf = time.perf_counter

KERNEL = ("padd", "psub", "pneg", "pmul", "pbar", "pmonmul", "paccum", "paccum_scaled")

# (span name, module under klvwb, attribute path[, Tracer method run on the result])
SPANS = (
    ("cli.main", "cli", "main"),
    ("coxeter.build_system", "coxeter", "build_system"),
    ("coxeter.elements", "coxeter", "CoxeterSystem.elements"),
    ("hecke.kl_basis", "hecke", "kl_basis", "_on_kl_basis"),
    ("hecke.verify_kl_basis", "hecke", "verify_kl_basis"),
    ("hecke.mul_T", "hecke", "mul_T"),
    ("datum.builtin_datum", "datum", "builtin_datum"),
    ("datum.load_datum", "datum", "load_datum", "_on_load_datum"),
    ("datum.validate_datum", "datum", "validate_datum"),
    ("hmodule.costandard_table", "hmodule", "costandard_table", "_on_costandard"),
    ("hmodule.beta", "hmodule", "beta"),
    ("hmodule.c_matrix_columns", "hmodule", "c_matrix_columns", "_on_c_matrix_columns"),
    ("hmodule.t_matrix_columns", "hmodule", "t_matrix_columns"),
    ("hmodule.matrix_apply", "hmodule", "matrix_apply"),
    ("klv.klv_table", "klv", "klv_table", "_on_klv_table"),
    ("klv.verify_klv_table", "klv", "verify_klv_table"),
    ("klv.c_expansion", "klv", "c_expansion"),
    ("klv.parity_check", "klv", "parity_check"),
    ("klv.is_cuspidal", "klv", "is_cuspidal"),
    ("extseries.ext_poincare", "extseries", "ext_poincare"),
    ("extseries.ic_cohomology", "extseries", "ic_cohomology"),
    ("extseries.series_row", "extseries", "series_row"),
    ("laurent.series_add", "laurent", "PoincareSeries.__add__"),
    ("laurent.series_expand", "laurent", "PoincareSeries.expand"),
)

# metrics that depend on a target whose name is not their prefix
DEPENDS = {
    "hecke.p_entries": "hecke.kl_basis",
    "hecke.distinct_polys": "hecke.kl_basis",
    "hecke.kl_basis.bar_calls": "hecke.bar",
    "klv.p_entries": "klv.klv_table",
    "klv.distinct_polys": "klv.klv_table",
    "klv.klv_table.beta_calls": "hmodule.beta",
    "checks.validation.s": "datum.validate_datum",
}


def is_time(metric: str) -> bool:
    return metric.endswith(".s") or metric.endswith(".self_s") or metric.endswith("cpu_s")


def _resolve(module, path: str):
    """(owner, attribute, original) or None when the package lacks it."""
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if inspect.isclass(owner) else getattr(owner, attr, None)
    if original is None or not callable(original):
        return None
    return owner, attr, original


class Tracer:
    def __init__(self):
        self.absent: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []
        # wrappers hold these containers, so reset() clears them in place
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.jobs: list[int] = []
        self.outer: list[bool] = []  # no enclosing span of the same name
        self.stack: list[int] = []
        self.active: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.job = -1
        self._memo: dict = {}
        self._pending: list = []

    # ----------------------------------------------------------- recording

    def reset(self):
        """Forget every span and count (one call per measured pass)."""
        for container in (
            self.names, self.starts, self.ends, self.parents, self.jobs, self.outer,
            self.stack, self.active, self.counts, self._memo, self._pending,
        ):
            container.clear()
        self.job = -1

    def begin_job(self, job: int):
        self.job = job

    def end_job(self):
        """Summarise the tables the job computed, outside every span."""
        counts = self.counts
        for kind, result in self._pending:
            try:
                if kind == "hecke":
                    polys = [p for c in result.table.values() for p in c.terms.values()]
                else:
                    polys = [p for _, _, p in result.rows()]
            except AttributeError:
                self.absent.update((f"{kind}.p_entries", f"{kind}.distinct_polys"))
                continue
            counts[f"{kind}.p_entries"] += len(polys)
            counts[f"{kind}.distinct_polys"] += len(set(polys))
        self._pending.clear()
        self._memo.clear()

    def _span(self, name, fn, hook=None):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        jobs, outer, stack, active = self.jobs, self.outer, self.stack, self.active

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            depth = active[name] = active[name] + 1
            outer.append(depth == 1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()
                active[name] -= 1
            if hook is not None:
                hook(idx, args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    # --------------------------------------------------------------- hooks

    def _hit(self, key, arg, result) -> bool:
        """Whether this call returned the object an earlier call returned.

        The argument is kept alive until the job ends, so its id is not reused.
        """
        seen = self._memo.get(key)
        self._memo[key] = (arg, result)
        return seen is not None and seen[1] is result

    def _on_kl_basis(self, idx, args, result):
        if self._hit(("kl_basis", id(args[0])), args[0], result):
            self.counts["hecke.kl_basis.hits"] += 1
        else:
            self._pending.append(("hecke", result))

    def _on_klv_table(self, idx, args, result):
        if self._hit(("klv_table", id(args[0])), args[0], result):
            self.counts["klv.klv_table.hits"] += 1
        else:
            self._pending.append(("klv", result))

    def _on_c_matrix_columns(self, idx, args, result):
        if self._hit(("c_mats", id(args[0]), args[1]), args[0], result):
            self.counts["hmodule.c_matrix_columns.hits"] += 1

    def _on_costandard(self, idx, args, result):
        self.names[idx] = f"hmodule.costandard_table.{result[1]}"

    def _on_check(self, idx, args, result):
        label = getattr(result, "name", None)
        if isinstance(label, str) and hasattr(result, "passed"):
            self.names[idx] = f"checks.{label}"

    def _on_load_datum(self, idx, args, result):
        if isinstance(args[0], (str, bytes)):
            self.counts["datum.load_datum.bytes"] += len(args[0])

    def _leq_bruhat(self, fn):
        """Count every call, recursion included; span only the outermost."""
        counts, active = self.counts, self.active
        spanned = self._span("coxeter.leq_bruhat", fn)

        def wrapper(*args):
            counts["coxeter.leq_bruhat.calls"] += 1
            if active["coxeter.leq_bruhat"]:
                return fn(*args)
            return spanned(*args)

        return wrapper

    def _bar(self, fn):
        counts, names, stack = self.counts, self.names, self.stack

        def wrapper(*args):
            if stack and names[stack[-1]] == "hecke.kl_basis":
                counts["hecke.kl_basis.bar_calls"] += 1
            return fn(*args)

        return wrapper

    # ------------------------------------------------------------- install

    def _bind(self, target: str, module_name: str, path: str, make):
        module = importlib.import_module(f"klvwb.{module_name}")
        found = _resolve(module, path)
        if found is None:
            self.absent.add(target)
            return
        owner, attr, original = found
        wrapper = make(original)
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))
        if inspect.ismodule(owner):
            # rebind copies made by `from .x import name` elsewhere in the package
            for name, mod in list(sys.modules.items()):
                if mod is owner or not name.startswith("klvwb"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def install(self):
        for target, module, path, *hook in SPANS:
            hook = getattr(self, hook[0]) if hook else None
            self._bind(target, module, path, lambda f, t=target, h=hook: self._span(t, f, h))
        self._bind("coxeter.leq_bruhat", "coxeter", "CoxeterSystem.leq_bruhat", self._leq_bruhat)
        self._bind("hecke.bar", "hecke", "HeckeElt.bar", self._bar)

        checks = importlib.import_module("klvwb.checks")
        for name, fn in list(vars(checks).items()):
            if inspect.isfunction(fn) and fn.__module__ == checks.__name__:
                target = f"checks.{name}"
                self._bind(target, "checks", name, lambda f, t=target: self._span(t, f, self._on_check))

        # the kernel is laurent.ops today; folded into laurent it is found there
        ops = "ops." if hasattr(importlib.import_module("klvwb.laurent"), "ops") else ""
        for fn in KERNEL:
            target = f"laurent.kernel.{fn}"
            self._bind(target, "laurent", ops + fn, lambda f, t=target: self._count(t + ".calls", f))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    # ------------------------------------------------------------- summary

    def summary(self) -> dict[str, float]:
        """Per-layer times and counts of the spans recorded since reset()."""
        names, parents, outer = self.names, self.parents, self.outer
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, float] = defaultdict(int)
        for i, name in enumerate(names):
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += dur[i] - child[i]
            out[f"{name}.calls"] += 1
            if outer[i]:
                out[f"{name}.s"] += dur[i]
            p = parents[i]
            parent = names[p] if p >= 0 else ""
            if name == "datum.validate_datum" and parent == "checks.run_check_suites":
                out["checks.validation.s"] += dur[i]
            elif name == "hmodule.beta" and parent == "klv.klv_table":
                out["klv.klv_table.beta_calls"] += 1
        for origin in ("given", "derived"):
            out["hmodule.costandard_table.s"] += out.get(f"hmodule.costandard_table.{origin}.s", 0.0)
            out["hmodule.costandard_table.calls"] += out.get(
                f"hmodule.costandard_table.{origin}.calls", 0
            )
        out.update(self.counts)  # exact counts win over span counts (leq_bruhat)
        for name in ("hecke.kl_basis", "klv.klv_table", "hmodule.c_matrix_columns"):
            calls = out.get(f"{name}.calls", 0)
            out[f"{name}.hit_ratio"] = out.get(f"{name}.hits", 0) / calls if calls else 0.0
        return dict(out)

    def is_absent(self, metric: str) -> bool:
        dep = DEPENDS.get(metric)
        return any(a == metric or a == dep or metric.startswith(a + ".") for a in self.absent)

    def write_spans(self, path, pass_no: int, append: bool):
        with gzip.open(path, "at" if append else "wt", newline="") as handle:
            out = csv.writer(handle)
            if not append:
                out.writerow(("pass", "job", "span", "name", "start", "end", "parent"))
            for i, name in enumerate(self.names):
                out.writerow(
                    (pass_no, self.jobs[i], i, name, f"{self.starts[i]:.7f}",
                     f"{self.ends[i]:.7f}", self.parents[i])
                )
