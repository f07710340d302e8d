"""Outside-in span tracer for agcalc's public functions.

The program is not edited: the tracer swaps every binding of each traced
function object, in every ``agcalc.*`` module namespace and in the class
dictionaries of ``SparsePoly`` and ``Report``, for a wrapper that records a
span.  ``inversion``, ``lab`` and ``cli`` import ``compose``, ``det``,
``lambda_pow``, ``lambda_apply`` and ``invert_fixed_point`` by name, so
patching the defining module alone would miss those call sites;
``assert_covered`` checks that no namespace still holds an original.

A span is ``[name, start, end, parent span index, item id]``.  Spans stay in
memory and are written once, when the run ends.  A span's self time is its
duration minus the time its child spans cover, minus the tracer's own
bookkeeping that ran inside it (the work counts below are computed between
spans and charged to no layer).
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (module, attribute or Class.method, span name); mul and det pick their
# span name per call from the input property their dispatch reads.
TARGETS = (
    ("agcalc.poly", "SparsePoly.mul", "poly.mul"),
    ("agcalc.poly", "SparsePoly.diff_z_multi", "poly.diff_z_multi"),
    ("agcalc.poly", "compose", "poly.compose"),
    ("agcalc.poly", "det", "poly.det"),
    ("agcalc.weyl", "lambda_apply", "weyl.lambda_apply"),
    ("agcalc.weyl", "lambda_pow", "weyl.lambda_pow"),
    ("agcalc.weyl", "phi_apply", "weyl.phi_apply"),
    ("agcalc.weyl", "normal_order", "weyl.normal_order"),
    ("agcalc.inversion", "invert_fixed_point", "inversion.invert_fixed_point"),
    ("agcalc.inversion", "invert_ag", "inversion.invert_ag"),
    ("agcalc.inversion", "invert_lambda", "inversion.invert_lambda"),
    ("agcalc.inversion", "verify_round_trip", "inversion.verify_round_trip"),
    ("agcalc.inversion", "ag_jacobian_identity", "inversion.ag_jacobian_identity"),
    ("agcalc.inversion", "xi_moment_series", "inversion.xi_moment_series"),
    ("agcalc.inversion", "verify_phi_exponential", "inversion.verify_phi_exponential"),
    ("agcalc.lab", "is_nilpotent", "lab.is_nilpotent"),
    ("agcalc.lab", "vanishing_scan_poly", "lab.vanishing_scan_poly"),
    ("agcalc.lab", "gt_jacobian_series", "lab.gt_jacobian_series"),
    ("agcalc.lab", "nt_pairing_series", "lab.nt_pairing_series"),
    ("agcalc.lab", "check_equivalences", "lab.check_equivalences"),
    ("agcalc.lab", "gen_corpus", "lab.gen_corpus"),
    ("agcalc.cli", "main", "cli.main"),
    ("agcalc.cli", "verify_suite", "cli.verify_suite"),
    ("agcalc.mapfile", "load_map_file", "mapfile.load_map_file"),
    ("agcalc.mapfile", "parse_poly", "mapfile.parse_poly"),
    ("agcalc.report", "Report.to_json", "report.Report.to_json"),
    ("agcalc.report", "Report.to_text", "report.Report.to_text"),
)

_MISSING = object()

SPAN_NAMES = tuple(sorted(
    {name for _, _, name in TARGETS if name not in ("poly.mul", "poly.det")}
    | {"poly.mul.trunc", "poly.mul.full", "poly.det.small", "poly.det.large"}))


def _zdeg_hist(p) -> dict[int, int]:
    zd = p.vars.z_degree
    hist: dict[int, int] = defaultdict(int)
    for e in p.sorted_exponents():
        hist[zd(e)] += 1
    return hist


class Tracer:
    """Collects spans and work counts while installed; restores on uninstall."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.excluded: dict[int, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.item = -1
        self._stack: list[int] = []
        self._swapped: list[tuple[dict, str, object]] = []
        self._originals: dict[int, object] = {}

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        importlib.import_module("agcalc.cli")  # imports every other agcalc module
        replacement: dict[int, object] = {}
        owners = []
        for modname, attr, span in TARGETS:
            mod = sys.modules[modname]
            if "." in attr:
                cls_name, fn_name = attr.split(".")
                owner = getattr(mod, cls_name)
                owners.append((owner, fn_name))
            else:
                owner, fn_name = mod, attr
            orig = vars(owner)[fn_name]
            self._originals[id(orig)] = orig
            replacement[id(orig)] = self._wrap(orig, span)
        namespaces = [vars(sys.modules[m]) for m in self._agcalc_modules()]
        for ns in namespaces:
            for key, value in list(ns.items()):
                if self._is_original(value):
                    self._swap(ns, key, replacement[id(value)])
        for owner, fn_name in owners:
            orig = vars(owner)[fn_name]
            self._swap(owner, fn_name, replacement[id(orig)])

    def _swap(self, target, key, value) -> None:
        if isinstance(target, dict):
            self._swapped.append((target, key, target[key]))
            target[key] = value
        else:
            self._swapped.append((target, key, vars(target)[key]))
            setattr(target, key, value)

    def uninstall(self) -> None:
        while self._swapped:
            target, key, orig = self._swapped.pop()
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)

    def _is_original(self, value) -> bool:
        return self._originals.get(id(value), _MISSING) is value

    @staticmethod
    def _agcalc_modules() -> list[str]:
        return sorted(m for m in sys.modules if m == "agcalc" or m.startswith("agcalc."))

    def assert_covered(self) -> None:
        """Raise if any agcalc namespace or class still binds an unwrapped original."""
        stale = []
        for modname in self._agcalc_modules():
            ns = vars(sys.modules[modname])
            for key, value in ns.items():
                if self._is_original(value):
                    stale.append(f"{modname}.{key}")
                if isinstance(value, type) and value.__module__.startswith("agcalc"):
                    for ckey, cvalue in vars(value).items():
                        if self._is_original(cvalue):
                            stale.append(f"{modname}.{key}.{ckey}")
        if stale:
            raise RuntimeError("tracer left unwrapped originals: " + ", ".join(sorted(set(stale))))

    # -- spans -----------------------------------------------------------

    def _wrap(self, orig, span: str):
        before, after, namer = _HOOKS.get(span, (None, None, None))
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            name = namer(args, kwargs) if namer else span
            state = None
            if before is not None:
                t0 = clock()
                state = before(tracer, name, args, kwargs)
                tracer._charge(clock() - t0)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            idx = len(tracer.spans)
            record = [name, 0.0, 0.0, parent, tracer.item]
            tracer.spans.append(record)
            tracer.calls[name] += 1
            stack.append(idx)
            record[1] = clock()
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                t0 = clock()
                after(tracer, name, result, state)
                tracer._charge(clock() - t0)
            return result

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", span)
        wrapper.__qualname__ = getattr(orig, "__qualname__", span)
        wrapper.__doc__ = orig.__doc__
        return wrapper

    def _charge(self, seconds: float) -> None:
        if self._stack:
            self.excluded[self._stack[-1]] += seconds

    def self_seconds(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _item in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _parent, _item) in enumerate(self.spans):
            out[name] += (end - start) - covered[idx] - self.excluded.get(idx, 0.0)
        return out

    def summary(self) -> dict:
        """Per-span-name calls, errors and self seconds, plus the work counts."""
        return {"calls": dict(self.calls), "errors": dict(self.errors),
                "self_s": dict(self.self_seconds()), "counts": dict(self.counts)}


# -- work counts, computed outside every span ----------------------------


def _mul_name(args, kwargs):
    trunc = args[2] if len(args) > 2 else kwargs.get("trunc")
    return "poly.mul.full" if trunc is None else "poly.mul.trunc"


def _mul_before(tr: Tracer, name, args, kwargs):
    a, b = args[0], args[1]
    if name == "poly.mul.full":
        tr.counts["poly.mul.full.pairs"] += len(a.sorted_exponents()) * len(b.sorted_exponents())
        return None
    trunc = args[2] if len(args) > 2 else kwargs.get("trunc")
    ha, hb = _zdeg_hist(a), _zdeg_hist(b)
    tr.counts["poly.mul.trunc.pairs"] += sum(ha.values()) * sum(hb.values())
    tr.counts["poly.mul.trunc.pairs_in_window"] += sum(
        ca * cb for da, ca in ha.items() for db, cb in hb.items() if da + db <= trunc)
    return None


def _mul_after(tr: Tracer, name, result, _state):
    terms = len(result.sorted_exponents())
    tr.counts[name + ".terms_out"] += terms
    if terms > tr.counts["poly.mul.peak_terms"]:
        tr.counts["poly.mul.peak_terms"] = terms


def _det_name(args, kwargs):
    return "poly.det.small" if args[0].dim <= 4 else "poly.det.large"


def _lambda_apply_before(tr: Tracer, name, args, kwargs):
    tr.counts["weyl.lambda_apply.terms_in"] += len(args[0].sorted_exponents())


def _fixed_point_before(tr: Tracer, name, args, kwargs):
    return args[0].n, tr.calls["poly.compose"]


def _fixed_point_after(tr: Tracer, name, result, state):
    n, composes_before = state
    tr.counts["inversion.fixed_point.passes"] += (tr.calls["poly.compose"] - composes_before) // n


def _report_after(tr: Tracer, name, result, _state):
    tr.counts["report.bytes_out"] += len(result.encode("utf-8"))


def _main_after(tr: Tracer, name, result, _state):
    if result != 0:
        tr.errors[name] += 1


_HOOKS = {
    "poly.mul": (_mul_before, _mul_after, _mul_name),
    "poly.det": (None, None, _det_name),
    "weyl.lambda_apply": (_lambda_apply_before, None, None),
    "inversion.invert_fixed_point": (_fixed_point_before, _fixed_point_after, None),
    "report.Report.to_json": (None, _report_after, None),
    "report.Report.to_text": (None, _report_after, None),
    "cli.main": (None, _main_after, None),
}


def write_spans(spans, path) -> None:
    """Write spans as tab-separated name, start, end, parent, item lines."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name\tstart\tend\tparent\titem\n")
        for name, start, end, parent, item in spans:
            fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{item}\n")
