"""Spans and exact counters for the traced benchmark run.

The tracer wraps hrlab's public functions from outside the package.  Every
module that bound a wrapped name at import time (``bilinear`` and
``augmentation`` import ``wedge``, ``cli`` imports ``schur`` and so on) gets
the wrapper too, so each call goes through exactly one span whichever module
it came from.  Spans stay in memory as ``(name, start, end, parent, instance)``
tuples and are written out once, when the run ends.

Exact counts come from call arguments and results, never from timing, so two
traced runs of the same seed report identical counts.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from collections import Counter, defaultdict

# Modules of src/hrlab, in stack order.  `gaussian` gets no wrappers: its
# arithmetic is called per coefficient, so its time stays inside the self
# time of `exterior.wedge` and `bilinear.signature`.
LAYERS = ("gaussian", "exterior", "symfunc", "bilinear", "augmentation", "positivity", "sampling", "cli")
WRAPPED_LAYERS = LAYERS[1:]

# Public helpers called once per monomial pair, per ring element or per
# coefficient draw.  A span on them would cost more than the work inside it,
# so their time is left in the self time of the caller.  Also the two halves
# of sampling.random_positive_form, their only caller in hrlab, so that the
# whole draw of a form is that function's self time.
UNWRAPPED = {
    "exterior": {"mask_of", "indices_of", "monomial_wedge", "hermitian_to_form"},
    "symfunc": {
        "elementary_elements",
        "schur_elements",
        "derived_schur_all_elements",
        "derived_schur_elements",
        "twisted_chern_elements",
    },
    "sampling": {"random_gaussian_rational", "random_positive_hermitian"},
}

# Methods that carry their own per-layer metric.
METHODS = {"augmentation": {"FormFamily": ("at", "derivative")}}

# A span of this name covers the counting work done after a call returns, so
# that counting is charged to no layer of the program.
COUNT_SPAN = "perfbench.count"


def _fraction_bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _count_wedge(tracer, args, out):
    a, b = args
    tracer.counts["exterior.wedge.pairs_tried"] += len(a.terms) * len(b.terms)
    tracer.counts["exterior.wedge.terms_out"] += len(out.terms)


def _note_coeff_bits(tracer, forms):
    """Largest numerator or denominator of a coefficient component of `forms`."""
    bits = max(
        (max(_fraction_bits(c.re), _fraction_bits(c.im)) for f in forms for c in f.terms.values()),
        default=0,
    )
    tracer.maxima["gaussian.coeff_max_bits"] = max(tracer.maxima["gaussian.coeff_max_bits"], bits)


def _count_schur(tracer, args, out):
    lam = args[0]
    tracer.counts["symfunc.schur.jt_terms"] += math.factorial(len(getattr(lam, "parts", lam)))
    _note_coeff_bits(tracer, [out])


def _count_derived_schur(tracer, args, out):
    _note_coeff_bits(tracer, out)


def _count_signature(tracer, args, out):
    rows = args[0].matrix
    tracer.counts["bilinear.signature.n3"] += len(rows) ** 3
    bits = max((_fraction_bits(x) for row in rows for x in row), default=0)
    tracer.maxima["bilinear.signature.max_bits"] = max(tracer.maxima["bilinear.signature.max_bits"], bits)


def _count_intersection_form(tracer, args, out):
    space, lam, i = args
    tracer.distinct_forms.add((tracer.instance, id(space), tuple(getattr(lam, "parts", lam)), i))


HOOKS = {
    "exterior.wedge": _count_wedge,
    "symfunc.schur": _count_schur,
    "symfunc.derived_schur_all": _count_derived_schur,
    "bilinear.signature": _count_signature,
    "augmentation.intersection_form": _count_intersection_form,
}


class Tracer:
    """Records spans and counts for calls into one imported copy of hrlab.

    `instance` labels the spans of the call in progress; counts accumulate
    only while `counting` is set, so set-up and warm-up stay out of them.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.instance = None
        self.counting = False
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.distinct_forms: set = set()

    def install(self, modules: dict, rebind_in) -> None:
        """Wrap the public functions of `modules` (layer name -> module).

        Only the modules of WRAPPED_LAYERS get wrappers.  Rebinds every
        module-level name that refers to a wrapped function in each module of
        `rebind_in`.
        """
        wrappers = {}
        for layer in WRAPPED_LAYERS:
            mod = modules[layer]
            skip = UNWRAPPED.get(layer, set())
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr not in skip
                ):
                    name = f"{layer}.{attr}"
                    wrappers[fn] = self._wrap(name, fn, HOOKS.get(name))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = vars(cls)[meth]
                    setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn, None))
        for mod in rebind_in:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.instance)
            if tracer.counting:
                tracer.counts[name + ".calls"] += 1
                if hook is not None:
                    hook(tracer, args, out)
                    spans.append((COUNT_SPAN, end, clock(), parent, tracer.instance))
            return out

        return traced

    def dump(self, path) -> None:
        """Write every span, one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of its interval its children cover."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def _under(spans, ancestor: str) -> list[bool]:
    """For each span, whether some span above it is named `ancestor`."""
    flags = []
    for name, _, _, parent, _ in spans:
        flags.append(parent >= 0 and (flags[parent] or spans[parent][0] == ancestor))
    return flags


def layer_metrics(spans, first: int, instances: set) -> dict[str, float]:
    """Self and scoped wedge times of the spans from index `first` on.

    Only spans labelled with one of `instances` count, and the sampling
    layer's spans labelled "setup": drawing inputs is the set-up's own work.
    """
    spans = spans[first:]
    # Parent indices are absolute; rebase them onto the slice.
    spans = [(n, s, e, p - first if p >= first else -1, i) for n, s, e, p, i in spans]
    selfs = self_times(spans)
    under_schur = _under(spans, "symfunc.schur")
    under_gram = _under(spans, "bilinear.gram")
    by_name = Counter()
    by_layer = Counter()
    wedge_schur = wedge_gram = 0.0
    for idx, ((name, start, end, _, inst), self_s) in enumerate(zip(spans, selfs)):
        layer = name.split(".")[0]
        if inst in instances or (inst == "setup" and layer == "sampling"):
            by_name[name] += self_s
            by_layer[layer] += self_s
        if name == "exterior.wedge" and inst in instances:
            wedge_schur += (end - start) * under_schur[idx]
            wedge_gram += (end - start) * under_gram[idx]
    out = {
        "exterior.wedge.schur_s": wedge_schur,
        "exterior.wedge.gram_s": wedge_gram,
    }
    for name in (
        "exterior.wedge",
        "exterior.top_ratio",
        "symfunc.schur",
        "symfunc.derived_schur_all",
        "bilinear.gram",
        "bilinear.signature",
        "augmentation.FormFamily.at",
        "positivity.is_positive_definite_11",
        "cli.main",
        "sampling.random_positive_form",
    ):
        out[f"{name}.self_s"] = by_name[name]
    out["augmentation.check_property.self_s"] = (
        by_name["augmentation.check_property_a"] + by_name["augmentation.check_property_b"]
    )
    for layer in WRAPPED_LAYERS:
        out[f"layer.{layer}.self_s"] = by_layer[layer]
    return out


def count_metrics(tracer: Tracer) -> dict[str, float]:
    """The exact counts gathered while `tracer.counting` was set, with ratios."""
    c = tracer.counts
    pairs = c["exterior.wedge.pairs_tried"]
    forms = c["augmentation.intersection_form.calls"]
    distinct = len(tracer.distinct_forms)
    return {
        "exterior.wedge.calls": c["exterior.wedge.calls"],
        "exterior.wedge.pairs_tried": pairs,
        "exterior.wedge.terms_out": c["exterior.wedge.terms_out"],
        # base: exterior.wedge.pairs_tried
        "exterior.wedge.kept_ratio": c["exterior.wedge.terms_out"] / pairs if pairs else 0.0,
        "symfunc.schur.calls": c["symfunc.schur.calls"],
        "symfunc.schur.jt_terms": c["symfunc.schur.jt_terms"],
        "bilinear.signature.calls": c["bilinear.signature.calls"],
        "bilinear.signature.n3": c["bilinear.signature.n3"],
        "bilinear.signature.max_bits": tracer.maxima["bilinear.signature.max_bits"],
        "gaussian.coeff_max_bits": tracer.maxima["gaussian.coeff_max_bits"],
        "augmentation.intersection_form.calls": forms,
        "augmentation.intersection_form.distinct": distinct,
        # base: augmentation.intersection_form.calls
        "augmentation.intersection_form.hit_ratio": 1 - distinct / forms if forms else 0.0,
    }
