"""Outside-in tracing of nazeta: wrap module functions from the benchmark.

Every public function of every `nazeta` module, plus the hot methods named
in HOT_METHODS, is replaced by a timing wrapper in each module namespace
that holds it by name (and in module-level tuples such as the criterion
list).  The wrapper keeps per-function call counts with inclusive and self
time, per-layer inclusive and self time, and a few size observations.

Spans are kept in memory, one per call that crosses into another layer,
except for hot inner operations (all of `algebra`, `multivar`, `curve` and
`compositions`, and the per-Weyl-term builders), which are aggregated
only.  A layer is the module a function is defined in.
"""

from __future__ import annotations

import inspect
import os
import sys
import time

LAYERS = (
    "cli", "acceptance", "numfield", "purezeta", "compositions", "groupzeta",
    "residues", "multivar", "rootsys", "curve", "algebra",
)
HOT_LAYERS = {"algebra", "multivar", "curve", "compositions"}
HOT_NAMES = {"groupzeta.weyl_term", "groupzeta.rational_part",
             "groupzeta.f_factor", "groupzeta.g_factor",
             "residues.weyl_term_full"}
# (module, class or None, attribute): non-public callables worth counting
HOT_METHODS = (
    ("algebra", "Poly", "__mul__"),
    ("algebra", "RationalFunction", "make"),
    ("algebra", None, "_companion_roots"),
    ("multivar", "LaurentPoly", "__mul__"),
    ("multivar", "LaurentPoly", "divide_linear_at_one"),
    ("multivar", "MultiRationalFunction", "make"),
    ("cli", None, "_emit_json"),
)
MAX_SPANS = 50_000


def _coeff_bits(coeffs) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs),
        default=0,
    )


class Tracer:
    def __init__(self):
        self.t_start = time.perf_counter()
        self.stack: list[list] = []  # [layer, child_time, span_id]
        self.depth = dict.fromkeys(LAYERS, 0)
        self.stats: dict[str, list] = {}  # name -> [calls, incl_s, self_s]
        self.layer_incl = dict.fromkeys(LAYERS, 0.0)
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.obs = {
            "max_degree": 0, "max_coeff_bits": 0, "max_terms": 0,
            "enumerated": 0, "terms_total": 0, "terms_vanished": 0,
            "json_bytes": 0,
        }
        self.zeta_keys: set = set()

    # -- observers: size facts read off arguments and results ---------

    def _observe(self, name, args, result):
        o = self.obs
        if name == "algebra.Poly.__mul__":
            o["max_degree"] = max(o["max_degree"], len(result.coeffs) - 1)
        elif name == "algebra.RationalFunction.make":
            o["max_degree"] = max(o["max_degree"], result.num.degree, result.den.degree)
            o["max_coeff_bits"] = max(
                o["max_coeff_bits"],
                _coeff_bits(result.num.coeffs), _coeff_bits(result.den.coeffs),
            )
        elif name == "multivar.MultiRationalFunction.make":
            o["max_terms"] = max(o["max_terms"], len(result.num.terms), len(result.den.terms))
        elif name == "curve.completed_zeta_factor":
            c, k, h = args[:3]
            self.zeta_keys.add((c.g, c.q, c.P.coeffs, k, h))
        elif name == "compositions.compositions":
            o["enumerated"] += len(result)
        elif name == "residues.iterated_residue":
            o["terms_total"] += 1
            o["terms_vanished"] += result.is_zero()
        elif name == "cli._emit_json":
            path = args[1] if len(args) > 1 else None
            if path:
                o["json_bytes"] += os.path.getsize(path)

    OBSERVED = {
        "algebra.Poly.__mul__", "algebra.RationalFunction.make",
        "multivar.MultiRationalFunction.make", "curve.completed_zeta_factor",
        "compositions.compositions", "residues.iterated_residue", "cli._emit_json",
    }

    # -- wrapping -------------------------------------------------------

    def wrap(self, layer: str, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, depth = self.stack, self.depth
        clock = time.perf_counter
        hot = layer in HOT_LAYERS or name in HOT_NAMES
        observe = name in self.OBSERVED
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = parent[2] if parent else None
            open_span = not hot and (parent is None or parent[0] != layer)
            if open_span:
                span_id = len(tracer.spans) + tracer.spans_dropped
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            depth[layer] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[layer] -= 1
                dur = t1 - t0
                own = dur - frame[1]
                stat[0] += 1
                stat[1] += dur
                stat[2] += own
                tracer.layer_self[layer] += own
                if depth[layer] == 0:
                    tracer.layer_incl[layer] += dur
                if parent is not None:
                    parent[1] += dur
                if open_span:
                    if len(tracer.spans) < MAX_SPANS:
                        tracer.spans.append((
                            span_id, parent[2] if parent else None, name,
                            t0 - tracer.t_start, t1 - tracer.t_start,
                        ))
                    else:
                        tracer.spans_dropped += 1
            if observe:
                tracer._observe(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Wrap and patch every nazeta module namespace in place."""
        mods = {
            m.__name__.split(".", 1)[1]: m
            for m in list(sys.modules.values())
            if getattr(m, "__name__", "").startswith("nazeta.")
        }
        wrapped: dict[int, object] = {}
        for layer, mod in mods.items():
            if layer not in LAYERS:
                continue
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[id(obj)] = self.wrap(layer, f"{layer}.{attr}", obj)
        for layer, cls_name, attr in HOT_METHODS:
            mod = mods[layer]
            if cls_name is None:
                fn = getattr(mod, attr)
                wrapped[id(fn)] = self.wrap(layer, f"{layer}.{attr}", fn)
                continue
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            w = self.wrap(layer, f"{layer}.{cls_name}.{attr}", fn)
            setattr(cls, attr, staticmethod(w) if is_static else w)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, tuple) and any(id(x) in wrapped for x in obj):
                    setattr(mod, attr, tuple(wrapped.get(id(x), x) for x in obj))

    # -- output ----------------------------------------------------------

    def report(self, job_id: str, speed: float) -> dict:
        """Counts as measured; times multiplied by ``speed`` (reference
        seconds per measured second, see job.py), except span times."""
        return {
            "job": job_id,
            "functions": {
                k: [n, incl * speed, own * speed] for k, (n, incl, own) in self.stats.items()
            },
            "layer_incl": {k: v * speed for k, v in self.layer_incl.items()},
            "layer_self": {k: v * speed for k, v in self.layer_self.items()},
            "obs": dict(self.obs, distinct_keys=len(self.zeta_keys)),
            "spans": [[job_id, *s] for s in self.spans],
            "spans_dropped": self.spans_dropped,
        }
