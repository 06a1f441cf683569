"""Timing spans around dispest's public functions, for the traced run.

install() wraps the public functions and constructors of each layer and
rebinds every name that points at an original, in every dispest module, so
that callers which imported a name (``from .gaussian import make_tmst``) see
the wrapper too.  Spans (name, start, end, parent) are kept in flat arrays in
memory and written out once, at the end of the run.  Nothing here runs in the
untraced run, which measures the end-to-end metrics.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array

# layer -> (module, public functions, {class: methods}); "__post_init__" is
# the constructor's validation and is reported under the class name.
_TARGETS = {
    "gaussian": ("dispest.gaussian",
                 ("symplectic_form", "vacuum", "make_thermal", "squeeze_single",
                  "squeeze_two", "make_squeezed_thermal", "make_tmst", "displace",
                  "phase_rotate", "beamsplit_balanced", "homodyne_marginal",
                  "heterodyne_outcome_cov"),
                 {"GaussianState": ("__post_init__", "purity",
                                    "symplectic_eigenvalues", "reduced"),
                  "SymplecticTransform": ("__post_init__", "apply")}),
    "bounds": ("dispest.bounds",
               ("gaussian_fisher", "bound_sld", "bound_rld", "thresholds",
                "scheme_variance_sum", "gap_D", "prior_fisher_gaussian",
                "scaling_factors", "bound_most_informative"),
               {"BoundQuery": ("__post_init__", "probe_state")}),
    "witness": ("dispest.witness",
                ("duan_check", "duan_best", "scheme_variance_propagated",
                 "sql_beating_vs_entanglement", "asym_n2_threshold",
                 "random_unsqueezed_two_mode"),
                {}),
    "fock": ("dispest.fock",
             ("build_probe_fock", "displace_fock", "sld_fisher_fock",
              "rld_fisher_fock", "moments_fock", "moment_fock",
              "fock_fisher_converged"),
             {"FockOperatorSet": ("tail_mass",)}),
    "montecarlo": ("dispest.montecarlo",
                   ("run_scheme", "run_baseline_heterodyne", "empirical_K_min",
                    "uncertainty_product"),
                   {"EstimationConfig": ("__post_init__",)}),
    "cli": ("dispest.cli",
            ("main", "build_parser", "cmd_bounds", "cmd_simulate", "cmd_figure",
             "cmd_sweep"),
            {}),
}


def _shots_of_config(args, kwargs, result):
    return {"shots": args[0].shots}


def _shots_of_kmin(args, kwargs, result):
    return {"shots": kwargs["shots"] if "shots" in kwargs else args[3]}


def _dim_of_probe(args, kwargs, result):
    return {"dim": result.dim}


# span name -> attributes taken from a successful call
_ON_RESULT = {
    "montecarlo.run_scheme": _shots_of_config,
    "montecarlo.run_baseline_heterodyne": _shots_of_config,
    "montecarlo.empirical_K_min": _shots_of_kmin,
    "fock.build_probe_fock": _dim_of_probe,
}


class Tracer:
    """In-memory span recorder.  One span per wrapped call; the worker opens a
    root span per benchmark operation, so every span belongs to one op."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def root(self, name: str) -> int:
        return self.open(self._intern(name))

    def wrap(self, name: str, fn):
        name_id = self._intern(name)
        on_result = _ON_RESULT.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.attrs.setdefault(i, {})["error"] = type(exc).__name__
                raise
            finally:
                self.close(i)
            if on_result is not None:
                self.attrs.setdefault(i, {}).update(on_result(args, kwargs, result))
            return result

        return wrapper

    def dump(self, path: str) -> None:
        """Write every span as gzip'd JSON: name table plus parallel columns."""
        doc = {"names": self.names, "name": self.name.tolist(),
               "start": self.start.tolist(), "end": self.end.tolist(),
               "parent": self.parent.tolist(),
               "attrs": {str(k): v for k, v in self.attrs.items()}}
        with gzip.open(path, "wt", compresslevel=3) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Wrap the targets and rebind them in every dispest namespace."""
    import importlib

    import dispest
    modules = [dispest] + [importlib.import_module(spec[0])
                           for spec in _TARGETS.values()]
    for layer, (modname, functions, classes) in _TARGETS.items():
        mod = importlib.import_module(modname)
        for fname in functions:
            original = getattr(mod, fname)
            wrapped = tracer.wrap(f"{layer}.{fname}", original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
        for cname, methods in classes.items():
            cls = getattr(mod, cname)
            for meth in methods:
                span = f"{layer}.{cname}" if meth == "__post_init__" \
                    else f"{layer}.{cname}.{meth}"
                original = cls.__dict__[meth]
                if isinstance(original, property):
                    setattr(cls, meth, property(tracer.wrap(span, original.fget)))
                else:
                    setattr(cls, meth, tracer.wrap(span, original))


UNITS = {
    "gaussian.states": "count/op", "gaussian.transforms": "count/op",
    "gaussian.validate_s": "s/op", "gaussian.self_s": "s/op",
    "bounds.points": "count/op", "bounds.point_s": "s", "bounds.self_s": "s/op",
    "witness.calls": "count/op", "witness.self_s": "s/op",
    "fock.points": "count/op", "fock.dims_tried": "count/op",
    "fock.build_yield": "ratio", "fock.final_dim": "dim",
    "fock.build_s": "s/op", "fock.sld_s": "s/op", "fock.rld_s": "s/op",
    "fock.drift_failures": "count/op",
    "montecarlo.shots": "count/op", "montecarlo.shots_per_s": "1/s",
    "montecarlo.run_s": "s/op", "montecarlo.kmin_s": "s/op",
    "cli.calls": "count/op", "cli.self_s": "s/op", "cli.parser_s": "s/op",
    "cli.bytes_out": "B/op",
}


def layer_metrics(tracer: Tracer, ops: int, bytes_out: int) -> dict[str, dict]:
    """Per-layer metrics as {name: {"value", "unit"}}, per benchmark operation
    unless the unit says otherwise (bounds.point_s is per bound point,
    fock.build_yield and fock.final_dim are ratios, montecarlo.shots_per_s is
    a rate)."""
    n = len(tracer.start)
    names = tracer.names
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += dur[i]

    count: dict[str, int] = {}
    total: dict[str, float] = {}
    self_by_layer: dict[str, float] = {}
    for i in range(n):
        name = names[tracer.name[i]]
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[i]
        layer = name.split(".", 1)[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + dur[i] - child[i]

    def c(name):
        return count.get(name, 0)

    def t(name):
        return total.get(name, 0.0)

    # fock: truncations tried are tail_mass calls made by build_probe_fock;
    # a point's final dim is the largest probe it built (the verification)
    tried = 0
    kept = 0
    drift_failures = 0
    largest_dim: dict[int, int] = {}
    for i in range(n):
        name = names[tracer.name[i]]
        p = tracer.parent[i]
        if name == "fock.FockOperatorSet.tail_mass" and p >= 0 \
                and names[tracer.name[p]] == "fock.build_probe_fock":
            tried += 1
        elif name == "fock.build_probe_fock" and "dim" in tracer.attrs.get(i, {}):
            kept += 1
            if p >= 0 and names[tracer.name[p]] == "fock.fock_fisher_converged":
                largest_dim[p] = max(largest_dim.get(p, 0), tracer.attrs[i]["dim"])
        elif name == "fock.fock_fisher_converged" \
                and tracer.attrs.get(i, {}).get("error") == "TruncationError":
            drift_failures += 1

    shots = sum(a.get("shots", 0) for a in tracer.attrs.values())
    mc_run = t("montecarlo.run_scheme") + t("montecarlo.run_baseline_heterodyne")
    mc_kmin = t("montecarlo.empirical_K_min")
    points = c("bounds.bound_most_informative")
    ops = max(ops, 1)
    values = {
        "gaussian.states": c("gaussian.GaussianState") / ops,
        "gaussian.transforms": c("gaussian.SymplecticTransform") / ops,
        "gaussian.validate_s": (t("gaussian.GaussianState")
                                + t("gaussian.SymplecticTransform")) / ops,
        "gaussian.self_s": self_by_layer.get("gaussian", 0.0) / ops,
        "bounds.points": points / ops,
        "bounds.point_s": t("bounds.bound_most_informative") / points if points else 0.0,
        "bounds.self_s": self_by_layer.get("bounds", 0.0) / ops,
        "witness.calls": sum(v for k, v in count.items()
                             if k.startswith("witness.")) / ops,
        "witness.self_s": self_by_layer.get("witness", 0.0) / ops,
        "fock.points": c("fock.fock_fisher_converged") / ops,
        "fock.dims_tried": tried / ops,
        "fock.build_yield": kept / tried if tried else 0.0,
        "fock.final_dim": (sum(largest_dim.values()) / len(largest_dim)
                           if largest_dim else 0.0),
        "fock.build_s": t("fock.build_probe_fock") / ops,
        "fock.sld_s": t("fock.sld_fisher_fock") / ops,
        "fock.rld_s": t("fock.rld_fisher_fock") / ops,
        "fock.drift_failures": drift_failures / ops,
        "montecarlo.shots": shots / ops,
        "montecarlo.shots_per_s": shots / (mc_run + mc_kmin) if shots else 0.0,
        "montecarlo.run_s": mc_run / ops,
        "montecarlo.kmin_s": mc_kmin / ops,
        "cli.calls": c("cli.main") / ops,
        "cli.self_s": self_by_layer.get("cli", 0.0) / ops,
        "cli.parser_s": t("cli.build_parser") / ops,
        "cli.bytes_out": bytes_out / ops,
    }
    return {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
