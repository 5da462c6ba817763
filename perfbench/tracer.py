"""In-memory span tracer for the benchmark's traced run.

The tracer wraps every public function of every ``elastica_fit`` module and
replaces it in each module namespace that holds it, so calls made inside the
package (``segmentation`` calling its imported ``fit``, ``recovery`` calling
its imported ``segment_eval_many``) are recorded as well as the benchmark's
own calls.  Each call becomes one span: name, start, end, parent span and the
id of the curve being processed.  Spans stay in memory until ``write``.

A span's self time is its duration minus the durations of its child spans;
the calls are made on one thread, so children never overlap.
"""

import functools
import importlib
import inspect
import json
import pkgutil
import time

PACKAGE = "elastica_fit"

#: a fit of at least this many iterations counts as long
LONG_FIT_ITERATIONS = 100


def _target_nodes(args, kwargs, out):
    target = args[1] if len(args) > 1 else kwargs["target"]
    return {"nodes": len(target.t)}


def _out_nodes(args, kwargs, out):
    return {"nodes": len(out)}


def _sample_nodes(args, kwargs, out):
    return {"nodes": len(out.t)}


def _fit_note(args, kwargs, out):
    return {"iterations": out.iterations}


def _piecewise_note(args, kwargs, out):
    return {"leaves": out.n_segments}


#: what each span records about its call, beyond its timing
NOTES = {
    "curve.sample": _sample_nodes,
    "elastica.segment_eval_many": _out_nodes,
    "fitting.objective": _target_nodes,
    "fitting.gradient_hessian": _target_nodes,
    "fitting.fit": _fit_note,
    "segmentation.fit_piecewise": _piecewise_note,
}


def package_modules():
    """The package and all its submodules, imported."""
    pkg = importlib.import_module(PACKAGE)
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
    return mods


class Tracer:
    """Records spans of the wrapped package functions while installed."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.curves = []
        self.notes = []
        self.curve_id = None
        self._stack = []
        self._patches = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.curves.append(self.curve_id)
            self.ends.append(0.0)
            self.notes.append(None)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
                self.notes[idx] = {"error": type(exc).__name__}
                raise
            self.ends[idx] = time.perf_counter()
            self._stack.pop()
            if note is not None:
                self.notes[idx] = note(args, kwargs, out)
            return out

        return traced

    def install(self):
        """Wrap every public function of the package in every namespace."""
        mods = package_modules()
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self.wrap(f"{short}.{attr}", fn)
                for ns in mods:
                    for ns_attr, val in list(vars(ns).items()):
                        if val is fn:
                            self._patches.append((ns, ns_attr, fn))
                            setattr(ns, ns_attr, wrapped)
        return self

    def uninstall(self):
        for ns, attr, fn in reversed(self._patches):
            setattr(ns, attr, fn)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def durations(self):
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self):
        dur = self.durations()
        out = list(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                out[p] -= dur[i]
        return out

    def inside(self, name):
        """Per span: whether some ancestor span has the given name."""
        flags = [False] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                flags[i] = flags[p] or self.names[p] == name
        return flags

    def curve_breakdown(self, curve_id, wall):
        """Self time per span name for one curve, and the remainder of the
        curve's wall time that no span covers."""
        selfs = self.self_times()
        by_name = {}
        for i, c in enumerate(self.curves):
            if c == curve_id:
                by_name[self.names[i]] = by_name.get(self.names[i], 0.0) \
                    + selfs[i]
        return by_name, wall - sum(by_name.values())

    def write(self, path):
        names = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(names)}
        doc = {
            "columns": ["name", "start", "end", "parent", "curve"],
            "names": names,
            "spans": [[ids[n], s, e, p, c] for n, s, e, p, c in zip(
                self.names, self.starts, self.ends, self.parents,
                self.curves)],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr, curve_walls):
    """Per-layer metrics of one traced pass.

    ``curve_walls`` maps each traced curve id to its wall time.  Totals are
    over the whole pass, so they compare across commits only for the same
    workload and size.
    """
    selfs = tr.self_times()
    dur = tr.durations()
    agg = {}
    for i, name in enumerate(tr.names):
        a = agg.setdefault(name, {"calls": 0, "self_s": 0.0, "nodes": 0,
                                  "errors": 0})
        a["calls"] += 1
        a["self_s"] += selfs[i]
        note = tr.notes[i] or {}
        a["nodes"] += note.get("nodes", 0)
        a["errors"] += "error" in note

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    def us_per_node(name):
        return 1e6 * _ratio(get(name, "self_s"), get(name, "nodes"))

    in_fit = tr.inside("fitting.fit")
    in_pw = tr.inside("segmentation.fit_piecewise")
    fits = [i for i, n in enumerate(tr.names) if n == "fitting.fit"]
    fit_notes = [tr.notes[i] or {} for i in fits]
    iterations = sum(n.get("iterations", 0) for n in fit_notes)
    fit_time = sum(dur[i] for i in fits)
    long_fit_time = sum(dur[i] for i, n in zip(fits, fit_notes)
                        if n.get("iterations", 0) >= LONG_FIT_ITERATIONS)
    objective_in_fit = sum(1 for i, n in enumerate(tr.names)
                           if n == "fitting.objective" and in_fit[i])
    pw_fits = sum(1 for i in fits if in_pw[i])
    pw_samples = sum(1 for i, n in enumerate(tr.names)
                     if n == "curve.sample" and in_pw[i])
    leaves = sum((tr.notes[i] or {}).get("leaves", 0)
                 for i, n in enumerate(tr.names)
                 if n == "segmentation.fit_piecewise")
    guesses = [tr.notes[i] or {} for i, n in enumerate(tr.names)
               if n == "recovery.initial_guess"]
    rejected = sum(g.get("error") == "DegenerateInputError" for g in guesses)
    wall = sum(curve_walls.values())
    covered = sum(dur[i] for i, p in enumerate(tr.parents) if p < 0)

    m = {
        "curve.sample.calls": (get("curve.sample", "calls"), "count"),
        "curve.sample.self_s": (get("curve.sample", "self_s"), "s"),
        "curve.sample.us_per_node": (us_per_node("curve.sample"), "us"),
        "curve.sample.reject_frac": (
            _ratio(get("curve.sample", "errors"),
                   get("curve.sample", "calls")), "1"),
        "elastica.segment_eval.self_s": (
            get("elastica.segment_eval", "self_s"), "s"),
        "elastica.segment_eval_many.calls": (
            get("elastica.segment_eval_many", "calls"), "count"),
        "elastica.segment_eval_many.us_per_node": (
            us_per_node("elastica.segment_eval_many"), "us"),
    }
    for fn in ("initial_guess", "affine_curvature_fit",
               "recover_arc_interval", "recover_translation"):
        m[f"recovery.{fn}.self_s"] = (get(f"recovery.{fn}", "self_s"), "s")
    m["recovery.degenerate_frac"] = (_ratio(rejected, len(guesses)), "1")
    for fn in ("gradient_hessian", "objective"):
        name = f"fitting.{fn}"
        m[f"{name}.calls"] = (get(name, "calls"), "count")
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")
        m[f"{name}.us_per_node"] = (us_per_node(name), "us")
    m.update({
        "fitting.fit.calls": (get("fitting.fit", "calls"), "count"),
        "fitting.fit.self_s": (get("fitting.fit", "self_s"), "s"),
        "fitting.iterations": (iterations, "count"),
        "fitting.s_per_iteration": (_ratio(fit_time, iterations), "s"),
        "fitting.objective_per_iteration": (
            _ratio(objective_in_fit, iterations), "1"),
        "fitting.long_fit_time_frac": (_ratio(long_fit_time, wall), "1"),
        "segmentation.fit_piecewise.self_s": (
            get("segmentation.fit_piecewise", "self_s"), "s"),
        "segmentation.fits_per_curve": (
            _ratio(pw_fits, get("segmentation.fit_piecewise", "calls")), "1"),
        "segmentation.leaf_ratio": (_ratio(leaves, pw_fits), "1"),
        "segmentation.samples_per_fit": (_ratio(pw_samples, pw_fits), "1"),
        "trace.spans": (len(tr.names), "count"),
        "trace.unattributed_frac": (_ratio(wall - covered, wall), "1"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
