"""Spans around homspec's public functions, and the per-layer metrics from them.

The tracer replaces each listed function by a wrapper at its module
attribute.  The CLI calls these functions through the module
(``detector.simulate_frames(...)``) and modules call their own siblings
through module globals (``covariance_map`` calls ``raw_coincidences``), so
every such call opens a span.  Spans stay in memory and are written out by
the caller when the run ends.
"""

import importlib
import inspect
import os
import resource
import time

WRAPPED = {
    "cli": ("main",),
    "retrieval": ("fit", "prepare_objective"),
    "detector": ("simulate_frames", "raw_coincidences", "accidental_map", "covariance_map"),
    "zhf": ("write_frames", "read_frames"),
    "mapio": ("write_map_csv", "read_map_csv"),
    "interference": ("coincidence_probability_cosine", "pixel_average", "port_spectra"),
}

ESTIMATORS = ("detector.raw_coincidences", "detector.accidental_map", "detector.covariance_map")
THEORY = tuple(f"interference.{name}" for name in WRAPPED["interference"])


def _raw_pair_products(result, arguments):
    # Every product n+(a) n-(b) adds 1/n_frames to one bin of the raw map.
    n_frames = arguments["batch"].n_frames
    return {"pair_products": int(round(float(result.values.sum()) * n_frames))}


# Counts taken at the span boundary from a call's result and its arguments,
# which are bound to the function's parameter names.
COUNTERS = {
    "retrieval.fit": lambda result, arguments: {"nfev": int(result.iterations)},
    "detector.simulate_frames": lambda result, arguments: {"events": result.n_events},
    "detector.raw_coincidences": _raw_pair_products,
    "zhf.write_frames": lambda result, arguments: {"bytes": os.path.getsize(arguments["path"])},
    "mapio.write_map_csv": lambda result, arguments: {"bytes": os.path.getsize(arguments["path"])},
}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Records one span per call of a wrapped function.

    A span holds its name, start and end (``time.perf_counter`` seconds),
    the id of the span that was open when it started, the process's
    high-water RSS before and after, any counts, and the fields of
    ``context`` at the time of the call (the caller sets round and case).
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.context: dict = {}
        self._open: list[int] = []

    def install(self, package: str) -> None:
        """Wrap the functions of ``WRAPPED`` in the package's modules."""
        for mod_name, func_names in WRAPPED.items():
            module = importlib.import_module(f"{package}.{mod_name}")
            for func_name in func_names:
                fn = getattr(module, func_name)
                setattr(module, func_name, self._wrap(f"{mod_name}.{func_name}", fn))

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._open[-1] if self._open else None,
                **self.context,
            }
            self.spans.append(span)
            self._open.append(span["id"])
            span["rss_before_kb"] = _maxrss_kb()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["rss_after_kb"] = _maxrss_kb()
                self._open.pop()
            if counter is not None:
                span.update(counter(result, signature.bind(*args, **kwargs).arguments))
            return result

        return wrapper


def _number(total: float, rounds: int):
    value = total / rounds
    return int(value) if float(value).is_integer() else value


def layer_metrics(spans: list[dict], rounds: int) -> dict[str, float]:
    """Per-layer metrics of a traced run of ``rounds`` identical rounds.

    Times and counts are per round.  RSS gains are rises of the process's
    high-water mark in the first round, the round peak_rss_mb describes;
    later rounds can raise it further through the allocator's reuse of
    freed memory.  Self time is a span's duration minus the durations of
    its children, which never overlap in one thread.
    """
    by_id = {s["id"]: s for s in spans}
    child_time = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def select(names, case=None, outermost=False):
        chosen = []
        for s in spans:
            if s["name"] not in names or (case is not None and s.get("case") != case):
                continue
            if outermost and s["parent"] is not None and by_id[s["parent"]]["name"] in names:
                continue
            chosen.append(s)
        return chosen

    def seconds(names, case=None, outermost=False):
        return sum(s["end"] - s["start"] for s in select(names, case, outermost)) / rounds

    def count(names, key, case=None):
        return _number(sum(s.get(key, 0) for s in select(names, case)), rounds)

    def rss_gain_mb(names):
        first = [s for s in select(names, outermost=True) if s["round"] == 0]
        return sum(s["rss_after_kb"] - s["rss_before_kb"] for s in first) / 1024.0

    fit = ("retrieval.fit",)
    simulate = ("detector.simulate_frames",)
    metrics = {
        "retrieval.fit_s": seconds(fit),
        "retrieval.prepare_s": seconds(("retrieval.prepare_objective",)),
        "retrieval.nfev": count(fit, "nfev"),
        "retrieval.fit_s.t1": seconds(fit, case="t1"),
        "retrieval.fit_s.t2": seconds(fit, case="t2"),
        "retrieval.nfev.t1": count(fit, "nfev", case="t1"),
        "retrieval.nfev.t2": count(fit, "nfev", case="t2"),
        "detector.simulate_s": seconds(simulate),
        "detector.events": count(simulate, "events"),
        "detector.simulate_rss_gain_mb": rss_gain_mb(simulate),
        "detector.estimate_s": seconds(ESTIMATORS, outermost=True),
        "detector.raw_s": seconds(("detector.raw_coincidences",)),
        "detector.accidental_s": seconds(("detector.accidental_map",)),
        "detector.raw_calls": _number(len(select(("detector.raw_coincidences",))), rounds),
        "detector.pair_products": count(("detector.raw_coincidences",), "pair_products"),
        "detector.estimate_rss_gain_mb": rss_gain_mb(ESTIMATORS),
        "zhf.write_s": seconds(("zhf.write_frames",)),
        "zhf.read_s": seconds(("zhf.read_frames",)),
        "zhf.bytes": count(("zhf.write_frames",), "bytes"),
        "zhf.read_rss_gain_mb": rss_gain_mb(("zhf.read_frames",)),
        "mapio.write_s": seconds(("mapio.write_map_csv",)),
        "mapio.read_s": seconds(("mapio.read_map_csv",)),
        "mapio.bytes": count(("mapio.write_map_csv",), "bytes"),
        "interference.theory_s": seconds(THEORY, outermost=True),
        "cli.self_s": sum(
            s["end"] - s["start"] - child_time[s["id"]] for s in select(("cli.main",))
        ) / rounds,
    }
    simulate_s = metrics["detector.simulate_s"]
    metrics["detector.events_per_s"] = metrics["detector.events"] / simulate_s if simulate_s else 0.0
    return metrics
