"""Span tracer that wraps qmg's public functions from outside the package.

`Tracer.install` replaces each function in `LAYERS` at every loaded
`qmg` module that binds it (`analysis` and `game` import several of them
by name), so calls made inside the package are traced too. Each call
records a span (id, parent id, job id, name, start, end) in memory; the
spans of a pass are reduced to per-layer metrics when the pass ends and
are written out when the run ends. Nothing finer than these functions is
wrapped: `minority_winners` alone runs about 3M times per scan pass.
"""
from __future__ import annotations

import collections
import functools
import gzip
import inspect
import json
import os
import sys
import time

MODULES = ("core", "states", "game", "analysis", "cli")

# (defining module, function, layer name used in the metric names)
LAYERS = (
    ("core", "apply_local", "core.apply_local"),
    ("core", "diagonal_expectation", "core.diagonal_expectation"),
    ("states", "build_pure", "states.build_pure"),
    ("game", "strategy_unitary", "game.strategy_unitary"),
    ("game", "minority_projector", "game.minority_projector"),
    ("game", "final_state", "game.final_state"),
    ("game", "expected_payoff", "game.expected_payoff"),
    ("analysis", "best_response", "analysis.best_response"),
    ("analysis", "nash_check", "analysis.nash_check"),
    ("analysis", "payoff_surface", "analysis.payoff_surface"),
    ("analysis", "sweep_x", "analysis.sweep"),
    ("analysis", "sweep_f", "analysis.sweep"),
    ("analysis", "sweep_gamma", "analysis.sweep"),
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "run", "cli.run"),
    ("cli", "render_table", "cli.render_table"),
    ("cli", "emit_table", "cli.emit_table"),
)

AMPLITUDE_BYTES = 16  # one complex128


def _projector_key(args, result):
    return {"repeat_key": (args["n"], args["player"])}


def _build_pure_key(args, result):
    return {"repeat_key": args["recipe"]}


def _apply_local_bytes(args, result):
    # input and output state vectors, computed from their sizes
    return {"bytes_computed": 2 * 2 ** args["state"].n_qubits * AMPLITUDE_BYTES}


def _best_response_work(args, result):
    grid_points = 1 + result.grid_resolution**3 + 33 * result.refinement_steps
    n = len(result.candidate)
    return {
        "grid_points": grid_points,
        "kernel_bytes_computed": grid_points * 2**n * AMPLITUDE_BYTES,
    }


def _emit_table_bytes(args, result):
    return {"bytes": os.path.getsize(args["path"])}


# Per-layer quantities read from a call's arguments and result.
HOOKS = {
    "game.minority_projector": _projector_key,
    "states.build_pure": _build_pure_key,
    "core.apply_local": _apply_local_bytes,
    "analysis.best_response": _best_response_work,
    "cli.emit_table": _emit_table_bytes,
}


class Tracer:
    """Records spans and per-layer counters while `active` is true.

    The runner sets `active` and `job` around each job call and leaves
    them off while outputs are checked.
    """

    def __init__(self):
        self.active = False
        self.job = None
        self.spans = []  # [id, parent id, job id, name, start, end]
        self._stack = []
        self._pass_start = 0
        self._seen_keys = collections.defaultdict(set)
        self._seen_errors = []
        self._counts = collections.Counter()
        self._restore = []
        self.passes = []  # per-layer metrics of each traced pass

    # -- wrapping -----------------------------------------------------------
    def install(self):
        wrappers = {}  # id of the original function -> its wrapper
        for module, func, layer in LAYERS:
            fn = getattr(sys.modules.get(f"qmg.{module}"), func, None)
            if fn is not None:
                wrappers[id(fn)] = self._wrap(fn, layer)
        for name, mod in list(sys.modules.items()):
            if name != "qmg" and not name.startswith("qmg."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
                    self._restore.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def _wrap(self, fn, layer):
        hook = HOOKS.get(layer)
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [len(tracer.spans), tracer._stack[-1] if tracer._stack else None,
                    tracer.job, layer, 0.0, 0.0]
            tracer.spans.append(span)
            tracer._stack.append(span[0])
            tracer._counts[layer + ".calls"] += 1
            span[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[5] = time.perf_counter()
                tracer.charge(layer.split(".")[0], exc)
                raise
            finally:
                tracer._stack.pop()
            span[5] = time.perf_counter()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for quantity, value in hook(bound.arguments, result).items():
                    if quantity == "repeat_key":
                        seen = tracer._seen_keys[layer]
                        tracer._counts[layer + ".repeats"] += value in seen
                        seen.add(value)
                    else:
                        tracer._counts[f"{layer}.{quantity}"] += value
            return result

        return traced

    def charge(self, module, exc=None):
        """Count a failure against a module's `errors`.

        An exception is charged once, to the innermost traced layer it
        escaped; a job that fails otherwise (nonzero exit, failed output
        check) is charged to the module the job calls.
        """
        if exc is not None:
            if any(exc is seen for seen in self._seen_errors):
                return
            self._seen_errors.append(exc)
        self._counts[module + ".errors"] += 1

    # -- passes -------------------------------------------------------------
    def begin_pass(self):
        self._pass_start = len(self.spans)
        self._seen_keys.clear()
        self._seen_errors.clear()
        self._counts.clear()

    def end_pass(self):
        self.active = False
        self.passes.append(self._reduce(self.spans[self._pass_start:]))

    def _reduce(self, spans):
        total = collections.Counter()
        child = collections.Counter()
        for sid, parent, _, _, start, end in spans:
            if parent is not None:
                child[parent] += end - start
        for sid, _, _, layer, start, end in spans:
            total[layer] += (end - start) - child[sid]
        metrics = {}
        layers = sorted({layer for _, _, layer in LAYERS})
        for layer in layers:
            calls = self._counts[layer + ".calls"]
            metrics[layer + ".calls"] = calls
            metrics[layer + ".self_s"] = total[layer]
            metrics[layer + ".repeat_frac"] = (
                self._counts[layer + ".repeats"] / calls if calls else 0.0
            )
        for key, value in self._counts.items():
            if not key.endswith((".calls", ".repeats")):
                metrics[key] = value
        for module in MODULES:
            metrics[module + ".self_s"] = sum(
                total[layer] for layer in layers if layer.startswith(module + ".")
            )
            metrics.setdefault(module + ".errors", 0)
        return metrics

    def mean_metrics(self):
        """Per-layer metrics averaged over the traced passes."""
        keys = set().union(*self.passes)
        return {
            k: sum(p.get(k, 0) for p in self.passes) / len(self.passes) for k in keys
        }

    def write_spans(self, path, header):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, parent, job, layer, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "job": job,
                                     "name": layer, "start": start, "end": end}) + "\n")
