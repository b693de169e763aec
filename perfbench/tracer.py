"""Outside-in span recorder for the traced pass.

Nothing under ``src/`` is changed.  Instead, public functions are replaced
at the name their *caller* looks up: most modules bind names with
``from .x import y``, so ``nmqsim.cli.simulate`` and
``nmqsim.pipeline.simulate`` are separate bindings and patching the
defining module alone would record nothing.

A span is a list laid out as SPAN_FIELDS, with wall-clock and CPU-clock
bounds.  Spans are kept in memory and
written out when the benchmark ends.  The parent of a span is the innermost
open span on its own thread; a span opened on a thread with no open span (a
sweep worker) takes the current root span, the ``cli.main`` call that the
benchmark opens around each CLI invocation.

Layer times are CPU seconds.  Sweeps run their rows on worker threads that
take turns on the interpreter lock, so a wall-clock span also counts the
time its thread waited for the other one; CPU time counts only the work.
A span's CPU clock is its thread's, so its self time is its CPU time minus
that of its children on the same thread.  The root span also reads the
process CPU clock; what no span covers is reported as the pseudo-layer
``other``: code on sweep worker threads between wrapped calls (the
trapezoid integral, row formatting) and native helper threads such as
OpenBLAS's, which spin while they wait for work.

Span names are ``<layer>.<operation>``.  Stage timers added inside the
program later should report under the same names so both readers agree.
"""

import itertools
import logging
import os
import threading
import time
from collections import defaultdict
from functools import wraps

SPAN_FIELDS = ("id", "parent", "name", "thread", "start", "end",
               "cpu_start", "cpu_end", "attrs")

# the package's modules, then the CPU that no span covers
LAYERS = (
    "config", "model", "propagator", "reconstruction", "entanglement",
    "pipeline", "output", "oracle", "nzkernel", "verify", "cli", "other",
)

# (module the caller looks the name up in, attribute, span name)
WRAPS = (
    ("nmqsim.cli", "parse_scenario", "config.parse"),
    ("nmqsim.cli", "parse_sweep", "config.parse"),
    ("nmqsim.cli", "simulate", "pipeline.simulate"),
    ("nmqsim.cli", "extract_events", "entanglement.events"),
    ("nmqsim.cli", "write_trajectory_csv", "output.write"),
    ("nmqsim.cli", "write_events_csv", "output.write"),
    ("nmqsim.cli", "write_svg", "output.write"),
    ("nmqsim.cli", "write_sweep_csv", "output.write"),
    ("nmqsim.cli", "write_run_record", "output.write"),
    ("nmqsim.cli", "run_full", "verify.run"),
    ("nmqsim.cli", "run_quick", "verify.run"),
    ("nmqsim.cli", "run_nz_only", "verify.run"),
    ("nmqsim.verify", "run_quick", "verify.run_quick"),
    ("nmqsim.pipeline", "evolve_subsystem", "propagator.evolve"),
    ("nmqsim.pipeline", "rho12_series", "reconstruction.rho12"),
    ("nmqsim.pipeline", "x_components", "reconstruction.xcomp"),
    ("nmqsim.pipeline", "precursor_evaluator", "pipeline.precursor_evaluator"),
    ("nmqsim.pipeline", "precursor_from_components", "entanglement.series"),
    ("nmqsim.pipeline", "entanglement_of_formation", "entanglement.series"),
    ("nmqsim.pipeline", "build_generator", "model.generator"),
    ("nmqsim.pipeline", "initial_coefficients", "model.initial"),
    ("nmqsim.propagator", "build_generator", "model.generator"),
    ("nmqsim.propagator", "initial_coefficients", "model.initial"),
    ("nmqsim.verify", "build_generator", "model.generator"),
    ("nmqsim.verify", "initial_coefficients", "model.initial"),
    ("nmqsim.verify", "projector_pair", "model.projectors"),
    ("nmqsim.verify", "rho12_series", "reconstruction.rho12"),
    ("nmqsim.verify", "x_components", "reconstruction.xcomp"),
    ("nmqsim.verify", "physicality_deviations", "reconstruction.physicality"),
    ("nmqsim.verify", "concurrence_general_series", "entanglement.concurrence_general"),
    ("nmqsim.verify", "evolve_full", "oracle.evolve_full"),
    ("nmqsim.verify", "full_initial_state", "oracle.initial_state"),
    ("nmqsim.verify", "partial_trace_34", "oracle.partial_trace"),
    ("nmqsim.verify", "choi_of_subsystem_map", "oracle.choi"),
    ("nmqsim.verify", "subsystem_transfer_matrix", "oracle.transfer"),
    ("nmqsim.verify", "apply_product_map", "oracle.product_map"),
    ("nmqsim.verify", "build_kernel", "nzkernel.kernel"),
    ("nmqsim.verify", "local_term", "nzkernel.local"),
    ("nmqsim.verify", "solve_nz", "nzkernel.solve"),
)

# modules whose cumulative `-X importtime` is reported as import.<module>_s
IMPORT_MODULES = (
    "nmqsim", "nmqsim.cli", "nmqsim.config", "nmqsim.model", "nmqsim.presets",
    "nmqsim.propagator", "nmqsim.reconstruction", "nmqsim.entanglement",
    "nmqsim.pipeline", "nmqsim.output", "nmqsim.oracle", "nmqsim.nzkernel",
    "nmqsim.verify", "scipy.linalg", "scipy.integrate",
)

# inclusive time of every span with this name, per pass
SPAN_TOTALS = {
    "entanglement.events_s": "entanglement.events",
    "entanglement.precursor_s": "entanglement.precursor",
    "entanglement.concurrence_general_s": "entanglement.concurrence_general",
    "propagator.evolve_s": "propagator.evolve",
    "reconstruction.rho12_s": "reconstruction.rho12",
    "reconstruction.xcomp_s": "reconstruction.xcomp",
    "pipeline.simulate_s": "pipeline.simulate",
    "pipeline.precursor_evaluator_s": "pipeline.precursor_evaluator",
    "output.write_s": "output.write",
    "nzkernel.solve_s": "nzkernel.solve",
    "nzkernel.kernel_s": "nzkernel.kernel",
    "oracle.evolve_full_s": "oracle.evolve_full",
    "oracle.choi_s": "oracle.choi",
    "config.parse_s": "config.parse",
}

# number of spans with this name, per pass
SPAN_COUNTS = {
    "entanglement.precursor_calls": "entanglement.precursor",
    "propagator.evolve_calls": "propagator.evolve",
    "output.files": "output.write",
    "nzkernel.solves": "nzkernel.solve",
    "oracle.evolve_full_calls": "oracle.evolve_full",
}


class _LogCounter(logging.Handler):
    """Counts INFO records; the propagator logs one per fallback block."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.count = 0

    def emit(self, record):
        # Handler.handle holds the handler lock around emit
        if record.levelno == logging.INFO:
            self.count += 1


class Recorder:
    """Span recorder with per-thread parent stacks."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._patches = []
        self._fallbacks = _LogCounter()
        self._old_level = logging.NOTSET

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        parent = stack[-1][0] if stack else self._root
        span = [next(self._ids), parent, name, threading.get_ident(),
                time.perf_counter(), None, time.thread_time(), None, None]
        stack.append(span)
        return span

    def close(self, span):
        span[7] = time.thread_time()
        span[5] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def root_open(self, name):
        span = self.open(name)
        span[8] = {"process_cpu": time.process_time()}
        self._root = span[0]
        return span

    def root_close(self, span):
        span[8]["process_cpu"] = time.process_time() - span[8]["process_cpu"]
        self.close(span)
        self._root = None

    def _wrap(self, fn, name, after=None):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                span[8] = after(args, kwargs, result)
            return result

        return wrapper

    def _after_simulate(self, _args, _kwargs, result):
        series = result.series
        if series.precursor_fn is not None:
            # the series is a frozen dataclass; swap in a counting evaluator
            object.__setattr__(
                series, "precursor_fn",
                self._wrap(series.precursor_fn, "entanglement.precursor"),
            )
        return None

    @staticmethod
    def _after_events(_args, _kwargs, events):
        return {"events": len(events)}

    @staticmethod
    def _after_write(args, kwargs, _result):
        path = args[0] if args else kwargs["path"]
        return {"bytes": os.path.getsize(path)}

    @staticmethod
    def _after_solve(args, kwargs, _result):
        grid = args[3] if len(args) > 3 else kwargs["grid"]
        return {"steps": grid.num_points}

    @staticmethod
    def _after_verify(_args, _kwargs, results):
        return {"checks": len(results),
                "failed_checks": sum(1 for r in results if not r.passed)}

    def install(self, modules):
        """Patch every WRAPS entry; names absent from a module are listed in missing."""
        after = {
            "pipeline.simulate": self._after_simulate,
            "entanglement.events": self._after_events,
            "output.write": self._after_write,
            "nzkernel.solve": self._after_solve,
            "verify.run": self._after_verify,
        }
        for modname, attr, name in WRAPS:
            module = modules.get(modname)
            if module is None or not hasattr(module, attr):
                self.missing.append(f"{modname}.{attr}")
                continue
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, after.get(name)))
        logger = logging.getLogger("nmqsim.propagator")
        self._old_level = logger.level
        logger.setLevel(logging.INFO)
        logger.addHandler(self._fallbacks)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        logger = logging.getLogger("nmqsim.propagator")
        logger.removeHandler(self._fallbacks)
        logger.setLevel(self._old_level)

    def take_fallbacks(self):
        count, self._fallbacks.count = self._fallbacks.count, 0
        return count


def self_times(spans):
    """CPU self time of each span: its CPU time minus its same-thread children's."""
    by_id = {span[0]: span for span in spans}
    selfs = {span[0]: span[7] - span[6] for span in spans}
    for span in spans:
        parent = by_id.get(span[1])
        if parent is not None and parent[3] == span[3]:
            selfs[parent[0]] -= span[7] - span[6]
    return selfs


def pass_metrics(spans, fallbacks):
    """Per-layer metrics of one traced pass."""
    selfs = self_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    totals = defaultdict(float)
    counts = defaultdict(int)
    attrs = defaultdict(int)
    for span in spans:
        name = span[2]
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + selfs[span[0]]
        totals[name] += span[7] - span[6]
        counts[name] += 1
        for key, value in (span[8] or {}).items():
            attrs[key] += value
    layer_self["other"] = attrs["process_cpu"] - sum(selfs.values())
    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    m.update({metric: totals[name] for metric, name in SPAN_TOTALS.items()})
    m.update({metric: counts[name] for metric, name in SPAN_COUNTS.items()})
    calls = m["entanglement.precursor_calls"]
    events = attrs["events"]
    m["entanglement.events"] = events
    m["entanglement.calls_per_event"] = calls / events if events else 0.0
    m["entanglement.precursor_us_per_call"] = (
        m["entanglement.precursor_s"] / calls * 1e6 if calls else 0.0
    )
    m["propagator.fallback_blocks"] = fallbacks
    m["output.bytes"] = attrs["bytes"]
    m["nzkernel.steps"] = attrs["steps"]
    m["verify.checks"] = attrs["checks"]
    m["verify.failed_checks"] = attrs["failed_checks"]
    return m


def parse_importtime(stderr):
    """Cumulative import time in seconds per module from `-X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        out[parts[2].strip()] = int(parts[1]) * 1e-6
    return out
