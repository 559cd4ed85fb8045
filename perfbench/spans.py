"""Span tracer for the drcz modules, installed from outside the package.

Every public function of each drcz module (cached ones too), a few named
methods, and the scipy kernels (`expm`, `expm_multiply`) as bound in each
module are replaced by a wrapper that records a span: call count, inclusive time and
self time (inclusive time minus the time of child spans).  A function is
often bound in several modules (`from .lindblad import propagate`), so the
wrapper is installed at every binding site found by identity, not only in
the defining module; otherwise calls through the other names would record
nothing.  `uninstall` puts every original object back.

The program's code is not changed; everything here acts on module and
class attributes of an imported `drcz`.
"""
from __future__ import annotations

import functools
import inspect
import math
import sys
import time

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

MODULES = ("benchmarking", "budget", "calibration", "channels", "cli", "config",
           "error_channels", "fock", "gate", "lindblad", "tomography")

# private functions traced under a public span name
RENAMED = {
    ("cli", "_write_outputs"): "cli.write_outputs",
    ("benchmarking", "fit_linear_fidelity"): "benchmarking.fit",
    ("benchmarking", "fit_exponential"): "benchmarking.fit",
}

# (module, class, attribute) -> span name; properties and classmethods too
METHODS = {
    ("fock", "ModeRegister", "occupations"): "fock.occupations",
    ("channels", "QuantumChannel", "chi"): "channels.chi",
    ("channels", "QuantumChannel", "apply"): "channels.apply",
    ("channels", "QuantumChannel", "superop"): "channels.superop",
    ("benchmarking", "CliffordGroup", "index_of"): "benchmarking.index_of",
    ("benchmarking", "NativeGateNoise", "replace"): "benchmarking.replace",
    ("config", "DeviceConfig", "default"): "config.load",
    ("config", "DeviceConfig", "from_text"): "config.load",
    ("config", "DeviceConfig", "from_json_text"): "config.load",
    ("config", "DeviceConfig", "from_file"): "config.load",
}

# third-party kernels, traced per module that binds them
KERNELS = {"expm": scipy.linalg.expm,
           "expm_multiply": scipy.sparse.linalg.expm_multiply}

LIVE_TOL = 1e-14


class SpanStats:
    __slots__ = ("calls", "self_s", "s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.s = 0.0  # inclusive time of outermost spans of this name

    def as_dict(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, "s": self.s}


class Tally:
    """What the spans recorded over one stretch of work."""

    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = {}
        self.errors = {m: 0 for m in MODULES}
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def high(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def as_dict(self) -> dict:
        return {"spans": {k: v.as_dict() for k, v in sorted(self.spans.items())},
                "errors": dict(self.errors), "counters": dict(self.counters),
                "maxima": dict(self.maxima)}


# --- hooks: counts taken from a span's arguments and result -----------------

def _expm_size(tally: Tally, args, kwargs, result) -> None:
    n = int(np.shape(args[0])[0])
    tally.add("lindblad.expm.n3_sum", n ** 3)
    tally.high("lindblad.expm.dim_max", n)


def _propagate_live(tally: Tally, args, kwargs, result) -> None:
    rho = result.state.data
    tally.add("lindblad.live_entries", int(np.count_nonzero(np.abs(rho) > LIVE_TOL)))
    tally.add("lindblad.entries", rho.size)


def _leak_yield(fn):
    signature = inspect.signature(fn)

    def hook(tally: Tally, args, kwargs, result) -> None:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        if bound.arguments["control_prep"] == "erased":
            return  # no jump is inserted; the map is the no-loss one
        params = bound.arguments["params"] or sys.modules["drcz.gate"].SystemParams.table()
        jumps = sum(math.isfinite(params.t1.get(label, math.inf))
                    for label in ("c", "a1", "a2"))
        tally.add("tomography.leak_kraus_kept", len(result.kraus))
        tally.add("tomography.leak_kraus_tried", bound.arguments["points"] * jumps)
    return hook


def _report_bytes(tally: Tally, args, kwargs, result) -> None:
    tally.add("cli.report_bytes", sum(path.stat().st_size for path in result))


HOOKS = {
    "lindblad.expm": lambda fn: _expm_size,
    "lindblad.propagate": lambda fn: _propagate_live,
    "tomography.simulated_leak_process": _leak_yield,
    "cli.write_outputs": lambda fn: _report_bytes,
}


class Tracer:
    """Wraps the drcz call boundaries and tallies spans while installed."""

    def __init__(self) -> None:
        self.tally = Tally()
        self._stack: list[list[float]] = []  # [child time] per open span
        self._open: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn):
        module = name.split(".", 1)[0]
        hook = HOOKS[name](fn) if name in HOOKS else None
        stack, opened, clock = self._stack, self._open, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            opened[name] = opened.get(name, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.tally.errors[module] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                opened[name] -= 1
                stats = self.tally.spans.get(name)
                if stats is None:
                    stats = self.tally.spans[name] = SpanStats()
                stats.calls += 1
                stats.self_s += elapsed - frame[0]
                if not opened[name]:
                    stats.s += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                hook(self.tally, args, kwargs, result)
            return result

        span.__wrapped_span__ = name
        return span

    def take(self) -> Tally:
        """Return what was tallied so far and start a fresh tally."""
        done, self.tally = self.tally, Tally()
        return done

    # --- installation ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        drcz_modules = [m for n, m in sorted(sys.modules.items())
                        if m is not None and (n == "drcz" or n.startswith("drcz."))]
        for short in MODULES:
            module = sys.modules[f"drcz.{short}"]
            for attr, obj in list(vars(module).items()):
                if (callable(obj) and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == module.__name__):
                    name = RENAMED.get((short, attr))
                    if name is None and not attr.startswith("_"):
                        name = f"{short}.{attr}"
                    if name is not None:
                        self._patch_everywhere(drcz_modules, obj, self.wrap(name, obj))
                elif attr in KERNELS and obj is KERNELS[attr]:
                    self._patch(module, attr, self.wrap(f"{short}.{attr}", obj))
        for (short, cls_name, attr), name in METHODS.items():
            cls = getattr(sys.modules[f"drcz.{short}"], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, property):
                new = property(self.wrap(name, raw.fget), raw.fset, raw.fdel, raw.__doc__)
            elif isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__))
            else:
                new = self.wrap(name, raw)
            self._patch(cls, attr, new)

    def _patch(self, target, attr: str, new) -> None:
        self._patches.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, new)

    def _patch_everywhere(self, modules, original, new) -> None:
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if obj is original:
                    self._patch(module, attr, new)

    def originals(self) -> list:
        """The objects the installed wrappers stand in for."""
        return [original for _, _, original in self._patches]

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()
        self._stack.clear()
        self._open.clear()

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
