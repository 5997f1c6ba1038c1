"""Spans and counts around mcni's public functions, installed from outside.

The tracer replaces each public function of each mcni module, plus a few
hot methods, with a wrapper that records a span: name, start, end, parent
span and the workload call it belongs to. Modules that import a function by
name (``experiments`` takes ``fit`` from ``optim``, ``optim`` takes the loss
helpers from ``nn``, ``cli`` keeps its runners in ``COMMANDS``) are patched
too, so every caller reaches the wrapper. ``uninstall`` puts the originals
back. Spans stay in memory in flat arrays and are written out once, when
the run ends.

A layer's self time is its span's duration minus the time its child spans
cover. Counting hooks (bytes drawn, bytes written, distinct weight states)
run after a span ends and are recorded as ``trace.hook`` child spans of the
caller, so their cost shows as tracing overhead and not as the caller's
self time.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
import zlib
from array import array

import numpy as np

MODULES = ("cli", "data", "experiments", "gpcheck", "mc", "metrics", "models",
           "nn", "noise", "optim", "runio")

METHODS = {
    "nn": {"Network": ("forward", "backward")},
    "noise": {"NoisyDenseLayer": ("effective_weight",),
              "DropoutLayer": ("forward_pass",)},
    "optim": {"Adam": ("step",)},
}

HOOK = "trace.hook"


class Tracer:
    def __init__(self):
        self.names: list[str] = [HOOK]
        self._ids = {HOOK: 0}
        self.name = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._call = -1
        self._patches: list[tuple] = []
        self.calls_traced = 0
        self.bytes_drawn = 0
        self.bytes_written = 0
        self.sigma_computations = 0
        self.weight_states = 0
        self._states_this_call: set = set()

    # -- recording ------------------------------------------------------

    def begin_call(self, index: int) -> None:
        self._call = index
        self._states_this_call = set()

    def end_call(self) -> None:
        self.weight_states += len(self._states_this_call)
        self.calls_traced += 1
        self._call = -1

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _push(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.call.append(self._call)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _hook_span(self, t0: float, t1: float) -> None:
        self.name.append(0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.call.append(self._call)
        self.start.append(t0)
        self.end.append(t1)

    def _wrap(self, name: str, fn, hook=None):
        nid = self._id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = self._push(nid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
                if hook is not None:
                    hook(args, kwargs)
                    self._hook_span(t1, clock())

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- counting hooks -------------------------------------------------

    def _count_sigma(self, args, kwargs):
        W = np.ascontiguousarray(args[0] if args else kwargs["W"])
        self.sigma_computations += 1
        self._states_this_call.add((W.shape, zlib.crc32(W)))

    def _count_kernel_draws(self, args, kwargs):
        probes, cfg = args[0], args[1]
        # per sample: one w of input_dim entries and one b
        self.bytes_drawn += 8 * cfg.n_samples * (cfg.input_dim + 1)

    def _count_widenet_draws(self, args, kwargs):
        probe, cfg = args[0], args[1]
        q, k = len(probe.probe_inputs[0]), probe.width
        # per network: w1 (q, k), b1 (1, k) and v (k,)
        self.bytes_drawn += 8 * probe.n_networks * (q * k + 2 * k)

    def _count_written(self, args, kwargs):
        self.bytes_written += os.path.getsize(args[0])

    def _hooks(self):
        return {
            "noise.layer_weight_std": self._count_sigma,
            "gpcheck.kernel_mc_matrix": self._count_kernel_draws,
            "gpcheck.wide_net_covariance": self._count_widenet_draws,
            "runio.write_csv": self._count_written,
            "runio.write_json": self._count_written,
        }

    # -- installing -----------------------------------------------------

    def install(self, package: str = "mcni") -> None:
        """Wrap the public functions and listed methods of every module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        hooks = self._hooks()
        replaced = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                replaced[id(obj)] = (obj, self._wrap(name, obj, hooks.get(name)))
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    self._patches.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", orig))
        # swap every module-level reference, wherever it was imported to
        for mod in [importlib.import_module(package), *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    orig, wrapper = replaced[id(obj)]
                    if obj is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        commands = mods["cli"].COMMANDS
        for key, (cfg_cls, runner) in list(commands.items()):
            if id(runner) in replaced:
                self._patches.append((commands, key, (cfg_cls, runner)))
                commands[key] = (cfg_cls, replaced[id(runner)][1])

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._patches = []

    # -- results --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "call": np.frombuffer(self.call, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (number of spans, summed self time in seconds)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        n = len(self.names)
        counts = np.bincount(a["name"], minlength=n)
        selfs = np.bincount(a["name"], weights=own, minlength=n)
        return {nm: (int(counts[i]), float(selfs[i]))
                for i, nm in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
