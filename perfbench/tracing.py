"""Timing shims around zpreal's public functions, for the traced run.

`Tracer.install` replaces every public function of every zpreal module,
in every zpreal module namespace that binds it, with a shim that counts
calls and measures total and self time; `uninstall` puts the originals
back. Self time is a call's duration minus the time spent in shimmed
calls it made. The validating `__post_init__` of ZeroPoleData and
SynthesisInput is shimmed under the class name. The eight evaluators of
`realization` share one entry, `realization.eval`.

Nothing in src/ knows about this: the shims act only on module
attributes, which is where zpreal's own modules look their callees up.
"""

from __future__ import annotations

import functools
import os
import time
import types

import zpreal.cauchy
import zpreal.cli
import zpreal.factorization
import zpreal.linalg
import zpreal.realization
import zpreal.serialize
import zpreal.synthesis
import zpreal.zero_pole

MODULES = (zpreal.linalg, zpreal.cauchy, zpreal.zero_pole, zpreal.realization,
           zpreal.synthesis, zpreal.factorization, zpreal.serialize,
           zpreal.cli)
VALIDATED = ((zpreal.zero_pole.ZeroPoleData, "zero_pole.ZeroPoleData"),
             (zpreal.synthesis.SynthesisInput, "synthesis.SynthesisInput"))
EVALUATORS = frozenset((
    "eval_R", "eval_Rinv", "eval_R_left", "eval_Rinv_left",
    "eval_joint_right", "eval_joint_left", "eval_hybrid_right",
    "eval_hybrid_left"))


def _key(fn) -> str:
    module = fn.__module__.rsplit(".", 1)[-1]
    name = fn.__name__
    if module == "realization" and name in EVALUATORS:
        return "realization.eval"
    if module == "cli" and name.startswith("cmd_"):
        return "cli." + name[len("cmd_"):]
    return f"{module}.{name}"


class Tracer:
    """Per-name [calls, total_s, self_s], plus two counters: evaluator
    calls made inside factorize and bytes written by save_instance."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.eval_in_factorize = 0
        self.bytes_written = 0
        self._stack: list[float] = []
        self._in_factorize = 0
        self._restore: list[tuple] = []

    def _shim(self, key: str, fn):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        is_eval = key == "realization.eval"
        is_factorize = key == "factorization.factorize"
        is_save = key == "serialize.save_instance"
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if is_eval and tracer._in_factorize:
                tracer.eval_in_factorize += 1
            if is_factorize:
                tracer._in_factorize += 1
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                if stack:
                    stack[-1] += dt
                if is_factorize:
                    tracer._in_factorize -= 1
                if is_save and os.path.exists(args[1]):
                    tracer.bytes_written += os.path.getsize(args[1])

        return shim

    def install(self):
        shims = {}
        for module in MODULES:
            for name, obj in list(vars(module).items()):
                if (name.startswith("_") or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith("zpreal.")):
                    continue
                if obj not in shims:
                    shims[obj] = self._shim(_key(obj), obj)
                self._restore.append((module, name, obj))
                setattr(module, name, shims[obj])
        for cls, key in VALIDATED:
            self._restore.append((cls, "__post_init__", cls.__post_init__))
            cls.__post_init__ = self._shim(key, cls.__post_init__)

    def uninstall(self):
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore.clear()

    def per_round(self, rounds: int, scale: float) -> dict:
        """Every shimmed name: calls, total_ms and self_ms per round, the
        times multiplied by `scale` (the run's speed factor)."""
        ms = 1e3 * scale / rounds
        return {key: {"calls": calls / rounds,
                      "total_ms": total * ms,
                      "self_ms": own * ms}
                for key, (calls, total, own) in sorted(self.stats.items())}

    def layer_metrics(self, rounds: int, names, scale: float) -> dict:
        """The per-layer metrics named in BENCHMARK.json, as numbers.

        `<name>.calls`, `.self_ms` and `.total_ms` are per round; the
        evaluators' `us_per_call` is their total time per call; the
        factorize `eval_calls` is evaluator calls per factorize call.
        Times are multiplied by `scale`. Names with no calls read 0.
        """
        table = self.per_round(rounds, scale)
        calls_eval, total_eval, _ = self.stats.get("realization.eval", (0, 0, 0))
        calls_fac = self.stats.get("factorization.factorize", (0,))[0]
        special = {
            "realization.eval.us_per_call":
                total_eval * 1e6 * scale / calls_eval if calls_eval else 0.0,
            "factorization.factorize.eval_calls":
                self.eval_in_factorize / calls_fac if calls_fac else 0.0,
            "serialize.bytes_written": self.bytes_written / rounds,
        }
        out = {}
        for name in names:
            if name in special:
                out[name] = special[name]
                continue
            key, field = name.rsplit(".", 1)
            if field in ("calls", "total_ms", "self_ms"):
                out[name] = table.get(key, {}).get(field, 0.0)
        return out
