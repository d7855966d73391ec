"""Span recorders wrapped around the public entry points of each layer.

Nothing under ``src/`` is edited: :class:`Tracer` replaces a fixed list of
functions and methods with timing wrappers while it is installed and puts
the originals back when it is removed.  A function imported by name into
other modules (``from repro.core.lcf import lcf``) is replaced in every
``repro`` module that binds it, so calls through any import path are seen.

Each wrapper records one span.  A span's *self time* is its duration minus
the durations of the spans it encloses, so the per-layer ``*_s`` figures
add up to (at most) the traced wall time without double counting.  A span
that raises adds one to ``<layer>.errors`` and re-raises.  Per-call hooks
read counts off arguments and results (LP pairs, best-response rounds,
interior share); their own time is charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS = ("network", "market", "gap", "core", "game", "runtime", "dynamics")

Hook = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    """In-memory span and counter store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        #: Enclosed-time accumulators, one per open span.
        self._stack: List[float] = []
        self._patches: List[Tuple[object, str, object, object]] = []
        self.installed = False

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def add(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()

    def snapshot(self) -> Dict[str, float]:
        """Self times (``<span>_s``), call counts (``<span>_calls``) and
        hook counts recorded so far."""
        out = {f"{name}_s": value for name, value in self.self_s.items()}
        out.update(self.counts)
        return out

    def _wrap(self, fn: Callable, span: str, hook: Optional[Hook]) -> Callable:
        layer = span.split(".", 1)[0]
        calls = f"{span}_calls"
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            stack.append(0.0)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.counts[f"{layer}.errors"] += 1
                raise
            finally:
                duration = clock() - start
                self.self_s[span] += duration - stack.pop()
                self.counts[calls] += 1
                if stack:
                    stack[-1] += duration
            if hook is not None:
                hook_start = clock()
                hook(self, args, kwargs, out)
                if stack:
                    stack[-1] += clock() - hook_start
            return out

        return traced

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def prepare(self, targets: List[Tuple[str, str, str, Optional[Hook]]]) -> None:
        """Resolve ``(module, attribute path, span, hook)`` targets into
        the list of bindings to replace.  ``attribute path`` is either a
        module-level function name or ``Class.method``."""
        for module_name, path, span, hook in targets:
            owner: Any = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original, self._wrap(original, span, hook)))
                continue
            original = getattr(owner, path)
            self.replace_everywhere(original, self._wrap(original, span, hook))

    def replace_everywhere(self, original: object, wrapper: object) -> None:
        """Queue ``wrapper`` for every ``repro`` module binding ``original``."""
        for name, mod in sorted(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original, wrapper))

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.installed = True

    def remove(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)
        self.installed = False


# ---------------------------------------------------------------------- #
# Hooks: counts read off arguments and results
# ---------------------------------------------------------------------- #
def _on_apply(tr: Tracer, args: tuple, kwargs: dict, out: Any) -> None:
    delta = args[1] if len(args) > 1 else kwargs["delta"]
    tr.add("market.delta_providers", len(delta.arrivals) + len(delta.departures))


def _on_classify(tr: Tracer, args: tuple, kwargs: dict, out: Any) -> None:
    interior = sum(len(ids) for ids in out.interior.values())
    classified = interior + len(out.boundary) + len(out.unreachable)
    tr.add("game.interior_providers", interior)
    tr.add("game.classified_providers", classified)


def _on_lp(tr: Tracer, args: tuple, kwargs: dict, out: Any) -> None:
    instance = args[0] if args else kwargs["instance"]
    tr.add("gap.lp_pairs", int(instance.allowed_mask().sum()))


def _on_appro(tr: Tracer, args: tuple, kwargs: dict, out: Any) -> None:
    info = out.info
    tr.add("core.repair_moves", info.get("repair_moves", 0))
    if info.get("degradation") is not None:
        tr.add("gap.degradations")
    if "gap_cost" in info and info["gap_lower_bound"]:
        tr.add("gap.cost_over_bound_sum", info["gap_cost"] / info["gap_lower_bound"])
        tr.add("gap.solves")


def _on_br(tr: Tracer, args: tuple, kwargs: dict, out: Any) -> None:
    tr.add("game.br_rounds", out.rounds)
    tr.add("game.br_moves", out.moves)


def _on_partitioned(tr: Tracer, args: tuple, kwargs: dict, out: Any) -> None:
    tr.add("game.settle_moves", out.moves)


def _on_map(tr: Tracer, args: tuple, kwargs: dict, out: Any) -> None:
    tr.add("runtime.map_tasks", len(out))


def layer_targets() -> List[Tuple[str, str, str, Optional[Hook]]]:
    """The entry points each layer is measured around."""
    return [
        ("repro.network", "random_mec_network", "network.generate", None),
        ("repro.market", "ServiceMarket.compile", "market.compile", None),
        ("repro.market", "ServiceMarket.apply", "market.apply", _on_apply),
        ("repro.market", "classify_providers", "market.classify", _on_classify),
        ("repro.market", "shard_view", "market.shard_view", None),
        ("repro.market", "CompiledMarket.provider_cost", "market.provider_cost", None),
        ("repro.core", "VirtualCloudletSplit.build_gap_instance", "gap.build", None),
        ("repro.gap", "solve_lp_relaxation", "gap.lp", _on_lp),
        ("repro.gap", "shmoys_tardos", "gap.round", None),
        ("repro.core", "select_coordinated_lcf", "core.select", None),
        ("repro.core", "lcf", "core.lcf", None),
        ("repro.game", "best_response_dynamics", "game.br", _on_br),
        ("repro.game", "is_nash_equilibrium", "game.nash_check", None),
        ("repro.game", "partitioned_best_response", "game.partitioned", _on_partitioned),
        ("repro.game", "certify_equilibrium", "game.certify", None),
        ("repro.runtime", "Runtime.publish", "runtime.publish", None),
        ("repro.runtime", "Runtime.map", "runtime.map", _on_map),
        ("repro.dynamics", "DynamicMarketSimulation.step", "dynamics.step", None),
    ]


def build_tracer() -> Tracer:
    tracer = Tracer()
    tracer.prepare(layer_targets())
    _prepare_appro(tracer)
    return tracer


def _prepare_appro(tracer: Tracer) -> None:
    """``appro`` gets one span per start mode (cold GAP solve vs warm
    seed), chosen per call from its ``warm_start`` argument."""
    original = importlib.import_module("repro.core.appro").appro
    cold = tracer._wrap(original, "core.appro_cold", _on_appro)
    warm = tracer._wrap(original, "core.appro_warm", _on_appro)

    @functools.wraps(original)
    def split(*args: Any, **kwargs: Any) -> Any:
        if kwargs.get("warm_start") is not None:
            return warm(*args, **kwargs)
        return cold(*args, **kwargs)

    tracer.replace_everywhere(original, split)
