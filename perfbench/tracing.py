"""Per-layer spans, recorded from outside the program.

:class:`Tracer` wraps the public functions of each layer at the names their
callers resolve (a module global such as ``repro.serving.protocol.
problem_fingerprint``, or a method on a class) and records, for every call,
a count and a span.  Spans nest on one stack, so a layer's *self* time is
its spans' durations minus the part covered by child spans of any layer.
:meth:`Tracer.uninstall` puts every original back.

The layer names are the module names of the program: ``protocol``,
``serialization``, ``tree``, ``fingerprint``, ``pool``, ``session``,
``index``, ``algorithms.<H>``, ``algorithms.portfolio``, ``incremental``,
``validation``, ``lp.build``, ``lp.solve``, ``ipfp``, ``simulation``,
``simulation.encode`` and ``generator``.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

_MISSING = object()

#: the heuristics with their own ``algorithms.<H>`` metrics
HEURISTICS = (
    "CTDA", "CTDLF", "CBU", "UTD", "UBCF", "MG", "MTD", "MBU",
    "MixedBest", "MultipleOptimalHomogeneous",
)


class _JsonProxy:
    """Stands in for the ``json`` module inside the server module."""

    def __init__(self, loads: Callable, dumps: Callable) -> None:
        self.loads, self.dumps = loads, dumps

    def __getattr__(self, name: str) -> Any:
        return getattr(json, name)


class Tracer:
    """Counts and self times per layer; install once, uninstall once."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = Counter()
        self.calls: Dict[str, int] = Counter()
        self.solved: Dict[str, int] = Counter()
        self.values: Dict[str, float] = Counter()
        self._stack: List[float] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        for table in (self.self_s, self.calls, self.solved, self.values):
            table.clear()

    def _span(self, layer: str, fn: Callable, count: bool = True,
              observe: Optional[Callable] = None) -> Callable:
        stack = self._stack
        self_s, calls, solved = self.self_s, self.calls, self.solved

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                elapsed = time.perf_counter() - start
                self_s[layer] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                if count:
                    calls[layer] += 1
                    solved[layer] += ok
            if observe is not None:
                observe(result, args)
            return result

        traced.__wrapped__ = fn
        traced._perfbench_span = True
        return traced

    def _patch(self, owner: Any, name: str, layer: str, **options: Any) -> None:
        original = owner.__dict__.get(name, _MISSING)
        target = getattr(owner, name)
        while getattr(target, "_perfbench_span", False):
            target = target.__wrapped__  # inherited from a class patched already
        self._patches.append((owner, name, original))
        setattr(owner, name, self._span(layer, target, **options))

    def _patch_checkout(self, pool_cls: Any) -> None:
        """Time the enter and exit of ``SessionPool.checkout`` contexts."""
        original = pool_cls.__dict__["checkout"]
        enter = self._span("pool.checkout", lambda cm: cm.__enter__())
        leave = self._span("pool.checkout", lambda cm, *exc: cm.__exit__(*exc),
                           count=False)

        class TimedCheckout:
            __slots__ = ("_cm",)

            def __init__(self, cm: Any) -> None:
                self._cm = cm

            def __enter__(self) -> Any:
                return enter(self._cm)

            def __exit__(self, *exc: Any) -> Any:
                return leave(self._cm, *exc)

        def checkout(pool: Any, *args: Any, **kwargs: Any) -> TimedCheckout:
            return TimedCheckout(original(pool, *args, **kwargs))

        self._patches.append((pool_cls, "checkout", original))
        pool_cls.checkout = checkout

    def _patch_session(self, session_cls: Any) -> None:
        """Session calls, and whether each solve/bound hit the epoch cache."""
        values = self.values
        for name in ("compare", "update", "simulate"):
            self._patch(session_cls, name, "session")
        for name, counter in (("solve", "solve_cache_hits"), ("bound", "bound_cache_hits")):
            inner = self._span("session", session_cls.__dict__[name])

            def cached_call(session: Any, *args: Any, _inner: Callable = inner,
                            _counter: str = counter, **kwargs: Any) -> Any:
                before = getattr(session.stats, _counter)
                result = _inner(session, *args, **kwargs)
                values["session.lookups"] += 1
                values["session.hits"] += getattr(session.stats, _counter) > before
                return result

            self._patches.append((session_cls, name, session_cls.__dict__[name]))
            setattr(session_cls, name, cached_call)

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        from repro.algorithms import base, incremental, portfolio
        from repro.core import serialization, validation
        from repro.core.index import TreeIndex
        from repro.core.tree import TreeNetwork
        from repro.lp import bounds
        from repro.lp.ipfp import IPFPProgram
        from repro.serving import pool, protocol, server
        from repro.session import PlacementSession
        from repro.simulation import request_flow
        from repro.workloads.generator import TreeGenerator

        values = self.values
        self._patches.append((server, "json", server.json))
        server.json = _JsonProxy(
            self._span("protocol.decode", json.loads),
            self._span("protocol.encode", json.dumps),
        )
        for name in ("problem_from_dict", "tree_from_dict", "solution_to_dict"):
            self._patch(serialization, name, "serialization")
        self._patch(TreeNetwork, "__init__", "tree.build")
        self._patch(TreeNetwork, "with_requests", "tree.fork")
        for module in (protocol, pool):
            self._patch(module, "problem_fingerprint", "fingerprint")
        self._patch_checkout(pool.SessionPool)
        self._patch(pool.SessionPool, "rekey", "pool.rekey")
        self._patch_session(PlacementSession)
        self._patch(TreeIndex, "__init__", "index.build")
        self._patch(TreeIndex, "patched", "index.patch")
        for name in HEURISTICS:
            cls = type(base.get_heuristic(name))
            self._patch(cls, "solve", f"algorithms.{name}")
        self._patch(portfolio, "portfolio_solve", "algorithms.portfolio")
        self._patch(incremental.IncrementalResolver, "resolve", "incremental")

        def bound_strategy(result: Any, args: Tuple[Any, ...]) -> None:
            values["incremental.bounds"] += 1
            values["incremental.bounds_patched"] += result[1].strategy == "patched"

        self._patch(incremental.IncrementalBounder, "bound", "incremental",
                    count=False, observe=bound_strategy)
        for module in (validation, base):
            self._patch(module, "validate_solution", "validation")

        def nnz(program: Any, args: Tuple[Any, ...]) -> None:
            values["lp.nnz"] += program.constraint_matrix.nnz

        self._patch(bounds, "build_program", "lp.build", observe=nnz)
        self._patch(bounds, "solve_program", "lp.solve")
        self._patch(IPFPProgram, "__init__", "ipfp", count=False)
        self._patch(IPFPProgram, "with_requests", "ipfp", count=False)
        self._patch(IPFPProgram, "solve", "ipfp")
        self._patch(request_flow, "simulate_solution", "simulation")
        self._patch(request_flow.FlowSimulation, "to_dict", "simulation.encode")
        self._patch(TreeGenerator, "generate", "generator")

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    # ------------------------------------------------------------------ #
    def metrics(self, counts: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
        """Every per-layer metric as ``name -> (value, unit)``.

        ``counts`` holds what the caller measured itself: ``envelopes``,
        ``bytes_in`` and ``bytes_out`` at the protocol boundary, and the
        pool's ``pool_hits`` and ``pool_lookups`` over the traced rounds.
        """
        s, calls, values = self.self_s, self.calls, self.values

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        out: Dict[str, Tuple[float, str]] = {
            "protocol.envelopes": (counts["envelopes"], "count"),
            "protocol.decode_s": (s["protocol.decode"], "s"),
            "protocol.encode_s": (s["protocol.encode"], "s"),
            "protocol.bytes_in": (counts["bytes_in"], "bytes"),
            "protocol.bytes_out": (counts["bytes_out"], "bytes"),
            "serialization.calls": (calls["serialization"], "count"),
            "serialization.s": (s["serialization"], "s"),
            "tree.builds": (calls["tree.build"], "count"),
            "tree.build_s": (s["tree.build"], "s"),
            "tree.forks": (calls["tree.fork"], "count"),
            "tree.fork_s": (s["tree.fork"], "s"),
            "fingerprint.calls": (calls["fingerprint"], "count"),
            "fingerprint.s": (s["fingerprint"], "s"),
            "pool.checkouts": (calls["pool.checkout"], "count"),
            "pool.checkout_s": (s["pool.checkout"], "s"),
            "pool.hit_ratio": (ratio(counts["pool_hits"], counts["pool_lookups"]), "ratio"),
            "pool.rekeys": (calls["pool.rekey"], "count"),
            "pool.rekey_s": (s["pool.rekey"], "s"),
            "session.calls": (calls["session"], "count"),
            "session.s": (s["session"], "s"),
            "session.cache_hit_ratio": (
                ratio(values["session.hits"], values["session.lookups"]), "ratio"),
            "index.builds": (calls["index.build"], "count"),
            "index.patches": (calls["index.patch"], "count"),
            "index.s": (s["index.build"] + s["index.patch"], "s"),
        }
        for name in HEURISTICS + ("portfolio",):
            layer = f"algorithms.{name}"
            out[f"{layer}.calls"] = (calls[layer], "count")
            out[f"{layer}.s"] = (s[layer], "s")
            if name != "portfolio":
                out[f"{layer}.solved_ratio"] = (
                    ratio(self.solved[layer], calls[layer]), "ratio")
        out.update({
            "incremental.resolves": (calls["incremental"], "count"),
            "incremental.s": (s["incremental"], "s"),
            "incremental.bound_patched_ratio": (
                ratio(values["incremental.bounds_patched"], values["incremental.bounds"]),
                "ratio"),
            "validation.calls": (calls["validation"], "count"),
            "validation.s": (s["validation"], "s"),
            "lp.build_calls": (calls["lp.build"], "count"),
            "lp.build_s": (s["lp.build"], "s"),
            "lp.nnz": (values["lp.nnz"], "count"),
            "lp.solve_calls": (calls["lp.solve"], "count"),
            "lp.solve_s": (s["lp.solve"], "s"),
            "ipfp.calls": (calls["ipfp"], "count"),
            "ipfp.s": (s["ipfp"], "s"),
            "simulation.calls": (calls["simulation"], "count"),
            "simulation.s": (s["simulation"], "s"),
            "simulation.encode_s": (s["simulation.encode"], "s"),
            "generator.s": (s["generator"], "s"),
        })
        return out
