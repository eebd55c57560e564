"""The benchmark's three closed-loop workloads.

Each workload is built from a seed (the set-up: inputs generated, server or
solver warmed) and then runs whole *rounds* of operations, one caller
thread, each operation timed alone and its output checked right after.

* ``serve_ingress`` -- the serving read path.  Full-problem ``solve``,
  ``bound`` (IPFP) and ``compare`` envelopes for a few resident 500-node
  tenants through :meth:`ReproServer.handle_line`; every envelope hits the
  session pool and the epoch cache.
* ``serve_churn`` -- the serving write path.  A few resident 2000-node
  tenants, one epoch each per round: an ``update`` moving 5% of the
  client rates, then a ``bound`` (IPFP) and a ``simulate``, all addressed
  by fingerprint.
* ``paper_campaign`` -- the cold path of the paper's Section 7 plan: fresh
  trees of 15 to 100 elements for lambda = 0.1 ... 0.9 on homogeneous and
  heterogeneous platforms, each given ``evaluate_instance`` (mixed lower bound and the
  nine heuristics).
"""

from __future__ import annotations

import json
import math
import random
import time
from typing import Any, Dict, List, Optional, Tuple

from checker import Instance, bound_holds, check_solution

POLICIES = ("closest", "upwards", "multiple")


class Tally:
    """What a run attempted, what failed, and what it measured."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.failed = 0
        self.errors: List[str] = []
        self.cost = 0.0
        self.bound = 0.0
        self.envelopes = 0
        self.bytes_in = 0
        self.bytes_out = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def record(self, seconds: float, errors: List[str]) -> None:
        self.latencies.append(seconds)
        if errors:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append("; ".join(errors[:3]))

    def serve(self, server: Any, line: str) -> Tuple[str, float]:
        """One envelope through the server's line entry point, timed."""
        start = time.perf_counter()
        reply = server.handle_line(line)
        seconds = time.perf_counter() - start
        self.envelopes += 1
        self.bytes_in += len(line)
        self.bytes_out += len(reply)
        return reply, seconds


def _reply_errors(reply: Dict[str, Any], expected_type: str) -> List[str]:
    if reply.get("type") == "error":
        return [f"error envelope: {reply['error']}"]
    if reply.get("type") != expected_type:
        return [f"expected a {expected_type}, got {reply.get('type')!r}"]
    return []


def _placement_cost(instance: Instance, result: Dict[str, Any],
                    errors: List[str]) -> float:
    """Check one solved-or-unsolved result; return the cost it is charged."""
    solution = result.get("solution")
    if solution is None:
        return instance.all_server_cost()
    errors.extend(check_solution(instance, solution, result.get("cost")))
    return float(result["cost"])


# --------------------------------------------------------------------------- #
# serve_ingress
# --------------------------------------------------------------------------- #
class ServeIngress:
    """Full-problem reads of resident 500-node tenants."""

    name = "serve_ingress"
    TENANTS = 16
    SIZE = 500

    def __init__(self, seed: int) -> None:
        from repro.core.constraints import ConstraintSet, QoSMode
        from repro.core.problem import ProblemKind, ReplicaPlacementProblem
        from repro.core.serialization import problem_to_dict
        from repro.serving.server import ReproServer
        from repro.workloads.generator import GeneratorConfig, TreeGenerator

        rng = random.Random(seed)
        self.server = ReproServer(capacity=self.TENANTS)
        self.setup_errors: List[str] = []
        #: per tenant: [(line, first reply, cost charged, bound charged)]
        self.tenants: List[List[Tuple[str, str, float, float]]] = []
        pairs = self.TENANTS // 2
        for tenant in range(self.TENANTS):
            # loads step evenly over 0.1..0.2, once without and once with QoS
            qos = tenant % 2 == 1
            tree = TreeGenerator(rng.randrange(2**31)).generate(GeneratorConfig(
                size=self.SIZE,
                target_load=0.1 + 0.1 * (tenant // 2) / (pairs - 1),
                homogeneous=False,
                qos_hops=(4, 8) if qos else None,
            ))
            problem = ReplicaPlacementProblem(
                tree=tree,
                constraints=ConstraintSet(
                    qos_mode=QoSMode.DISTANCE if qos else QoSMode.NONE),
                kind=ProblemKind.REPLICA_COST,
                name=f"tenant-{tenant}",
            )
            payload = problem_to_dict(problem)
            lines = [
                json.dumps({"op": "solve", "problem": payload}),
                json.dumps({"op": "bound", "problem": payload,
                            "params": {"method": "ipfp"}}),
                json.dumps({"op": "compare", "problem": payload}),
            ]
            self.tenants.append(self._first_reads(lines))

    def _first_reads(self, lines: List[str]) -> List[Tuple[str, str, float, float]]:
        instance = Instance(json.loads(lines[0])["problem"])
        replies = [self.server.handle_line(line) for line in lines]
        solve, bound, compare = (json.loads(reply) for reply in replies)
        errors = (_reply_errors(solve, "solve_result")
                  + _reply_errors(bound, "bound_result")
                  + _reply_errors(compare, "compare_result"))
        if errors:
            self.setup_errors.extend(errors)
            return [(line, reply, 0.0, 0.0) for line, reply in zip(lines, replies)]
        value = float(bound["result"]["value"])
        if not bound["result"]["feasible"] or not math.isfinite(value):
            errors.append(f"IPFP bound is not finite: {bound['result']}")
        if len({solve["fingerprint"], bound["fingerprint"], compare["fingerprint"]}) != 1:
            errors.append("the three reads of one tenant name different sessions")
        charged = [_placement_cost(instance, solve, errors)]
        charged += [_placement_cost(instance, compare["results"][policy], errors)
                    for policy in POLICIES]
        solved = [solve] + [compare["results"][policy] for policy in POLICIES]
        for result in solved:
            if result.get("solution") is not None and not bound_holds(value, result["cost"]):
                errors.append(f"IPFP bound {value} exceeds cost {result['cost']}")
        self.setup_errors.extend(errors)
        return [
            (lines[0], replies[0], charged[0], value),
            (lines[1], replies[1], 0.0, 0.0),
            (lines[2], replies[2], sum(charged[1:]), 3 * value),
        ]

    def run_round(self, tally: Tally) -> None:
        for tenant in self.tenants:
            for line, first, cost, bound in tenant:
                reply, seconds = tally.serve(self.server, line)
                errors = [] if reply == first else [
                    "a repeated read differs from the tenant's first read"]
                tally.record(seconds, errors)
                tally.cost += cost
                tally.bound += bound

    def pool_counts(self) -> Tuple[int, int]:
        stats = self.server.pool.stats()
        return stats.hits, stats.hits + stats.misses


# --------------------------------------------------------------------------- #
# serve_churn
# --------------------------------------------------------------------------- #
class _Tenant:
    """One churning tenant as the benchmark knows it: the rates it sent."""

    def __init__(self, base: Instance, fingerprint: Optional[str]) -> None:
        self.base = base
        self.rates = dict(base.requests)
        self.clients = sorted(base.requests)
        self.fingerprint = fingerprint


class ServeChurn:
    """Epoch updates, bounds and flow replays of resident 2000-node tenants."""

    name = "serve_churn"
    TENANTS = 4
    SIZE = 2000
    LOAD = 0.1
    MOVED = 0.05

    def __init__(self, seed: int) -> None:
        from repro.core.problem import ProblemKind, ReplicaPlacementProblem
        from repro.core.serialization import problem_to_dict
        from repro.serving.server import ReproServer
        from repro.workloads.generator import GeneratorConfig, TreeGenerator

        self.rng = random.Random(seed)
        self.server = ReproServer()
        self.setup_errors: List[str] = []
        self.tenants: List[_Tenant] = []
        for _ in range(self.TENANTS):
            tree = TreeGenerator(self.rng.randrange(2**31)).generate(GeneratorConfig(
                size=self.SIZE, target_load=self.LOAD, homogeneous=False))
            problem = ReplicaPlacementProblem(tree=tree, kind=ProblemKind.REPLICA_COST)
            line = json.dumps({"op": "solve", "problem": problem_to_dict(problem)})
            solve = json.loads(self.server.handle_line(line))
            self.setup_errors += _reply_errors(solve, "solve_result")
            self.tenants.append(
                _Tenant(Instance(json.loads(line)["problem"]), solve.get("fingerprint")))
        warm = Tally()
        self.run_round(warm)  # each tenant's first bound builds its IPFP program
        self.setup_errors += warm.errors

    def _epoch_rates(self, tenant: _Tenant) -> Dict[Any, float]:
        moved = self.rng.sample(tenant.clients, max(1, round(self.MOVED * len(tenant.clients))))
        changes = {}
        for client in moved:
            base = tenant.base.requests[client]
            changes[client] = float(max(1, round(base * self.rng.uniform(0.5, 1.5))))
        return changes

    def _send(self, tally: Tally, tenant: _Tenant, op: str,
              params: Dict[str, Any]) -> Tuple[Dict[str, Any], float]:
        line = json.dumps({"op": op, "fingerprint": tenant.fingerprint, "params": params})
        reply, seconds = tally.serve(self.server, line)
        return json.loads(reply), seconds

    def run_round(self, tally: Tally) -> None:
        for tenant in self.tenants:
            self._epoch(tally, tenant)

    def _epoch(self, tally: Tally, tenant: _Tenant) -> None:
        changes = self._epoch_rates(tenant)
        tenant.rates.update(changes)
        instance = tenant.base.with_requests(tenant.rates)

        update, seconds = self._send(tally, tenant, "update", {"requests": [
            {"client": client, "rate": rate} for client, rate in changes.items()]})
        errors = _reply_errors(update, "solve_result")
        cost = None
        if not errors:
            tenant.fingerprint = update["fingerprint"]
            if update.get("solution") is None:
                errors.append(f"epoch {update.get('epoch')} was left unsolved")
            else:
                errors += check_solution(instance, update["solution"], update["cost"])
                cost = float(update["cost"])
        tally.record(seconds, errors)

        bound, seconds = self._send(tally, tenant, "bound", {"method": "ipfp"})
        errors = _reply_errors(bound, "bound_result")
        if not errors:
            value = float(bound["result"]["value"])
            if bound["fingerprint"] != tenant.fingerprint:
                errors.append("bound answered from another session")
            if not math.isfinite(value):
                errors.append("IPFP bound of a feasible epoch is not finite")
            elif cost is not None:
                if not bound_holds(value, cost):
                    errors.append(f"IPFP bound {value} exceeds cost {cost}")
                tally.cost += cost
                tally.bound += value
        tally.record(seconds, errors)

        replay, seconds = self._send(tally, tenant, "simulate", {})
        errors = _reply_errors(replay, "flow_simulation")
        if not errors and replay["fingerprint"] != tenant.fingerprint:
            errors.append("simulate answered from another session")
        if not errors and cost is not None:
            errors += self._check_replay(instance, update["solution"], replay)
        tally.record(seconds, errors)

    @staticmethod
    def _check_replay(instance: Instance, solution: Dict[str, Any],
                      replay: Dict[str, Any]) -> List[str]:
        errors = []
        replicas = set(solution["replicas"])
        total = 0.0
        for entry in replay["servers"]:
            load = float(entry["load"])
            total += load
            if entry["server"] not in replicas:
                errors.append(f"replay loads {entry['server']!r}, not a replica")
            elif load > instance.capacity[entry["server"]] * (1 + 1e-9):
                errors.append(f"replay overloads {entry['server']!r}")
        expected = sum(instance.requests.values())
        if abs(total - expected) > 1e-9 * expected:
            errors.append(f"replay serves {total} of {expected} requests")
        return errors

    def pool_counts(self) -> Tuple[int, int]:
        stats = self.server.pool.stats()
        return stats.hits, stats.hits + stats.misses


# --------------------------------------------------------------------------- #
# paper_campaign
# --------------------------------------------------------------------------- #
class _Captured:
    """A heuristic that remembers its last solution for the checker."""

    def __init__(self, heuristic: Any) -> None:
        self.heuristic = heuristic
        self.solution = None

    def try_solve(self, problem: Any) -> Any:
        self.solution = self.heuristic.try_solve(problem)
        return self.solution


def _solution_payload(solution: Any) -> Dict[str, Any]:
    return {
        "policy": solution.policy.value,
        "replicas": list(solution.placement),
        "assignment": [
            {"client": client, "server": server, "requests": amount}
            for (client, server), amount in solution.assignment.items()
        ],
    }


class PaperCampaign:
    """Fresh Section 7 instances: mixed lower bound plus every heuristic."""

    name = "paper_campaign"
    LAMBDAS = tuple(round(0.1 * k, 1) for k in range(1, 10))
    #: nine sizes spread evenly over 15..100; round r pairs the k-th load with
    #: size (k + r + offset) mod 9, so every nine rounds cover each (load,
    #: size) pair once per platform and no run is skewed by its size draws
    SIZES = tuple(15 + round(k * 85 / 8) for k in range(9))

    def __init__(self, seed: int) -> None:
        from repro.algorithms.base import get_heuristic
        from repro.experiments.harness import PAPER_HEURISTICS, CampaignConfig
        from repro.workloads.generator import TreeGenerator

        self.generator = TreeGenerator(seed)
        self.offsets = {h: int(self.generator.rng.integers(9)) for h in (True, False)}
        self.rounds = 0
        self.configs = {h: CampaignConfig(homogeneous=h) for h in (True, False)}
        self.paper = PAPER_HEURISTICS
        names = {True: PAPER_HEURISTICS + ("MultipleOptimalHomogeneous",),
                 False: PAPER_HEURISTICS}
        self.heuristics = {
            h: [(name, _Captured(get_heuristic(name))) for name in names[h]]
            for h in (True, False)
        }
        self.setup_errors: List[str] = []
        warm = Tally()
        self._evaluate(warm, 0.5, True, self.SIZES[0])

    def run_round(self, tally: Tally) -> None:
        for k, load in enumerate(self.LAMBDAS):
            for homogeneous in (True, False):
                size = self.SIZES[(k + self.rounds + self.offsets[homogeneous]) % 9]
                self._evaluate(tally, load, homogeneous, size)
        self.rounds += 1

    def _evaluate(self, tally: Tally, load: float, homogeneous: bool, size: int) -> None:
        from repro.core.serialization import tree_to_dict
        from repro.experiments.harness import evaluate_instance
        from repro.workloads.generator import GeneratorConfig

        config = self.configs[homogeneous]
        tree = self.generator.generate(GeneratorConfig(
            size=size,
            target_load=load,
            homogeneous=homogeneous,
            base_capacity=config.base_capacity,
            capacity_choices=config.capacity_choices,
            client_fraction=config.client_fraction,
            max_children=config.max_children,
        ))
        heuristics = self.heuristics[homogeneous]
        start = time.perf_counter()
        record = evaluate_instance(tree, load, config, heuristics)
        seconds = time.perf_counter() - start

        instance = Instance({"tree": tree_to_dict(tree),
                             "kind": config.problem_kind().value})
        errors: List[str] = []
        lower = record.lower_bound
        feasible = math.isfinite(lower)
        for name, captured in heuristics:
            solution = captured.solution
            cost = record.costs[name]
            if solution is None:
                if name == "MultipleOptimalHomogeneous" and feasible:
                    errors.append(f"MultipleOptimalHomogeneous fails where the MILP "
                                  f"gives {lower}")
                if feasible and name in self.paper:
                    tally.cost += instance.all_server_cost()
                    tally.bound += lower
                continue
            if not feasible:
                errors.append(f"{name} solved an instance the mixed program calls infeasible")
                continue
            errors += [f"{name}: {e}" for e in
                       check_solution(instance, _solution_payload(solution), cost)]
            if not bound_holds(lower, cost):
                errors.append(f"mixed bound {lower} exceeds {name}'s cost {cost}")
            if (name == "MultipleOptimalHomogeneous"
                    and abs(cost - lower) > 1e-9 * max(1.0, lower)):
                errors.append(f"MultipleOptimalHomogeneous cost {cost} != mixed bound {lower}")
            if name in self.paper:
                tally.cost += cost
                tally.bound += lower
        tally.record(seconds, errors)

    def pool_counts(self) -> Tuple[int, int]:
        return 0, 0


WORKLOADS = {cls.name: cls for cls in (ServeIngress, ServeChurn, PaperCampaign)}
