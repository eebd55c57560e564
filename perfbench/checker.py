"""An output checker for placements, written apart from the program.

It reads an instance from the wire payload of ``problem_to_dict`` (plain
JSON data: nodes, clients, links, constraints, kind) and a solution in the
wire form of ``solution_to_dict`` (policy, replicas, assignment list), and
re-derives every property a valid placement has under the paper's model:

* every client's requests are served in full;
* no server carries more than its capacity;
* every server of a client is a replica on the client's path to the root;
* Closest and Upwards serve each client from a single server, and Closest
  from the first replica on that path;
* hop-count QoS bounds hold where the instance enforces them;
* the storage cost recomputed from the replicas equals the reported cost.

Nothing here calls into the program: the checker must not share a fault
with the code it checks.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence

#: relative tolerance of served totals and capacity sums (floating splits)
FLOW_TOL = 1e-9
#: relative tolerance of cost equality and bound-versus-cost comparisons
COST_TOL = 1e-9


def _key(value: Any) -> Hashable:
    # JSON turns tuples into lists; ids compare by value either way.
    return tuple(value) if isinstance(value, list) else value


class Instance:
    """A placement instance as plain dictionaries."""

    def __init__(self, payload: Mapping[str, Any]) -> None:
        tree = payload["tree"]
        constraints = payload.get("constraints") or {}
        kind = payload.get("kind", "replica_cost")
        self.parent: Dict[Hashable, Hashable] = {
            _key(link["child"]): _key(link["parent"]) for link in tree["links"]
        }
        self.capacity: Dict[Hashable, float] = {}
        self.storage: Dict[Hashable, float] = {}
        for node in tree["nodes"]:
            node_id = _key(node["id"])
            self.capacity[node_id] = float(node["capacity"])
            if kind == "replica_counting":
                self.storage[node_id] = 1.0
            elif kind == "replica_cost":
                self.storage[node_id] = float(node["capacity"])
            else:
                self.storage[node_id] = float(node.get("storage_cost") or 0.0)
        self.requests: Dict[Hashable, float] = {
            _key(client["id"]): float(client["requests"]) for client in tree["clients"]
        }
        mode = constraints.get("qos_mode", "none")
        if mode not in ("none", "distance"):
            raise ValueError(f"the checker knows hop-count QoS only, not {mode!r}")
        self.qos_hops: Dict[Hashable, float] = {}
        if mode == "distance":
            for client in tree["clients"]:
                bound = client.get("qos")
                if bound is not None:
                    self.qos_hops[_key(client["id"])] = float(bound)
        self._paths: Dict[Hashable, List[Hashable]] = {}

    def with_requests(self, rates: Mapping[Hashable, float]) -> "Instance":
        """A copy sharing the topology, with some request rates replaced."""
        fork = Instance.__new__(Instance)
        fork.__dict__.update(self.__dict__)
        fork.requests = dict(self.requests)
        for client, rate in rates.items():
            fork.requests[client] = float(rate)
        return fork

    def path(self, client: Hashable) -> List[Hashable]:
        """The nodes from the client's parent up to the root, bottom-up."""
        cached = self._paths.get(client)
        if cached is None:
            cached = []
            node = self.parent.get(client)
            while node is not None:
                cached.append(node)
                node = self.parent.get(node)
            self._paths[client] = cached
        return cached

    def cost(self, replicas: Sequence[Hashable]) -> float:
        """Storage cost of a replica set."""
        return sum(self.storage[_key(node)] for node in replicas)

    def all_server_cost(self) -> float:
        """Cost of a replica on every server: the charge for an unsolved case."""
        return sum(self.storage.values())


def check_solution(
    instance: Instance,
    solution: Mapping[str, Any],
    reported_cost: Optional[float] = None,
) -> List[str]:
    """Every violation of ``solution`` on ``instance``; empty when valid."""
    errors: List[str] = []
    policy = solution["policy"]
    replicas = [_key(node) for node in solution["replicas"]]
    replica_set = set(replicas)
    for node in replica_set:
        if node not in instance.capacity:
            errors.append(f"replica {node!r} is not a server of the tree")
    if len(replica_set) != len(replicas):
        errors.append("the replica list repeats a node")

    served: Dict[Hashable, float] = {}
    servers: Dict[Hashable, List[Hashable]] = {}
    load: Dict[Hashable, float] = {}
    for entry in solution["assignment"]:
        client, server = _key(entry["client"]), _key(entry["server"])
        amount = float(entry["requests"])
        if client not in instance.requests:
            errors.append(f"assignment names unknown client {client!r}")
            continue
        if amount < 0 or math.isnan(amount):
            errors.append(f"client {client!r} sends {amount} requests to {server!r}")
            continue
        if amount == 0:
            continue
        if server not in replica_set:
            errors.append(f"client {client!r} is served by {server!r}, not a replica")
        path = instance.path(client)
        if server not in path:
            errors.append(f"server {server!r} is not on the root path of {client!r}")
        elif client in instance.qos_hops:
            hops = path.index(server) + 1
            if hops > instance.qos_hops[client]:
                errors.append(
                    f"client {client!r} is served {hops} hops away, "
                    f"beyond its QoS bound {instance.qos_hops[client]:g}"
                )
        served[client] = served.get(client, 0.0) + amount
        servers.setdefault(client, []).append(server)
        load[server] = load.get(server, 0.0) + amount

    for client, rate in instance.requests.items():
        got = served.get(client, 0.0)
        if abs(got - rate) > FLOW_TOL * max(1.0, rate):
            errors.append(f"client {client!r} is served {got:g} of {rate:g} requests")
    for server, amount in load.items():
        capacity = instance.capacity.get(server)
        if capacity is not None and amount > capacity * (1 + FLOW_TOL) + FLOW_TOL:
            errors.append(f"server {server!r} carries {amount:g} > capacity {capacity:g}")

    if policy in ("closest", "upwards"):
        for client, chosen in servers.items():
            if len(set(chosen)) > 1:
                errors.append(
                    f"{policy} client {client!r} is split over {len(set(chosen))} servers"
                )
            elif policy == "closest":
                nearest = next(
                    (node for node in instance.path(client) if node in replica_set), None
                )
                if chosen[0] != nearest:
                    errors.append(
                        f"closest client {client!r} is served by {chosen[0]!r}, "
                        f"not by its nearest replica {nearest!r}"
                    )
    elif policy != "multiple":
        errors.append(f"unknown policy {policy!r}")

    if reported_cost is not None:
        cost = instance.cost(replicas)
        if abs(cost - reported_cost) > COST_TOL * max(1.0, abs(cost)):
            errors.append(f"reported cost {reported_cost!r} != recomputed cost {cost!r}")
    return errors


def bound_holds(bound: float, cost: float) -> bool:
    """Whether a lower bound is at most a cost, to the relative tolerance."""
    return bound <= cost + COST_TOL * max(1.0, abs(cost))
