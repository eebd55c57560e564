"""The benchmark's output checker rejects planted invalid placements.

Run with ``python3 -m pytest perfbench/test_perfbench_checker.py -q``.
"""

from __future__ import annotations

import copy

import pytest

from checker import Instance, bound_holds, check_solution

#            r (cap 20)
#           /          \
#      a (cap 7)      b (cap 6)
#       /    \           |
#   c1 (4)  c2 (3)     c3 (5)
PAYLOAD = {
    "tree": {
        "nodes": [
            {"id": "r", "capacity": 20, "storage_cost": None},
            {"id": "a", "capacity": 7, "storage_cost": None},
            {"id": "b", "capacity": 6, "storage_cost": None},
        ],
        "clients": [
            {"id": "c1", "requests": 4, "qos": 1},
            {"id": "c2", "requests": 3, "qos": None},
            {"id": "c3", "requests": 5, "qos": None},
        ],
        "links": [
            {"child": "a", "parent": "r"},
            {"child": "b", "parent": "r"},
            {"child": "c1", "parent": "a"},
            {"child": "c2", "parent": "a"},
            {"child": "c3", "parent": "b"},
        ],
    },
    "constraints": {"qos_mode": "distance", "enforce_bandwidth": False},
    "kind": "replica_cost",
}


def solution(policy, replicas, *routes):
    return {
        "policy": policy,
        "replicas": list(replicas),
        "assignment": [
            {"client": client, "server": server, "requests": amount}
            for client, server, amount in routes
        ],
    }


VALID = solution("closest", ["a", "b"], ("c1", "a", 4), ("c2", "a", 3), ("c3", "b", 5))


@pytest.fixture
def instance():
    return Instance(PAYLOAD)


def test_a_valid_placement_passes_under_every_policy(instance):
    for policy in ("closest", "upwards", "multiple"):
        assert check_solution(instance, dict(VALID, policy=policy), 13.0) == []


def test_under_served_client_is_rejected(instance):
    planted = solution("multiple", ["a", "b"], ("c1", "a", 4), ("c2", "a", 3), ("c3", "b", 4))
    assert any("served 4 of 5" in e for e in check_solution(instance, planted))


def test_over_capacity_server_is_rejected(instance):
    tight = copy.deepcopy(PAYLOAD)
    tight["tree"]["nodes"][1]["capacity"] = 6
    assert any("capacity" in e for e in check_solution(Instance(tight), VALID))


def test_server_off_the_root_path_is_rejected(instance):
    planted = solution("multiple", ["a", "b"], ("c1", "a", 4), ("c2", "a", 3), ("c3", "a", 5))
    assert any("not on the root path" in e for e in check_solution(instance, planted))


def test_server_without_a_replica_is_rejected(instance):
    planted = solution("multiple", ["a"], ("c1", "a", 4), ("c2", "a", 3), ("c3", "r", 5))
    assert any("not a replica" in e for e in check_solution(instance, planted))


def test_closest_client_skipping_its_nearest_replica_is_rejected(instance):
    planted = solution("closest", ["a", "b", "r"], ("c1", "a", 4), ("c2", "a", 3), ("c3", "r", 5))
    assert any("nearest replica" in e for e in check_solution(instance, planted))
    assert check_solution(instance, dict(planted, policy="upwards")) == []


def test_single_server_policies_reject_a_split_client(instance):
    planted = solution("upwards", ["a", "b", "r"], ("c1", "a", 4), ("c2", "a", 3),
                       ("c3", "b", 2), ("c3", "r", 3))
    for policy in ("closest", "upwards"):
        assert any("split" in e for e in check_solution(instance, dict(planted, policy=policy)))
    assert check_solution(instance, dict(planted, policy="multiple")) == []


def test_hop_count_qos_violation_is_rejected(instance):
    planted = solution("upwards", ["r", "b"], ("c1", "r", 4), ("c2", "r", 3), ("c3", "b", 5))
    assert any("QoS" in e for e in check_solution(instance, planted))


def test_misreported_cost_is_rejected(instance):
    assert any("recomputed cost" in e for e in check_solution(instance, VALID, 12.0))


def test_unknown_or_repeated_replicas_are_rejected(instance):
    planted = dict(VALID, replicas=["a", "b", "b", "zz"])
    errors = check_solution(instance, planted)
    assert any("repeats" in e for e in errors)
    assert any("not a server" in e for e in errors)


def test_rates_sent_by_the_benchmark_replace_the_base_rates(instance):
    moved = instance.with_requests({"c3": 6})
    assert any("served 5 of 6" in e for e in check_solution(moved, VALID))
    assert check_solution(instance, VALID) == []


def test_costs_follow_the_cost_mode():
    counting = dict(PAYLOAD, kind="replica_counting")
    assert Instance(counting).cost(["a", "b"]) == 2.0
    assert Instance(PAYLOAD).cost(["a", "b"]) == 13.0
    assert Instance(PAYLOAD).all_server_cost() == 33.0


def test_bound_comparison_tolerates_rounding_only():
    assert bound_holds(6199.999999999998, 6200.0)
    assert bound_holds(6200.000000001, 6200.0)
    assert not bound_holds(6200.01, 6200.0)
