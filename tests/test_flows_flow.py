"""Tests for 5-tuples and stable hashing."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys

import pytest

from repro.flows.flow import FiveTuple, fnv1a_64, hosts_in_prefix, ip_in_prefix

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class TestFiveTuple:
    def test_validation(self):
        with pytest.raises(ValueError):
            FiveTuple("a", "b", -1, 443)
        with pytest.raises(ValueError):
            FiveTuple("a", "b", 1, 70000)
        with pytest.raises(ValueError):
            FiveTuple("a", "b", 1, 2, protocol=300)

    def test_reversed(self):
        flow = FiveTuple("a", "b", 1, 2)
        rev = flow.reversed()
        assert rev.src == "b" and rev.dst == "a"
        assert rev.src_port == 2 and rev.dst_port == 1
        assert rev.reversed() == flow

    def test_str_form(self):
        assert str(FiveTuple("a", "b", 1, 2, 6)) == "a:1->b:2/6"


class TestStableHash:
    def test_deterministic(self):
        flow = FiveTuple("10.0.0.1", "198.51.100.2", 1234, 443)
        assert flow.stable_hash() == flow.stable_hash()
        assert flow.stable_hash() == FiveTuple("10.0.0.1", "198.51.100.2", 1234, 443).stable_hash()

    def test_distinct_flows_differ(self):
        a = FiveTuple("10.0.0.1", "198.51.100.2", 1234, 443)
        b = FiveTuple("10.0.0.1", "198.51.100.2", 1235, 443)
        assert a.stable_hash() != b.stable_hash()

    def test_cell_index_range_and_seed_sensitivity(self):
        flow = FiveTuple("10.0.0.1", "198.51.100.2", 1234, 443)
        indexes = {flow.cell_index(64, seed=s) for s in range(20)}
        assert all(0 <= i < 64 for i in indexes)
        assert len(indexes) > 1  # reseeding actually remaps

    def test_cell_index_roughly_uniform(self):
        counts = [0] * 16
        for port in range(4096):
            flow = FiveTuple("10.0.0.1", "198.51.100.2", port % 60000 + 1, 443)
            counts[flow.cell_index(16)] += 1
        expected = 4096 / 16
        assert all(0.6 * expected < c < 1.4 * expected for c in counts)

    def test_invalid_cell_count(self):
        with pytest.raises(ValueError):
            FiveTuple("a", "b", 1, 2).cell_index(0)

    def test_fnv_known_property(self):
        # FNV-1a of empty input is the offset basis.
        assert fnv1a_64(b"") == 0xCBF29CE484222325


class TestPrefixHelpers:
    def test_ip_in_prefix(self):
        assert ip_in_prefix("198.51.100.17", "198.51.100.0/24")
        assert not ip_in_prefix("198.51.101.17", "198.51.100.0/24")

    def test_symbolic_names_never_match(self):
        assert not ip_in_prefix("h1", "10.0.0.0/8")

    def test_hosts_in_prefix(self):
        hosts = list(hosts_in_prefix("198.51.100.0/24", 3))
        assert hosts == ["198.51.100.1", "198.51.100.2", "198.51.100.3"]

    def test_hosts_in_prefix_capacity(self):
        with pytest.raises(ValueError):
            list(hosts_in_prefix("198.51.100.0/30", 10))


_PROBE_CHILD = """
import pickle, sys
from repro.flows.flow import FiveTuple

flow = pickle.loads(sys.stdin.buffer.read())
fresh = FiveTuple("10.0.0.1", "198.51.100.2", 1234, 443)
table = {fresh: "fresh"}
print(flow == fresh, hash(flow) == hash(fresh), table.get(flow), {flow: 1}.get(fresh))
"""


class TestCachedHash:
    """The builtin hash is cached per instance and never leaves the process."""

    def test_matches_field_tuple_hash(self):
        flow = FiveTuple("10.0.0.1", "198.51.100.2", 1234, 443)
        assert hash(flow) == hash(("10.0.0.1", "198.51.100.2", 1234, 443, 6))

    def test_pickle_rebuilds_hash_under_another_hash_seed(self):
        flow = FiveTuple("10.0.0.1", "198.51.100.2", 1234, 443)
        env = dict(os.environ)
        parent_seed = env.get("PYTHONHASHSEED", "")
        env["PYTHONHASHSEED"] = str(int(parent_seed) + 1) if parent_seed.isdigit() else "1"
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.run(
            [sys.executable, "-c", _PROBE_CHILD],
            input=pickle.dumps(flow),
            capture_output=True,
            env=env,
            timeout=60,
            check=True,
        )
        assert child.stdout.decode().split() == ["True", "True", "fresh", "1"]

    @pytest.mark.parametrize(
        "clone",
        [
            copy.copy,
            copy.deepcopy,
            lambda flow: pickle.loads(pickle.dumps(flow)),
            lambda flow: dataclasses.replace(flow),
        ],
        ids=["copy", "deepcopy", "pickle", "replace"],
    )
    def test_clones_keep_hash_equal_to_eq(self, clone):
        flow = FiveTuple("10.0.0.1", "198.51.100.2", 1234, 443)
        twin = clone(flow)
        assert twin == flow and hash(twin) == hash(flow)
        assert {flow: 1}[twin] == 1

    def test_replace_rehashes_changed_fields(self):
        flow = FiveTuple("10.0.0.1", "198.51.100.2", 1234, 443)
        moved = dataclasses.replace(flow, src_port=1235)
        assert hash(moved) == hash(FiveTuple("10.0.0.1", "198.51.100.2", 1235, 443))
        assert moved != flow
