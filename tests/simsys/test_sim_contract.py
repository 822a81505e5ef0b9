"""The simulation contract: a seeded run produces a fixed synopsis stream.

Every experiment relies on the simulations being deterministic per seed,
and on the node edge (loglib, tracker, stream, encoder) turning the same
run into the same synopses.  These digests pin both on one short
Cassandra run and one short HBase run: any change to the engine, the
simulated systems or the node edge that moves a single synopsis field —
down to the exact float start time and duration — changes a digest.

A digest covers, per synopsis in collector order, its wire encoding
followed by its start time and duration as little-endian doubles.
"""

import hashlib
import struct

from repro.cassandra import CassandraCluster, CassandraConfig, ClientOp
from repro.hbase import HBaseCluster, HBaseOp
from repro.ycsb import ClientPool, write_heavy

CASSANDRA_3S_SEED_19 = "c8b571ba7151d5d9b5bbe1e64f32ec51337b56776b6a784b58b5ab441ed662ea"
HBASE_10S_SEED_9 = "894ef2ca7df2ef0f72ab802b8c2b72d0eca56d6e949bad06aa85b1b41c5d85be"


def stream_digest(synopses):
    digest = hashlib.sha256()
    for synopsis in synopses:
        digest.update(synopsis.encode())
        digest.update(struct.pack("<dd", synopsis.start_time, synopsis.duration))
    return digest.hexdigest()


def test_cassandra_seed_19_stream_is_pinned():
    seed = 19
    cluster = CassandraCluster(
        n_nodes=4, seed=seed, config=CassandraConfig(memtable_flush_bytes=256 * 1024)
    )

    def submit(node_name, op):
        return cluster.nodes[node_name].client_request(
            ClientOp(op.kind, op.key, value="v", nbytes=op.value_bytes)
        )

    ClientPool(
        cluster.env,
        write_heavy(record_count=3000),
        submit,
        cluster.ring.node_names,
        n_clients=14,
        think_time_s=0.02,
        seed=seed + 1,
    )
    cluster.run(until=3.0)
    synopses = cluster.saad.collector.synopses
    assert len(synopses) == 19_377
    assert stream_digest(synopses) == CASSANDRA_3S_SEED_19


def test_hbase_seed_9_stream_is_pinned():
    cluster = HBaseCluster(n_servers=4, seed=9)

    def submit(_node, op):
        kind = "read" if op.kind == "read" else "write"
        return cluster.submit(HBaseOp(kind, op.key, value="v", value_bytes=op.value_bytes))

    ClientPool(
        cluster.env,
        write_heavy(record_count=4000),
        submit,
        list(cluster.regionservers),
        n_clients=12,
        think_time_s=0.03,
        seed=3,
    )
    cluster.run(until=10.0)
    synopses = cluster.saad.collector.synopses
    assert len(synopses) == 6_220
    assert stream_digest(synopses) == HBASE_10S_SEED_9
