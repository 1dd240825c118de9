"""``repro.durable`` — durability for the live monitoring system.

The paper's NOA service runs for whole fire seasons; ours used to keep
the entire Strabon graph and all service progress in memory, so one
process death lost every refined hotspot since startup.  This package
makes crash recovery a *tested, measured property*:

* :mod:`repro.durable.wal` — an append-only, CRC-framed write-ahead
  log of triple insert/delete batches with configurable fsync policy
  and replay-on-open recovery that truncates torn tails.
* :mod:`repro.durable.store` — :class:`DurableStore`, which frames a
  live :class:`~repro.rdf.graph.Graph`'s drained mutation journal into
  the WAL, one record per commit, and compacts it
  into generation-stamped checkpoints serialized from the existing
  O(1) copy-on-write ``snapshot()`` (the writer is never blocked).
  Each record's metadata is the owner's commit state (the service's
  acquisition cursor), and a checkpoint keeps the newest one; plus
  the atomic JSON save/load behind ``service.json`` (written once per
  open, before the store: the persisted configuration and a
  publication-sequence floor).
* :mod:`repro.durable.cursors` — the subscription engine's two logs:
  notification batches, and the registry log of registrations,
  removals and acknowledged cursors.
* :mod:`repro.durable.codec` — the dictionary-encoded codec shared by
  WAL records and checkpoints: a checkpoint is the graph's term table
  in id order plus u32 id triples, and a WAL record carries only the
  terms interned since the previous one (from the store's dictionary
  cursor) plus its ops as u32 ids.
* :mod:`repro.durable.crashpoints` — the deterministic crash-injection
  registry: named points in the commit path where a test can arm a
  process abort (``os._exit``), so the crash-matrix suite can prove
  recovery is exact at *every* window of the commit protocol.

The commit protocol and why readers never observe rollback are
documented in DESIGN.md ("Durability: WAL, checkpoints and the commit
order").  :mod:`repro.durable.store` is the only module that reads
or writes the checkpoint format.
"""

from repro.durable.codec import (
    OP_ADD,
    OP_CLEAR,
    OP_REMOVE,
    decode_ops,
    encode_ops,
)
from repro.durable.crashpoints import (
    CRASH_EXIT,
    REGISTRY as CRASHPOINTS,
    arm,
    crash,
    disarm,
)
from repro.durable.cursors import (
    NotificationBatch,
    NotificationLog,
    RegistryLog,
)
from repro.durable.store import (
    DurableStore,
    RecoveryInfo,
    load_service_state,
    save_service_state,
)
from repro.durable.wal import WalRecord, WriteAheadLog

__all__ = [
    "CRASH_EXIT",
    "CRASHPOINTS",
    "DurableStore",
    "NotificationBatch",
    "NotificationLog",
    "OP_ADD",
    "OP_CLEAR",
    "OP_REMOVE",
    "RecoveryInfo",
    "RegistryLog",
    "WalRecord",
    "WriteAheadLog",
    "arm",
    "crash",
    "decode_ops",
    "disarm",
    "encode_ops",
    "load_service_state",
    "save_service_state",
]
