//! GDFS: GreenNebula's mutation-capable distributed file system (§V-A).
//!
//! Design per the paper: one master holding name bindings and metadata
//! (HDFS-like), data blocks replicated across datacenters, **with file
//! mutation**: a write updates the local replica and invalidates the remote
//! replicas at the master; written blocks are re-replicated in the
//! background. A migrating VM therefore only ships the recently-modified
//! blocks that have not yet been re-replicated.

use crate::cluster::DatacenterId;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// Block size, MB (HDFS-style large blocks).
pub const BLOCK_MB: f64 = 64.0;

/// Identifier of a file in the namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u64);

/// Identifier of a block within a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId {
    /// Owning file.
    pub file: FileId,
    /// Block index within the file.
    pub index: u32,
}

#[derive(Debug, Clone)]
struct BlockMeta {
    /// Datacenters holding a replica at the current version.
    valid: BTreeSet<DatacenterId>,
    /// Monotonic version, bumped on every write.
    version: u64,
    /// Last written payload (emulation keeps only the latest).
    data: Arc<[u8]>,
}

/// A pending background re-replication task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationTask {
    /// Block to copy.
    pub block: BlockId,
    /// Source (holds a valid replica).
    pub from: DatacenterId,
    /// Destination (stale or missing).
    pub to: DatacenterId,
}

/// The GDFS master: namespace, block metadata, and the re-replication queue.
#[derive(Debug, Default)]
pub struct GdfsMaster {
    files: BTreeMap<FileId, u32>, // file → block count
    blocks: BTreeMap<BlockId, BlockMeta>,
    replication_factor: usize,
    queue: VecDeque<ReplicationTask>,
    datacenters: Vec<DatacenterId>,
}

impl GdfsMaster {
    /// Creates a master for the given datacenters with a replication factor.
    ///
    /// # Panics
    ///
    /// Panics if `replication_factor` is zero or exceeds the datacenter
    /// count.
    pub fn new(datacenters: Vec<DatacenterId>, replication_factor: usize) -> Self {
        assert!(replication_factor >= 1, "need at least one replica");
        assert!(
            replication_factor <= datacenters.len(),
            "more replicas than datacenters"
        );
        Self {
            files: BTreeMap::new(),
            blocks: BTreeMap::new(),
            replication_factor,
            queue: VecDeque::new(),
            datacenters,
        }
    }

    /// Creates a file of `blocks` blocks, fully replicated at `home` plus
    /// the next `replication_factor − 1` datacenters.
    pub fn create_file(&mut self, file: FileId, blocks: u32, home: DatacenterId) -> bool {
        if self.files.contains_key(&file) {
            return false;
        }
        self.files.insert(file, blocks);
        let mut replicas = BTreeSet::new();
        replicas.insert(home);
        for dc in self.datacenters.iter().copied() {
            if replicas.len() >= self.replication_factor {
                break;
            }
            replicas.insert(dc);
        }
        for index in 0..blocks {
            self.blocks.insert(
                BlockId { file, index },
                BlockMeta {
                    valid: replicas.clone(),
                    version: 0,
                    data: Arc::from([]),
                },
            );
        }
        true
    }

    /// Writes a block at `dc`: the local replica becomes the only valid
    /// one, remote replicas are invalidated, and re-replication tasks are
    /// queued (the paper's write path).
    ///
    /// Returns the new version, or `None` for an unknown block.
    pub fn write(&mut self, block: BlockId, dc: DatacenterId, data: Arc<[u8]>) -> Option<u64> {
        let meta = self.blocks.get_mut(&block)?;
        meta.version += 1;
        meta.data = data;
        meta.valid.clear();
        meta.valid.insert(dc);
        // Queue background re-replication to the other datacenters, up to
        // the replication factor.
        let mut queued = 1;
        for other in self.datacenters.clone() {
            if other != dc && queued < self.replication_factor {
                self.queue.push_back(ReplicationTask {
                    block,
                    from: dc,
                    to: other,
                });
                queued += 1;
            }
        }
        Some(meta.version)
    }

    /// Reads a block from `dc`. Returns `(data, remote_fetch)`: when the
    /// local replica is stale/missing the read is served by a valid remote
    /// replica (`remote_fetch = true`).
    pub fn read(&self, block: BlockId, dc: DatacenterId) -> Option<(Arc<[u8]>, bool)> {
        let meta = self.blocks.get(&block)?;
        let local = meta.valid.contains(&dc);
        Some((meta.data.clone(), !local))
    }

    /// Pops and applies the next background re-replication task; the block
    /// becomes valid at the destination. Returns the task, or `None` when
    /// the queue is empty.
    pub fn replicate_step(&mut self) -> Option<ReplicationTask> {
        while let Some(task) = self.queue.pop_front() {
            let meta = self.blocks.get_mut(&task.block)?;
            // Skip stale tasks: the source must still hold a valid replica.
            if meta.valid.contains(&task.from) {
                meta.valid.insert(task.to);
                return Some(task);
            }
        }
        None
    }

    /// Pending re-replication tasks.
    pub fn pending_replications(&self) -> usize {
        self.queue.len()
    }

    /// Megabytes of `file`'s blocks that are valid **only** at `dc` — the
    /// data a VM migration must carry along (the paper's migration payload
    /// rule).
    pub fn unreplicated_mb(&self, file: FileId, dc: DatacenterId) -> f64 {
        let Some(&blocks) = self.files.get(&file) else {
            return 0.0;
        };
        let mut count = 0u32;
        for index in 0..blocks {
            if let Some(meta) = self.blocks.get(&BlockId { file, index }) {
                if meta.valid.len() == 1 && meta.valid.contains(&dc) {
                    count += 1;
                }
            }
        }
        count as f64 * BLOCK_MB
    }

    /// Marks every solely-`from`-valid block of `file` as migrated to `to`
    /// (called when a VM move completes).
    pub fn transfer_unique_blocks(&mut self, file: FileId, from: DatacenterId, to: DatacenterId) {
        let Some(&blocks) = self.files.get(&file) else {
            return;
        };
        for index in 0..blocks {
            if let Some(meta) = self.blocks.get_mut(&BlockId { file, index }) {
                if meta.valid.len() == 1 && meta.valid.contains(&from) {
                    meta.valid.insert(to);
                }
            }
        }
    }

    /// Number of valid replicas of a block (tests/invariants).
    pub fn replica_count(&self, block: BlockId) -> usize {
        self.blocks.get(&block).map_or(0, |m| m.valid.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn master() -> GdfsMaster {
        GdfsMaster::new(vec![DatacenterId(0), DatacenterId(1), DatacenterId(2)], 2)
    }

    const F: FileId = FileId(1);

    #[test]
    fn create_replicates_to_factor() {
        let mut m = master();
        assert!(m.create_file(F, 4, DatacenterId(1)));
        assert!(!m.create_file(F, 4, DatacenterId(1)), "no duplicate files");
        for i in 0..4 {
            assert_eq!(m.replica_count(BlockId { file: F, index: i }), 2);
        }
    }

    #[test]
    fn write_invalidates_remotes_and_queues_replication() {
        let mut m = master();
        m.create_file(F, 2, DatacenterId(0));
        let b = BlockId { file: F, index: 0 };
        let v = m.write(b, DatacenterId(2), Arc::from(&b"new"[..])).unwrap();
        assert_eq!(v, 1);
        assert_eq!(m.replica_count(b), 1, "only the writer holds validity");
        assert!(m.pending_replications() > 0);
        // Read at a stale site goes remote but sees the latest data.
        let (data, remote) = m.read(b, DatacenterId(0)).unwrap();
        assert!(remote);
        assert_eq!(&data[..], b"new");
        // Read at the writer is local.
        let (_, remote) = m.read(b, DatacenterId(2)).unwrap();
        assert!(!remote);
    }

    #[test]
    fn background_replication_restores_factor() {
        let mut m = master();
        m.create_file(F, 1, DatacenterId(0));
        let b = BlockId { file: F, index: 0 };
        m.write(b, DatacenterId(1), Arc::from(&b"x"[..])).unwrap();
        assert_eq!(m.replica_count(b), 1);
        let task = m.replicate_step().expect("task queued");
        assert_eq!(task.from, DatacenterId(1));
        assert_eq!(m.replica_count(b), 2);
        assert!(m.replicate_step().is_none());
    }

    #[test]
    fn stale_replication_tasks_are_skipped() {
        let mut m = master();
        m.create_file(F, 1, DatacenterId(0));
        let b = BlockId { file: F, index: 0 };
        m.write(b, DatacenterId(1), Arc::from(&b"a"[..])).unwrap();
        // Second write at a different site makes the first task stale.
        m.write(b, DatacenterId(2), Arc::from(&b"b"[..])).unwrap();
        while m.replicate_step().is_some() {}
        // All applied tasks must have come from currently-valid sources:
        // the final state holds the latest data everywhere it is valid.
        let (data, _) = m.read(b, DatacenterId(2)).unwrap();
        assert_eq!(&data[..], b"b");
    }

    #[test]
    fn migration_payload_counts_only_unique_blocks() {
        let mut m = master();
        m.create_file(F, 4, DatacenterId(0));
        assert_eq!(m.unreplicated_mb(F, DatacenterId(0)), 0.0);
        // Dirty two blocks locally.
        m.write(
            BlockId { file: F, index: 0 },
            DatacenterId(0),
            Arc::from([]),
        );
        m.write(
            BlockId { file: F, index: 3 },
            DatacenterId(0),
            Arc::from([]),
        );
        assert_eq!(m.unreplicated_mb(F, DatacenterId(0)), 2.0 * BLOCK_MB);
        // After background replication the payload shrinks to zero.
        while m.replicate_step().is_some() {}
        assert_eq!(m.unreplicated_mb(F, DatacenterId(0)), 0.0);
    }

    #[test]
    fn transfer_marks_blocks_at_destination() {
        let mut m = master();
        m.create_file(F, 2, DatacenterId(0));
        m.write(
            BlockId { file: F, index: 1 },
            DatacenterId(0),
            Arc::from([]),
        );
        m.transfer_unique_blocks(F, DatacenterId(0), DatacenterId(2));
        assert_eq!(m.unreplicated_mb(F, DatacenterId(0)), 0.0);
        let (_, remote) = m
            .read(BlockId { file: F, index: 1 }, DatacenterId(2))
            .unwrap();
        assert!(!remote, "destination now holds a valid replica");
    }

    #[test]
    fn read_your_writes_sequence() {
        // Invariant: after any write sequence, reading anywhere returns the
        // last written payload.
        let mut m = master();
        m.create_file(F, 1, DatacenterId(0));
        let b = BlockId { file: F, index: 0 };
        for (i, dc) in [0u32, 1, 2, 1, 0].iter().enumerate() {
            let payload: Arc<[u8]> = Arc::from(format!("v{i}").as_bytes());
            m.write(b, DatacenterId(*dc), payload.clone());
            for reader in 0..3 {
                let (data, _) = m.read(b, DatacenterId(reader)).unwrap();
                assert_eq!(data, payload, "reader {reader} after write {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "more replicas than datacenters")]
    fn replication_factor_validated() {
        GdfsMaster::new(vec![DatacenterId(0)], 3);
    }
}
