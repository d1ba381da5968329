//! GDFS: GreenNebula's mutation-capable distributed file system (§V-A).
//!
//! Design per the paper: one master holding name bindings and metadata
//! (HDFS-like), data blocks replicated across datacenters, **with file
//! mutation**: a write updates the local replica and invalidates the remote
//! replicas at the master; written blocks are re-replicated in the
//! background. A migrating VM therefore only ships the recently-modified
//! blocks that have not yet been re-replicated.
//!
//! The master keeps its block metadata flat. Each file owns a contiguous
//! range of slots, one per block, and slot `s` holds the block's version,
//! its payload and a bitset of the datacenters with a valid replica
//! (`ceil(n / 64)` words for `n` datacenters). An emulated hour writes,
//! re-replicates and migrates thousands of blocks, so a file's metadata is
//! one slice scan rather than a lookup per block.

use crate::cluster::DatacenterId;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
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

/// A queued re-replication: the block, its slot, and the source and
/// destination as bits of the slot's bitset.
#[derive(Debug, Clone, Copy)]
struct Queued {
    block: BlockId,
    slot: usize,
    from: usize,
    to: usize,
}

/// The GDFS master: namespace, block metadata, and the re-replication queue.
///
/// Replicas live only at the master's datacenters: a write at any other
/// datacenter is refused, a read there is always remote, and a file cannot
/// be homed there.
#[derive(Debug, Default)]
pub struct GdfsMaster {
    /// File → its first slot and block count.
    files: BTreeMap<FileId, (usize, u32)>,
    /// Valid-replica bitsets, `words` per slot; bit `b` stands for `ids[b]`.
    valid: Vec<u64>,
    words: usize,
    /// Per slot: monotonic version, bumped on every write.
    version: Vec<u64>,
    /// Per slot: last written payload (emulation keeps only the latest).
    data: Vec<Arc<[u8]>>,
    replication_factor: usize,
    queue: VecDeque<Queued>,
    datacenters: Vec<DatacenterId>,
    /// The distinct datacenters, sorted: the bitsets' bit order.
    ids: Vec<DatacenterId>,
}

/// Whether `bits` holds bit `b`.
fn holds(bits: &[u64], b: usize) -> bool {
    bits[b / 64] >> (b % 64) & 1 == 1
}

/// Sets bit `b` of `bits`.
fn set(bits: &mut [u64], b: usize) {
    bits[b / 64] |= 1 << (b % 64);
}

/// Whether `bits` holds bit `b` and no other.
fn holds_only(bits: &[u64], b: usize) -> bool {
    let (word, mask) = (b / 64, 1u64 << (b % 64));
    bits.iter()
        .enumerate()
        .all(|(w, &x)| x == if w == word { mask } else { 0 })
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
        let mut ids = datacenters.clone();
        ids.sort_unstable();
        ids.dedup();
        Self {
            words: ids.len().div_ceil(64),
            ids,
            replication_factor,
            datacenters,
            ..Self::default()
        }
    }

    /// The bit standing for `dc`, or `None` outside the master's
    /// datacenters.
    fn bit(&self, dc: DatacenterId) -> Option<usize> {
        self.ids.binary_search(&dc).ok()
    }

    /// The slot of `block`, or `None` for an unknown block.
    fn slot(&self, block: BlockId) -> Option<usize> {
        let &(start, blocks) = self.files.get(&block.file)?;
        (block.index < blocks).then(|| start + block.index as usize)
    }

    /// Where `slot`'s bitset sits in `valid`.
    fn slot_words(&self, slot: usize) -> Range<usize> {
        slot * self.words..(slot + 1) * self.words
    }

    /// Where the bitsets of `file`'s blocks sit in `valid`, or `None` for
    /// an unknown file.
    fn file_words(&self, file: FileId) -> Option<Range<usize>> {
        let &(start, blocks) = self.files.get(&file)?;
        Some(start * self.words..(start + blocks as usize) * self.words)
    }

    /// Creates a file of `blocks` blocks, fully replicated at `home` plus
    /// the next `replication_factor − 1` datacenters.
    ///
    /// Returns `false`, creating nothing, when the file exists or `home`
    /// is not one of the master's datacenters.
    pub fn create_file(&mut self, file: FileId, blocks: u32, home: DatacenterId) -> bool {
        if self.files.contains_key(&file) {
            return false;
        }
        let Some(home) = self.bit(home) else {
            return false;
        };
        let mut replicas = vec![0u64; self.words];
        set(&mut replicas, home);
        let mut count = 1;
        for &dc in &self.datacenters {
            if count >= self.replication_factor {
                break;
            }
            if let Some(b) = self.bit(dc).filter(|&b| !holds(&replicas, b)) {
                set(&mut replicas, b);
                count += 1;
            }
        }
        let start = self.version.len();
        self.files.insert(file, (start, blocks));
        let n = blocks as usize;
        for _ in 0..n {
            self.valid.extend_from_slice(&replicas);
        }
        self.version.resize(start + n, 0);
        let empty: Arc<[u8]> = Arc::from([]);
        self.data.resize(start + n, empty);
        true
    }

    /// Writes a block at `dc`: the local replica becomes the only valid
    /// one, remote replicas are invalidated, and re-replication tasks are
    /// queued (the paper's write path).
    ///
    /// Returns the new version, or `None` for an unknown block or a `dc`
    /// outside the master's datacenters.
    pub fn write(&mut self, block: BlockId, dc: DatacenterId, data: Arc<[u8]>) -> Option<u64> {
        let slot = self.slot(block)?;
        let from = self.bit(dc)?;
        self.version[slot] += 1;
        self.data[slot] = data;
        let words = self.slot_words(slot);
        let bits = &mut self.valid[words];
        bits.fill(0);
        set(bits, from);
        // Queue background re-replication to the other datacenters, up to
        // the replication factor.
        let mut queued = 1;
        for &other in &self.datacenters {
            if queued >= self.replication_factor {
                break;
            }
            if other != dc {
                if let Some(to) = self.bit(other) {
                    self.queue.push_back(Queued {
                        block,
                        slot,
                        from,
                        to,
                    });
                    queued += 1;
                }
            }
        }
        Some(self.version[slot])
    }

    /// Reads a block from `dc`. Returns `(data, remote_fetch)`: when the
    /// local replica is stale/missing the read is served by a valid remote
    /// replica (`remote_fetch = true`).
    pub fn read(&self, block: BlockId, dc: DatacenterId) -> Option<(Arc<[u8]>, bool)> {
        let slot = self.slot(block)?;
        let local = self
            .bit(dc)
            .is_some_and(|b| holds(&self.valid[self.slot_words(slot)], b));
        Some((self.data[slot].clone(), !local))
    }

    /// Pops and applies the next background re-replication task; the block
    /// becomes valid at the destination. Returns the task, or `None` when
    /// the queue is empty.
    pub fn replicate_step(&mut self) -> Option<ReplicationTask> {
        while let Some(task) = self.queue.pop_front() {
            let words = self.slot_words(task.slot);
            let bits = &mut self.valid[words];
            // Skip stale tasks: the source must still hold a valid replica.
            if holds(bits, task.from) {
                set(bits, task.to);
                return Some(ReplicationTask {
                    block: task.block,
                    from: self.ids[task.from],
                    to: self.ids[task.to],
                });
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
        let (Some(words), Some(b)) = (self.file_words(file), self.bit(dc)) else {
            return 0.0;
        };
        let count = self.valid[words]
            .chunks_exact(self.words)
            .filter(|bits| holds_only(bits, b))
            .count();
        count as f64 * BLOCK_MB
    }

    /// Marks every solely-`from`-valid block of `file` as migrated to `to`
    /// (called when a VM move completes).
    pub fn transfer_unique_blocks(&mut self, file: FileId, from: DatacenterId, to: DatacenterId) {
        let (Some(words), Some(from), Some(to)) =
            (self.file_words(file), self.bit(from), self.bit(to))
        else {
            return;
        };
        let w = self.words;
        for bits in self.valid[words].chunks_exact_mut(w) {
            if holds_only(bits, from) {
                set(bits, to);
            }
        }
    }

    /// Number of valid replicas of a block (tests/invariants).
    pub fn replica_count(&self, block: BlockId) -> usize {
        self.slot(block).map_or(0, |slot| {
            self.valid[self.slot_words(slot)]
                .iter()
                .map(|x| x.count_ones() as usize)
                .sum()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeSet;

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

    #[test]
    fn datacenters_outside_the_master_hold_no_replica() {
        let mut m = master();
        let alien = DatacenterId(9);
        assert!(!m.create_file(F, 2, alien), "no file is homed outside");
        assert!(m.create_file(F, 2, DatacenterId(0)));
        let b = BlockId { file: F, index: 0 };
        assert_eq!(m.write(b, alien, Arc::from([])), None, "write refused");
        assert_eq!(m.pending_replications(), 0);
        assert!(m.read(b, alien).is_some_and(|(_, remote)| remote));
        m.write(b, DatacenterId(0), Arc::from([]));
        m.transfer_unique_blocks(F, DatacenterId(0), alien);
        assert_eq!(m.replica_count(b), 1, "nothing lands outside");
        assert_eq!(m.unreplicated_mb(F, alien), 0.0);
    }

    #[derive(Debug, Clone)]
    struct MapBlock {
        valid: BTreeSet<DatacenterId>,
        version: u64,
        data: Arc<[u8]>,
    }

    /// The master as it was before its metadata went flat: an ordered map
    /// entry and a replica set per block, found by one lookup per block.
    /// The differential test below holds [`GdfsMaster`] to its answers.
    #[derive(Debug)]
    struct MapMaster {
        files: BTreeMap<FileId, u32>,
        blocks: BTreeMap<BlockId, MapBlock>,
        replication_factor: usize,
        queue: VecDeque<ReplicationTask>,
        datacenters: Vec<DatacenterId>,
    }

    impl MapMaster {
        fn new(datacenters: Vec<DatacenterId>, replication_factor: usize) -> Self {
            Self {
                files: BTreeMap::new(),
                blocks: BTreeMap::new(),
                replication_factor,
                queue: VecDeque::new(),
                datacenters,
            }
        }

        fn create_file(&mut self, file: FileId, blocks: u32, home: DatacenterId) -> bool {
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
                    MapBlock {
                        valid: replicas.clone(),
                        version: 0,
                        data: Arc::from([]),
                    },
                );
            }
            true
        }

        fn write(&mut self, block: BlockId, dc: DatacenterId, data: Arc<[u8]>) -> Option<u64> {
            let meta = self.blocks.get_mut(&block)?;
            meta.version += 1;
            meta.data = data;
            meta.valid.clear();
            meta.valid.insert(dc);
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

        fn read(&self, block: BlockId, dc: DatacenterId) -> Option<(Arc<[u8]>, bool)> {
            let meta = self.blocks.get(&block)?;
            let local = meta.valid.contains(&dc);
            Some((meta.data.clone(), !local))
        }

        fn replicate_step(&mut self) -> Option<ReplicationTask> {
            while let Some(task) = self.queue.pop_front() {
                let meta = self.blocks.get_mut(&task.block)?;
                if meta.valid.contains(&task.from) {
                    meta.valid.insert(task.to);
                    return Some(task);
                }
            }
            None
        }

        fn pending_replications(&self) -> usize {
            self.queue.len()
        }

        fn unreplicated_mb(&self, file: FileId, dc: DatacenterId) -> f64 {
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

        fn transfer_unique_blocks(&mut self, file: FileId, from: DatacenterId, to: DatacenterId) {
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

        fn replica_count(&self, block: BlockId) -> usize {
            self.blocks.get(&block).map_or(0, |m| m.valid.len())
        }
    }

    /// Drives a [`GdfsMaster`] and the [`MapMaster`] oracle through `ops`
    /// seeded random operations, asserting that every answer agrees.
    /// Returns how many stale tasks the drains skipped.
    fn agree_with_the_oracle(
        seed: u64,
        datacenters: &[DatacenterId],
        replication: usize,
        ops: usize,
    ) -> usize {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut flat = GdfsMaster::new(datacenters.to_vec(), replication);
        let mut oracle = MapMaster::new(datacenters.to_vec(), replication);
        let dc = |rng: &mut ChaCha8Rng| datacenters[rng.gen_range(0..datacenters.len())];
        // Some ids name no file, and some indices lie past a file's end.
        let file = |rng: &mut ChaCha8Rng| FileId(rng.gen_range(0..12u64));
        let block = |rng: &mut ChaCha8Rng| BlockId {
            file: file(rng),
            index: rng.gen_range(0..10u32),
        };
        let mut skipped = 0;
        for op in 0..ops {
            match rng.gen_range(0..9u32) {
                0 => {
                    let (f, blocks, home) = (file(&mut rng), rng.gen_range(0..9u32), dc(&mut rng));
                    let created = flat.create_file(f, blocks, home);
                    assert_eq!(created, oracle.create_file(f, blocks, home), "op {op}");
                }
                1 | 2 => {
                    let (b, at) = (block(&mut rng), dc(&mut rng));
                    let data: Arc<[u8]> = Arc::from(format!("w{op}").as_bytes());
                    let version = flat.write(b, at, Arc::clone(&data));
                    assert_eq!(version, oracle.write(b, at, data), "op {op}");
                }
                3 => {
                    // Rewrite one block at two sites in a row: the first
                    // write's tasks go stale.
                    let b = block(&mut rng);
                    for _ in 0..2 {
                        let at = dc(&mut rng);
                        let data: Arc<[u8]> = Arc::from(format!("s{op}").as_bytes());
                        let version = flat.write(b, at, Arc::clone(&data));
                        assert_eq!(version, oracle.write(b, at, data), "op {op}");
                    }
                }
                4 => {
                    // A partial drain.
                    for _ in 0..rng.gen_range(0..8u32) {
                        let before = flat.pending_replications();
                        let task = flat.replicate_step();
                        assert_eq!(task, oracle.replicate_step(), "op {op}");
                        skipped +=
                            before - flat.pending_replications() - usize::from(task.is_some());
                    }
                }
                5 => {
                    let (f, from, to) = (file(&mut rng), dc(&mut rng), dc(&mut rng));
                    flat.transfer_unique_blocks(f, from, to);
                    oracle.transfer_unique_blocks(f, from, to);
                }
                6 => {
                    let (f, at) = (file(&mut rng), dc(&mut rng));
                    assert_eq!(
                        flat.unreplicated_mb(f, at),
                        oracle.unreplicated_mb(f, at),
                        "op {op}"
                    );
                }
                7 => {
                    let b = block(&mut rng);
                    assert_eq!(flat.replica_count(b), oracle.replica_count(b), "op {op}");
                }
                _ => {
                    let (b, at) = (block(&mut rng), dc(&mut rng));
                    let got = flat.read(b, at);
                    let want = oracle.read(b, at);
                    assert_eq!(
                        got.as_ref().map(|(d, remote)| (&d[..], *remote)),
                        want.as_ref().map(|(d, remote)| (&d[..], *remote)),
                        "op {op}"
                    );
                }
            }
            assert_eq!(
                flat.pending_replications(),
                oracle.pending_replications(),
                "op {op}"
            );
        }
        // Every file's blocks, at every site, agree at the end too.
        for f in 0..12 {
            for &at in datacenters {
                assert_eq!(
                    flat.unreplicated_mb(FileId(f), at),
                    oracle.unreplicated_mb(FileId(f), at)
                );
            }
            for index in 0..10 {
                let b = BlockId {
                    file: FileId(f),
                    index,
                };
                assert_eq!(flat.replica_count(b), oracle.replica_count(b));
            }
        }
        skipped
    }

    #[test]
    fn flat_metadata_agrees_with_the_map_oracle() {
        let ids = |ids: &[u32]| ids.iter().map(|&i| DatacenterId(i)).collect::<Vec<_>>();
        // Beyond 64 sites each bitset spans two words; these 70 ids are
        // neither sorted nor contiguous.
        let seventy: Vec<DatacenterId> =
            (0..70).map(|i| DatacenterId((i * 37) % 101 + 5)).collect();
        let cases = [
            // The emulation's shape.
            (ids(&[0, 1, 2]), 2),
            (seventy, 3),
            // Every site holds a replica.
            (ids(&[4, 1, 9, 6, 2]), 5),
            // A list that names one site twice.
            (ids(&[2, 0, 2, 1]), 3),
            (ids(&[5]), 1),
        ];
        for (seed, (datacenters, replication)) in cases.iter().enumerate() {
            let skipped =
                agree_with_the_oracle(0x6DF5 + seed as u64, datacenters, *replication, 4_000);
            if *replication > 1 {
                assert!(skipped > 0, "case {seed}: no stale task was skipped");
            }
        }
    }
}
