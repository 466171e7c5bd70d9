//! The packed, sharded unit store behind `--cache` and `sia serve`.
//!
//! ## Layout
//!
//! Units fan out by the first two hex characters of their address, and
//! each shard directory holds **append-only pack segments**:
//!
//! ```text
//! results/.cache/
//!   ab/seg-12345-0.pack     ← shard "ab": all units whose address
//!   ab/seg-12345-1.pack       starts with those two hex chars
//!   cd/seg-12345-0.pack
//! ```
//!
//! A segment is a header line (`sipack v1`) followed by records:
//!
//! ```text
//! u <spec_len> <payload_len> <fnv64-hex>\n
//! <spec bytes>\n
//! <payload bytes>\n
//! ```
//!
//! `spec bytes` is the unit's full canonical line (epoch included) and
//! the checksum covers `spec \n payload`, so every record is
//! self-describing: the unit's 128-bit address is recomputed from the
//! spec line at open, never trusted from disk.
//!
//! ## Warm lookups cost zero syscalls
//!
//! [`PackStore::open`] reads every segment once and builds an in-memory
//! index (address → spec + payload). Lookups after that touch no file;
//! the `store_lookup/*` bench tier gates their cost.
//!
//! ## Crash-safety rule
//!
//! Segments become visible only via temp-file + rename, so a visible
//! segment is always complete. Fresh writes accumulate in a per-shard
//! pending buffer (immediately visible to this process's lookups) until
//! [`PackStore::flush`] rotates them into a new segment; a crash loses
//! only pending records, which costs re-execution, never corruption. A
//! corrupt record on disk (bit flip, torn tail) fails its checksum and
//! parsing of that segment stops at the last good record — the store
//! degrades to cache misses, never to a wrong payload.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::digest::{fnv64, Digest};
use crate::unit::UnitSpec;

/// First line of every pack segment.
const SEGMENT_HEADER: &str = "sipack v1";

/// File extension of pack segments.
const SEGMENT_EXT: &str = "pack";

/// Aggregate store statistics (`sia cache stats`), split by liveness:
/// an entry is **live** when its stored epoch matches the inspecting
/// build's `CODE_EPOCH`, **orphaned** otherwise. Orphans are unreachable
/// by lookups (the epoch is folded into the address and the verified
/// spec line) but still occupy disk until `cache clear` — counting them
/// separately keeps CI assertions insensitive to epoch bumps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries whose epoch matches the current build.
    pub live_entries: u64,
    /// Total size of the live entries in bytes.
    pub live_bytes: u64,
    /// Entries stranded by an earlier code epoch.
    pub orphaned_entries: u64,
    /// Total size of the orphaned entries in bytes.
    pub orphaned_bytes: u64,
}

/// One indexed unit: its canonical spec line and payload.
#[derive(Debug, Clone)]
struct Entry {
    spec: String,
    payload: String,
    /// Whether the record is already in a visible segment (false =
    /// pending, lost on crash, persisted by the next flush).
    on_disk: bool,
}

impl Entry {
    /// The record's on-disk footprint (header line + spec + payload +
    /// separators) — what `stats` reports as entry bytes.
    fn record_len(&self) -> u64 {
        let checksum_hex = 16;
        let header = 1 + 1 // "u "
            + decimal_len(self.spec.len()) + 1
            + decimal_len(self.payload.len()) + 1
            + checksum_hex + 1;
        (header + self.spec.len() + 1 + self.payload.len() + 1) as u64
    }
}

fn decimal_len(n: usize) -> usize {
    n.to_string().len()
}

#[derive(Debug, Default)]
struct Inner {
    /// Address → entry, for every unit the store knows.
    index: HashMap<String, Entry>,
    /// Shard (`"ab"`) → addresses written since the last flush.
    pending: HashMap<String, Vec<String>>,
}

/// The packed, sharded unit store. Cheap to clone: clones share one
/// index, so an engine cloned per request in the daemon still
/// deduplicates through the same store.
#[derive(Debug, Clone)]
pub struct PackStore {
    dir: PathBuf,
    inner: Arc<RwLock<Inner>>,
    /// Per-process segment counter: segment names are
    /// `seg-<pid>-<counter>.pack`, unique even when concurrent processes
    /// share the directory.
    segment_counter: Arc<AtomicU64>,
}

impl PackStore {
    /// Opens the store rooted at `dir`: reads every visible segment into
    /// the in-memory index, ready for zero-syscall lookups. Unreadable or
    /// corrupt data degrades to absent entries — open never fails.
    pub fn open(dir: impl Into<PathBuf>) -> PackStore {
        let dir = dir.into();
        let mut inner = Inner::default();
        if let Ok(shards) = std::fs::read_dir(&dir) {
            let mut shard_dirs: Vec<PathBuf> = shards
                .flatten()
                .filter(|e| e.file_type().is_ok_and(|t| t.is_dir()))
                .map(|e| e.path())
                .collect();
            shard_dirs.sort();
            for shard in shard_dirs {
                let Ok(files) = std::fs::read_dir(&shard) else {
                    continue;
                };
                let mut paths: Vec<PathBuf> = files.flatten().map(|e| e.path()).collect();
                paths.sort();
                for path in paths {
                    if path.extension().is_some_and(|x| x == SEGMENT_EXT) {
                        if let Ok(bytes) = std::fs::read(&path) {
                            parse_segment(&bytes, &mut inner);
                        }
                    }
                }
            }
        }
        PackStore {
            dir,
            inner: Arc::new(RwLock::new(inner)),
            segment_counter: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Looks up a unit's payload. Pure in-memory: returns `None` on a
    /// miss — including an indexed entry whose stored spec line does not
    /// match the request (an address collision is verified away on read).
    pub fn lookup(&self, spec: &UnitSpec, code_epoch: u64) -> Option<String> {
        let canonical = spec.canonical(code_epoch);
        let address = spec.address(code_epoch);
        let inner = self.inner.read().expect("store lock");
        let entry = inner.index.get(&address)?;
        (entry.spec == canonical).then(|| entry.payload.clone())
    }

    /// Stores a unit's payload in the pending buffer (visible to this
    /// process's lookups immediately; persisted by the next
    /// [`flush`](Self::flush)). Payloads must not be rewritten: a unit is
    /// a pure function of its spec, so the first payload wins.
    pub fn store(&self, spec: &UnitSpec, code_epoch: u64, payload: &str) {
        let mut inner = self.inner.write().expect("store lock");
        insert(
            &mut inner,
            spec.canonical(code_epoch),
            payload.to_owned(),
            false,
        );
    }

    /// Rotates every pending record into a fresh segment per shard
    /// (temp + rename, so concurrent readers and a crash mid-flush see
    /// either the old segment set or the new one, never a torn file).
    pub fn flush(&self) -> io::Result<()> {
        let mut inner = self.inner.write().expect("store lock");
        let pending = std::mem::take(&mut inner.pending);
        let mut shards: Vec<(String, Vec<String>)> = pending.into_iter().collect();
        shards.sort();
        for (shard, addresses) in shards {
            let mut segment = format!("{SEGMENT_HEADER}\n").into_bytes();
            for address in &addresses {
                let entry = &inner.index[address];
                let checksum = record_checksum(&entry.spec, &entry.payload);
                segment.extend_from_slice(
                    format!(
                        "u {} {} {checksum:016x}\n",
                        entry.spec.len(),
                        entry.payload.len()
                    )
                    .as_bytes(),
                );
                segment.extend_from_slice(entry.spec.as_bytes());
                segment.push(b'\n');
                segment.extend_from_slice(entry.payload.as_bytes());
                segment.push(b'\n');
            }
            let shard_dir = self.dir.join(&shard);
            std::fs::create_dir_all(&shard_dir)?;
            let name = format!(
                "seg-{}-{}",
                std::process::id(),
                self.segment_counter.fetch_add(1, Ordering::SeqCst)
            );
            // The temp name must not end in `.pack`, or a crashed flush's
            // dropping would be parsed as a real (truncated) segment.
            let tmp = shard_dir.join(format!(".tmp-{name}"));
            std::fs::write(&tmp, &segment)?;
            std::fs::rename(&tmp, shard_dir.join(format!("{name}.{SEGMENT_EXT}")))?;
            for address in &addresses {
                if let Some(entry) = inner.index.get_mut(address) {
                    entry.on_disk = true;
                }
            }
        }
        Ok(())
    }

    /// Entry/byte counts split into live (spec stored under
    /// `code_epoch`) and orphaned (any other epoch). Counts the
    /// in-memory index, pending records included.
    pub fn stats(&self, code_epoch: u64) -> CacheStats {
        let prefix = format!("epoch={code_epoch:x} ");
        let mut stats = CacheStats::default();
        let inner = self.inner.read().expect("store lock");
        for entry in inner.index.values() {
            if entry.spec.starts_with(&prefix) {
                stats.live_entries += 1;
                stats.live_bytes += entry.record_len();
            } else {
                stats.orphaned_entries += 1;
                stats.orphaned_bytes += entry.record_len();
            }
        }
        stats
    }

    /// Deletes every entry: drops the index and removes all segments and
    /// then-empty shard directories. Returns how many indexed entries
    /// were dropped.
    pub fn clear(&self) -> io::Result<u64> {
        let mut inner = self.inner.write().expect("store lock");
        let removed = inner.index.len() as u64;
        inner.index.clear();
        inner.pending.clear();
        if let Ok(shards) = std::fs::read_dir(&self.dir) {
            for shard in shards.flatten() {
                if !shard.file_type().is_ok_and(|t| t.is_dir()) {
                    continue;
                }
                for file in std::fs::read_dir(shard.path())?.flatten() {
                    let path = file.path();
                    if path.extension().is_some_and(|x| x == SEGMENT_EXT) {
                        let _ = std::fs::remove_file(&path);
                    }
                }
                let _ = std::fs::remove_dir(shard.path());
            }
            let _ = std::fs::remove_dir(&self.dir);
        }
        Ok(removed)
    }

    /// How many entries the index currently holds (tests and the
    /// daemon's stats endpoint).
    pub fn len(&self) -> usize {
        self.inner.read().expect("store lock").index.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Indexes one record. The address is always recomputed from the spec
/// line; `on_disk: false` also queues the record for the next flush.
fn insert(inner: &mut Inner, spec: String, payload: String, on_disk: bool) {
    let mut digest = Digest::new();
    digest.write_str(&spec);
    let address = digest.hex();
    if let Some(existing) = inner.index.get(&address) {
        if existing.spec == spec {
            return; // First payload wins; duplicates are identical.
        }
        // A 128-bit collision between distinct specs: keep the first
        // entry; the loser degrades to a permanent miss (re-executes).
        return;
    }
    if !on_disk {
        inner
            .pending
            .entry(address[..2].to_owned())
            .or_default()
            .push(address.clone());
    }
    inner.index.insert(
        address,
        Entry {
            spec,
            payload,
            on_disk,
        },
    );
}

/// The checksum stored in each record header: FNV-1a 64 over
/// `spec \n payload`.
fn record_checksum(spec: &str, payload: &str) -> u64 {
    let mut bytes = Vec::with_capacity(spec.len() + 1 + payload.len());
    bytes.extend_from_slice(spec.as_bytes());
    bytes.push(b'\n');
    bytes.extend_from_slice(payload.as_bytes());
    fnv64(&bytes)
}

/// Parses a segment's records into the index, stopping at the first
/// malformed or checksum-failing record (everything after it is
/// untrusted). A bad header rejects the whole segment.
fn parse_segment(bytes: &[u8], inner: &mut Inner) {
    let Some(header_end) = bytes.iter().position(|&b| b == b'\n') else {
        return;
    };
    if &bytes[..header_end] != SEGMENT_HEADER.as_bytes() {
        return;
    }
    let mut pos = header_end + 1;
    while pos < bytes.len() {
        let Some(line_len) = bytes[pos..].iter().position(|&b| b == b'\n') else {
            return;
        };
        let Ok(header) = std::str::from_utf8(&bytes[pos..pos + line_len]) else {
            return;
        };
        let mut fields = header.split(' ');
        let (Some("u"), Some(spec_len), Some(payload_len), Some(checksum), None) = (
            fields.next(),
            fields.next(),
            fields.next(),
            fields.next(),
            fields.next(),
        ) else {
            return;
        };
        let (Ok(spec_len), Ok(payload_len), Ok(checksum)) = (
            spec_len.parse::<usize>(),
            payload_len.parse::<usize>(),
            u64::from_str_radix(checksum, 16),
        ) else {
            return;
        };
        pos += line_len + 1;
        let spec_end = pos.checked_add(spec_len);
        let payload_end = spec_end.and_then(|e| e.checked_add(1 + payload_len));
        let record_end = payload_end.and_then(|e| e.checked_add(1));
        let Some((spec_end, payload_end, record_end)) = (match (spec_end, payload_end, record_end) {
            (Some(s), Some(p), Some(r)) if r <= bytes.len() => Some((s, p, r)),
            _ => None,
        }) else {
            return; // Truncated tail.
        };
        if bytes[spec_end] != b'\n' || bytes[record_end - 1] != b'\n' {
            return;
        }
        let spec_bytes = &bytes[pos..spec_end];
        let payload_bytes = &bytes[spec_end + 1..payload_end];
        let (Ok(spec), Ok(payload)) = (
            std::str::from_utf8(spec_bytes),
            std::str::from_utf8(payload_bytes),
        ) else {
            return;
        };
        if record_checksum(spec, payload) != checksum {
            return; // Bit flip: this and everything after is untrusted.
        }
        insert(inner, spec.to_owned(), payload.to_owned(), true);
        pos = record_end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("si-store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec(trial: u64) -> UnitSpec {
        UnitSpec {
            kind: "sweep",
            key: "scheme=dom".to_owned(),
            trial,
            seed: 7,
            config_digest: 1,
        }
    }

    #[test]
    fn store_lookup_round_trips_across_reopen() {
        let dir = temp_dir("roundtrip");
        let store = PackStore::open(&dir);
        assert_eq!(store.lookup(&spec(0), 1), None, "cold store misses");
        store.store(&spec(0), 1, "line1\nline2");
        assert_eq!(
            store.lookup(&spec(0), 1).as_deref(),
            Some("line1\nline2"),
            "pending records are visible before flush"
        );
        store.flush().expect("flush");
        let reopened = PackStore::open(&dir);
        assert_eq!(
            reopened.lookup(&spec(0), 1).as_deref(),
            Some("line1\nline2")
        );
        assert_eq!(reopened.lookup(&spec(1), 1), None);
        assert_eq!(reopened.lookup(&spec(0), 2), None, "epoch is identity");
        reopened.clear().expect("clear");
    }

    #[test]
    fn unflushed_records_are_lost_flushed_records_survive() {
        let dir = temp_dir("crash");
        let store = PackStore::open(&dir);
        store.store(&spec(0), 1, "kept");
        store.flush().expect("flush");
        store.store(&spec(1), 1, "lost");
        // Simulated crash: reopen without flushing.
        let reopened = PackStore::open(&dir);
        assert_eq!(reopened.lookup(&spec(0), 1).as_deref(), Some("kept"));
        assert_eq!(reopened.lookup(&spec(1), 1), None);
        reopened.clear().expect("clear");
    }

    #[test]
    fn segments_accumulate_per_shard_and_reopen_merges_them() {
        let dir = temp_dir("segments");
        let store = PackStore::open(&dir);
        for t in 0..20 {
            store.store(&spec(t), 1, &format!("payload-{t}"));
            if t % 5 == 4 {
                store.flush().expect("flush");
            }
        }
        store.flush().expect("flush");
        let reopened = PackStore::open(&dir);
        assert_eq!(reopened.len(), 20);
        for t in 0..20 {
            assert_eq!(
                reopened.lookup(&spec(t), 1).as_deref(),
                Some(format!("payload-{t}").as_str())
            );
        }
        reopened.clear().expect("clear");
    }

    #[test]
    fn stats_split_live_from_orphaned_by_epoch() {
        let dir = temp_dir("stats");
        let store = PackStore::open(&dir);
        assert_eq!(store.stats(1), CacheStats::default());
        for t in 0..3 {
            store.store(&spec(t), 1, "x");
        }
        store.store(&spec(0), 2, "y");
        let stats = store.stats(2);
        assert_eq!(stats.live_entries, 1);
        assert_eq!(stats.orphaned_entries, 3);
        assert!(stats.live_bytes > 0 && stats.orphaned_bytes > 0);
        let old = store.stats(1);
        assert_eq!((old.live_entries, old.orphaned_entries), (3, 1));
        assert_eq!(store.clear().expect("clear"), 4);
        assert_eq!(store.stats(1), CacheStats::default());
    }

    #[test]
    fn clear_removes_segments_and_reopen_is_empty() {
        let dir = temp_dir("clear");
        let store = PackStore::open(&dir);
        for t in 0..4 {
            store.store(&spec(t), 1, "x");
        }
        store.flush().expect("flush");
        assert_eq!(store.clear().expect("clear"), 4);
        assert!(store.is_empty());
        assert!(PackStore::open(&dir).is_empty());
    }

    /// A crashed flush leaves a `.tmp-*` dropping behind; even when its
    /// bytes form a valid segment it is never indexed, because only
    /// renamed `.pack` files are visible.
    #[test]
    fn temp_droppings_are_not_segments() {
        let dir = temp_dir("droppings");
        let (spec_line, payload) = (spec(1).canonical(1), "y");
        let checksum = record_checksum(&spec_line, payload);
        let segment = format!(
            "{SEGMENT_HEADER}\nu {} {} {checksum:016x}\n{spec_line}\n{payload}\n",
            spec_line.len(),
            payload.len()
        );
        let dropping = dir.join("zz").join(".tmp-99999-seg-0");
        std::fs::create_dir_all(dir.join("zz")).expect("shard dir");
        std::fs::write(&dropping, segment).expect("dropping");
        assert!(
            PackStore::open(&dir).is_empty(),
            "the dropping was not indexed"
        );
        // The same bytes under a segment name are a real segment.
        std::fs::rename(&dropping, dir.join("zz").join("seg-99999-0.pack")).expect("rename");
        let reopened = PackStore::open(&dir);
        assert_eq!(reopened.lookup(&spec(1), 1).as_deref(), Some(payload));
        reopened.clear().expect("clear");
    }

    #[test]
    fn truncated_segment_keeps_the_intact_prefix() {
        let dir = temp_dir("truncate");
        let store = PackStore::open(&dir);
        for t in 0..8 {
            store.store(&spec(t), 1, &format!("payload-{t}"));
        }
        store.flush().expect("flush");
        // All 8 records share one shard-spread; truncate every segment's
        // last 10 bytes.
        let mut total_after = 0;
        for shard in std::fs::read_dir(&dir).expect("dir").flatten() {
            for file in std::fs::read_dir(shard.path()).expect("shard").flatten() {
                let bytes = std::fs::read(file.path()).expect("read");
                std::fs::write(file.path(), &bytes[..bytes.len() - 10]).expect("truncate");
            }
        }
        let reopened = PackStore::open(&dir);
        for t in 0..8 {
            if reopened.lookup(&spec(t), 1).is_some() {
                total_after += 1;
            }
        }
        assert!(
            total_after < 8,
            "truncation must lose at least the torn record"
        );
        // Lost units are misses (re-executable), never wrong payloads —
        // asserted by lookup returning the exact original payload above.
        reopened.clear().expect("clear");
    }

    /// Verify-on-read: an indexed entry at the requested address whose
    /// stored spec line differs (a forged 128-bit collision) is a miss,
    /// never a wrong payload.
    #[test]
    fn spec_line_mismatch_is_a_miss_not_a_wrong_hit() {
        let store = PackStore::open(temp_dir("collision"));
        let s = spec(0);
        store.inner.write().expect("store lock").index.insert(
            s.address(1),
            Entry {
                spec: "epoch=1 kind=sweep something-else".to_owned(),
                payload: "forged".to_owned(),
                on_disk: true,
            },
        );
        assert_eq!(store.lookup(&s, 1), None);
        // An honest entry under another epoch lives at another address.
        store.store(&s, 2, "real");
        assert_eq!(store.lookup(&s, 2).as_deref(), Some("real"));
        assert_eq!(store.lookup(&s, 1), None);
    }
}
