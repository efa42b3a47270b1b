//! The edge cache: cooked transmissions resident at the base station.
//!
//! The paper's base station (Figure 1) is where weakly-connected
//! clients win or lose; this module keeps *cooked* transmissions there
//! so a repeat request never touches the erasure codec. An entry is one
//! whole transmission, the [`LiveServer`] its cook built: all `N` wire
//! frames, plus the envelopes it seals on first use
//! ([`LiveServer::sealed`]). A hit hands out that `Arc`, so every
//! session it serves shares one set of frames and envelopes and sends
//! exactly what a cook would send.
//!
//! Structure:
//!
//! * **memory** — whole transmissions under a byte budget of payload
//!   (`N · packet_size` per entry), in a two-segment (probation/protected)
//!   LRU: an admission over the budget evicts whole entries, probation
//!   before protected and least recently used first in each, so a sweep
//!   of one-shot requests churns probation while re-referenced documents
//!   stay; an admission whose transmission alone exceeds the budget is
//!   refused;
//! * **disk** (a cache opened on a directory, [`EdgeCache::new`]) — each
//!   entry's MRTB blob ([`crate::codec::encode_dispersed`]'s layout),
//!   written temp-file-and-rename at admission and removed with the
//!   entry: the at-rest copy a migration ships, which leaves the cell
//!   only while it still carries the packets admitted (their digest is
//!   recorded in the entry);
//! * **migration** — [`crate::migrate`] frames `(key, header, blob)`
//!   into a CRC-guarded record another cell's cache admits verbatim,
//!   the roaming path of Stanski et al.'s archive container.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use mrtweb_content::sc::Measure;
use mrtweb_docmodel::lod::Lod;
use mrtweb_obs::{emit, EventKind, Span};
use mrtweb_transport::live::{DocumentHeader, LiveServer};

use crate::codec::{write_blob, BlobPackets, CodecError};
use crate::disk::fnv1a;
use crate::gateway::Request;

/// Everything that shapes a cached transmission: the edge cache's key,
/// public so migration records can carry it between cells.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EdgeKey {
    /// Document URL.
    pub url: String,
    /// Free-text query (empty → static IC ordering).
    pub query: String,
    /// Transmission level of detail.
    pub lod: Lod,
    /// Content measure ordering the units.
    pub measure: Measure,
    /// Raw packet size.
    pub packet_size: usize,
    /// Redundancy ratio γ, bit-exact (`f64::to_bits`).
    pub gamma_bits: u64,
}

impl EdgeKey {
    /// The key a request maps to.
    #[must_use]
    pub fn of(request: &Request) -> Self {
        EdgeKey {
            url: request.url.clone(),
            query: request.query.clone(),
            lod: request.lod,
            measure: request.measure,
            packet_size: request.packet_size,
            gamma_bits: request.gamma.to_bits(),
        }
    }

    /// Stable, filesystem-safe blob filename for this key.
    fn file_name(&self) -> String {
        let canon = format!(
            "{}\u{1f}{}\u{1f}{}\u{1f}{:?}\u{1f}{}\u{1f}{:016x}",
            self.url,
            self.query,
            self.lod.depth(),
            self.measure,
            self.packet_size,
            self.gamma_bits
        );
        format!("{:016x}.mrtb", fnv1a(&canon))
    }
}

/// Edge-cache errors.
#[derive(Debug)]
pub enum EdgeError {
    /// Underlying I/O failure on the blob directory.
    Io(io::Error),
    /// A blob or migration record failed to parse or validate.
    Codec(CodecError),
}

impl std::fmt::Display for EdgeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeError::Io(e) => write!(f, "edge i/o error: {e}"),
            EdgeError::Codec(e) => write!(f, "edge {e}"),
        }
    }
}

impl std::error::Error for EdgeError {}

impl From<io::Error> for EdgeError {
    fn from(e: io::Error) -> Self {
        EdgeError::Io(e)
    }
}

impl From<CodecError> for EdgeError {
    fn from(e: CodecError) -> Self {
        EdgeError::Codec(e)
    }
}

/// Point-in-time cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeStats {
    /// Lookups that served a cached transmission.
    pub hits: u64,
    /// Lookups that found no entry, or a stale one (cooked from another
    /// store generation), which they dropped.
    pub misses: u64,
    /// Whole entries dropped from memory and disk: over budget, stale,
    /// or with an at-rest blob that is no longer the one admitted.
    pub evictions: u64,
    /// Migration records shipped out of this cell.
    pub migrations_out: u64,
    /// Migration records admitted from another cell.
    pub migrations_in: u64,
    /// Admissions that failed outright (cache-disk I/O, blob/header
    /// disagreement) — the request still serves from the cooked
    /// transmission, only the cache copy is lost.
    pub admit_failures: u64,
    /// Payload bytes (`N · packet_size` per entry) resident in memory.
    pub resident_bytes: usize,
    /// Entries currently resident.
    pub entries: usize,
}

/// Which LRU segment an entry lives in; eviction empties probation
/// before it touches protected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Segment {
    /// Admitted and not yet hit.
    Probation,
    /// Hit at least once: survives scans.
    Protected,
}

/// One resident transmission.
#[derive(Debug)]
struct Entry {
    server: Arc<LiveServer>,
    /// [`BlobPackets::digest`] of the blob as admitted: export ships the
    /// file on disk only while it still carries exactly these packets.
    /// Unused by a memory-only cache.
    digest: u32,
    /// Store generation the transmission was cooked from; `None` = the
    /// edge holds this entry authoritatively (migrated from another cell).
    origin: Option<u64>,
    segment: Segment,
    last_used: u64,
}

/// Payload bytes a transmission holds against the budget.
fn payload_bytes(server: &LiveServer) -> usize {
    let header = server.header();
    header.n.saturating_mul(header.packet_size)
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<EdgeKey, Entry>,
    /// Payload bytes of every entry, kept as entries come and go.
    resident: usize,
    /// Monotone use tick driving the LRU ordering.
    tick: u64,
}

/// A bounded cache of cooked transmissions, memory-only or disk-backed.
#[derive(Debug)]
pub struct EdgeCache {
    /// The blob directory; `None` for a memory-only cache.
    dir: Option<PathBuf>,
    byte_budget: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    migrations_out: AtomicU64,
    migrations_in: AtomicU64,
    admit_failures: AtomicU64,
    /// Admissions started, numbering each one's temp file.
    admissions: AtomicU64,
}

impl EdgeCache {
    /// Opens (creating if needed) a disk-backed cache over `dir` with a
    /// resident byte budget.
    ///
    /// # Errors
    ///
    /// I/O failure creating the blob directory.
    pub fn new(dir: impl Into<PathBuf>, byte_budget: usize) -> Result<Self, EdgeError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self::with_dir(Some(dir), byte_budget))
    }

    /// A cache with no directory: its entries live in memory only and
    /// none can migrate.
    pub(crate) fn in_memory(byte_budget: usize) -> Self {
        Self::with_dir(None, byte_budget)
    }

    fn with_dir(dir: Option<PathBuf>, byte_budget: usize) -> Self {
        EdgeCache {
            dir,
            byte_budget,
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            migrations_out: AtomicU64::new(0),
            migrations_in: AtomicU64::new(0),
            admit_failures: AtomicU64::new(0),
            admissions: AtomicU64::new(0),
        }
    }

    /// The resident byte budget.
    #[must_use]
    pub fn budget(&self) -> usize {
        self.byte_budget
    }

    /// Payload bytes currently resident in memory.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().resident
    }

    /// Whether `key` has a resident entry.
    #[must_use]
    pub fn contains(&self, key: &EdgeKey) -> bool {
        self.inner.lock().entries.contains_key(key)
    }

    /// The on-disk blob path for `key` (whether or not it exists yet),
    /// or `None` for a memory-only cache — the fault harness rots bytes
    /// through this.
    #[must_use]
    pub fn blob_path(&self, key: &EdgeKey) -> Option<PathBuf> {
        self.dir.as_ref().map(|dir| dir.join(key.file_name()))
    }

    /// Point-in-time statistics.
    #[must_use]
    pub fn stats(&self) -> EdgeStats {
        let (resident_bytes, entries) = {
            let inner = self.inner.lock();
            (inner.resident, inner.entries.len())
        };
        EdgeStats {
            // ORDERING: monitoring counters — each total is
            // independently exact; a torn snapshot only skews one
            // report line.
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            migrations_out: self.migrations_out.load(Ordering::Relaxed),
            migrations_in: self.migrations_in.load(Ordering::Relaxed),
            admit_failures: self.admit_failures.load(Ordering::Relaxed),
            resident_bytes,
            entries,
        }
    }

    /// Admits a cooked blob under `key`. The blob is validated against
    /// `header`, written durably to disk when the cache has a directory,
    /// and served from then on by a [`LiveServer`] over its intact
    /// records: a record whose CRC-32 fails is a frame the server does
    /// not hold, and any `M` of the rest reconstruct. The byte budget is
    /// then enforced by evicting whole entries.
    ///
    /// The entry carries no origin generation — the edge vouches for it
    /// unconditionally (the roaming case). A transmission cooked from
    /// this cell's store goes through [`EdgeCache::admit_from_store`]
    /// instead, so replacing that document invalidates it.
    ///
    /// Returns `Ok(false)` — refused, nothing written — when the whole
    /// transmission (`n · packet_size`) exceeds the budget: the cache
    /// keeps or drops whole transmissions.
    ///
    /// # Errors
    ///
    /// [`EdgeError::Codec`] if the blob does not parse, disagrees with
    /// `header` or holds fewer than `M` intact records; [`EdgeError::Io`]
    /// on disk failure.
    pub fn admit(
        &self,
        key: EdgeKey,
        header: DocumentHeader,
        blob: &[u8],
    ) -> Result<bool, EdgeError> {
        let admitted = self.admit_blob(key, header, blob);
        self.tally(admitted)
    }

    fn admit_blob(
        &self,
        key: EdgeKey,
        header: DocumentHeader,
        blob: &[u8],
    ) -> Result<bool, EdgeError> {
        let view = BlobPackets::parse(blob)?;
        if !view.matches_header(&header) || header.plan.total_bytes() != header.doc_len {
            return Err(EdgeError::Codec(CodecError(
                "blob disagrees with transmission header",
            )));
        }
        let packets = (0..view.n())
            .map(|i| view.is_intact(0, i).then(|| view.packet(0, i).to_vec()))
            .collect();
        let server = LiveServer::from_cooked(header, packets)
            .map_err(|_| CodecError("blob holds fewer than M intact packets"))?;
        self.insert(key, Arc::new(server), None, Some(blob))
    }

    /// Admits a transmission just cooked from this cell's store, stamped
    /// with the store generation it was cooked from: a later lookup
    /// serves it only for a request that read that same generation
    /// ([`EdgeCache::serve`]). A disk-backed cache writes its blob from
    /// the server's payloads, with no second encode. Same refusal rule
    /// as [`EdgeCache::admit`].
    ///
    /// # Errors
    ///
    /// [`EdgeError::Io`] on disk failure; [`EdgeError::Codec`] if a
    /// disk-backed cache is handed a server that lacks a frame.
    pub fn admit_from_store(
        &self,
        key: EdgeKey,
        server: Arc<LiveServer>,
        generation: u64,
    ) -> Result<bool, EdgeError> {
        let admitted = if self.dir.is_some() {
            let header = server.header();
            let packets: Option<Vec<&[u8]>> = (0..header.n).map(|i| server.payload(i)).collect();
            match packets {
                Some(packets) => {
                    let blob = write_blob(
                        header.m,
                        header.packet_size,
                        header.doc_len,
                        &[(header.doc_len, &packets)],
                    );
                    self.insert(key, server, Some(generation), Some(&blob))
                }
                None => Err(EdgeError::Codec(CodecError("transmission lacks a frame"))),
            }
        } else {
            self.insert(key, server, Some(generation), None)
        };
        self.tally(admitted)
    }

    /// Counts a failed admission.
    fn tally(&self, admitted: Result<bool, EdgeError>) -> Result<bool, EdgeError> {
        if admitted.is_err() {
            // ORDERING: monitoring tally only.
            self.admit_failures.fetch_add(1, Ordering::Relaxed);
        }
        admitted
    }

    /// Makes `server` the entry for `key` — first writing `blob`, its
    /// at-rest copy, when the cache has a directory — then evicts whole
    /// entries until residency is back under the budget.
    fn insert(
        &self,
        key: EdgeKey,
        server: Arc<LiveServer>,
        origin: Option<u64>,
        blob: Option<&[u8]>,
    ) -> Result<bool, EdgeError> {
        let bytes = payload_bytes(&server);
        if bytes > self.byte_budget {
            return Ok(false);
        }
        let mut digest = 0;
        let mut staged = None;
        if let (Some(path), Some(blob)) = (self.blob_path(&key), blob) {
            digest = BlobPackets::parse(blob)?.digest();
            // Each admission writes its own temp file, so two admissions
            // of one key never interleave their bytes in a shared one.
            // ORDERING: only uniqueness matters; no data travels with it.
            let seq = self.admissions.fetch_add(1, Ordering::Relaxed);
            let tmp = path.with_extension(format!("{}-{seq}.tmp", std::process::id()));
            let mut f = fs::File::create(&tmp)?;
            f.write_all(blob)?;
            f.sync_all()?;
            staged = Some((tmp, path));
        }
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        if let Some((tmp, path)) = staged {
            // Renamed under the lock, as every eviction deletes under it,
            // so the file on disk is always the blob of the entry the map
            // holds.
            if let Err(e) = fs::rename(&tmp, &path) {
                drop(guard);
                let _ = fs::remove_file(&tmp);
                return Err(e.into());
            }
        }
        inner.tick += 1;
        let entry = Entry {
            server,
            digest,
            origin,
            segment: Segment::Probation,
            last_used: inner.tick,
        };
        if let Some(old) = inner.entries.insert(key, entry) {
            inner.resident -= payload_bytes(&old.server);
        }
        inner.resident += bytes;
        while inner.resident > self.byte_budget {
            let Some(victim) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| (e.segment, e.last_used))
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            self.evict(inner, &victim);
        }
        Ok(true)
    }

    /// Drops `key`'s entry from memory and disk. Caller holds the lock:
    /// a blob file is deleted only while the map still holds its entry,
    /// so a concurrent admission's file is never lost.
    fn evict(&self, inner: &mut Inner, key: &EdgeKey) {
        if let Some(entry) = inner.entries.remove(key) {
            let freed = payload_bytes(&entry.server);
            inner.resident -= freed;
            if let Some(path) = self.blob_path(key) {
                let _ = fs::remove_file(path);
            }
            // ORDERING: monitoring tally only.
            self.evictions.fetch_add(1, Ordering::Relaxed);
            emit(EventKind::EdgeEvict, freed as u64, 1);
        }
    }

    /// Looks `key` up for a request that read `generation` for its URL
    /// from the store ([`crate::store::DocumentStore::generation`]) before
    /// calling — never under this cache's lock. A hit touches the entry
    /// (probation → protected on re-reference) and returns its
    /// transmission with no codec work. An entry cooked from another
    /// generation is stale: the lookup drops it, under the lock, and
    /// misses, so the caller cooks the store's current version. Migrated
    /// entries, which the edge holds authoritatively, serve whatever
    /// `generation` says.
    #[must_use]
    pub fn serve(&self, key: &EdgeKey, generation: Option<u64>) -> Option<Arc<LiveServer>> {
        let span = Span::start(EventKind::EdgeServeSpan);
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let lookup = match inner.entries.get_mut(key) {
            Some(entry) if entry.origin.is_none_or(|g| Some(g) == generation) => {
                inner.tick += 1;
                entry.last_used = inner.tick;
                entry.segment = Segment::Protected;
                Ok(Arc::clone(&entry.server))
            }
            Some(_) => {
                self.evict(inner, key);
                Err(1)
            }
            None => Err(0),
        };
        drop(guard);
        match lookup {
            Ok(server) => {
                // ORDERING: monitoring tally only.
                self.hits.fetch_add(1, Ordering::Relaxed);
                let header = server.header();
                emit(EventKind::EdgeHit, header.n as u64, header.m as u64);
                span.end(1);
                Some(server)
            }
            Err(stale) => {
                // ORDERING: monitoring tally only.
                self.misses.fetch_add(1, Ordering::Relaxed);
                emit(EventKind::EdgeMiss, stale, 0);
                span.end(0);
                None
            }
        }
    }

    /// Reads the at-rest blob for `key`, with its header — the payload a
    /// migration record ships to another cell. `None` for a memory-only
    /// cache and for an absent entry. A blob that no longer carries the
    /// packets admitted or no longer fits the header (at-rest rot, a
    /// swapped file, a colliding key's blob) never leaves the cell: the
    /// entry is dropped, so the next request cooks and writes a sound
    /// copy.
    #[must_use]
    pub fn export_blob(&self, key: &EdgeKey) -> Option<(DocumentHeader, Vec<u8>)> {
        let path = self.blob_path(key)?;
        let (server, digest) = {
            let inner = self.inner.lock();
            let entry = inner.entries.get(key)?;
            (Arc::clone(&entry.server), entry.digest)
        };
        let header = server.header();
        // A CRC-32 digest is no cryptographic hash: a crafted file can
        // match it, so keep admission's shape check too.
        let sound = fs::read(&path).ok().filter(|blob| {
            BlobPackets::parse(blob).is_ok_and(|v| v.digest() == digest && v.matches_header(header))
        });
        let Some(blob) = sound else {
            let mut inner = self.inner.lock();
            // Only the entry whose blob was read: a concurrent admission
            // may have replaced it, file and all.
            if inner
                .entries
                .get(key)
                .is_some_and(|e| Arc::ptr_eq(&e.server, &server))
            {
                self.evict(&mut inner, key);
            }
            return None;
        };
        // ORDERING: monitoring tally only.
        self.migrations_out.fetch_add(1, Ordering::Relaxed);
        Some((header.clone(), blob))
    }

    /// Admits a blob that arrived in a migration record from another
    /// cell. Same admission rules as [`EdgeCache::admit`].
    ///
    /// # Errors
    ///
    /// Same as [`EdgeCache::admit`].
    pub fn admit_migrated(
        &self,
        key: EdgeKey,
        header: DocumentHeader,
        blob: &[u8],
    ) -> Result<bool, EdgeError> {
        let admitted = self.admit(key, header, blob)?;
        if admitted {
            // ORDERING: monitoring tally only.
            self.migrations_in.fetch_add(1, Ordering::Relaxed);
        }
        Ok(admitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_dispersed;
    use mrtweb_content::sc::StructuralCharacteristic;
    use mrtweb_docmodel::document::Document;
    use mrtweb_erasure::redundancy::cooked_packets;
    use mrtweb_transport::plan::plan_document;

    fn temp_dir(tag: &str) -> PathBuf {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let dir = std::env::temp_dir().join(format!("mrtweb-edge-{tag}-{nanos}"));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fixture(packet_size: usize, gamma: f64) -> (EdgeKey, DocumentHeader, Vec<u8>) {
        let doc = Document::parse_xml(
            "<document><title>Edge</title>\
             <section><title>Hot</title>\
             <paragraph>mobile wireless browsing content for the cache</paragraph></section>\
             <section><title>Cold</title>\
             <paragraph>appendix material nobody requested yet today</paragraph></section>\
             </document>",
        )
        .unwrap();
        let pipeline = mrtweb_textproc::pipeline::ScPipeline::default();
        let idx = pipeline.run(&doc);
        let sc = StructuralCharacteristic::from_index(&idx, None);
        let (plan, payload) = plan_document(&doc, &sc, Lod::Paragraph, Measure::Ic);
        let m = plan.raw_packets(packet_size);
        let n = cooked_packets(m, gamma);
        let blob = encode_dispersed(&payload, m, n, packet_size).unwrap();
        let header = DocumentHeader {
            doc_len: payload.len(),
            m,
            n,
            packet_size,
            plan,
        };
        let key = EdgeKey {
            url: "http://cell/a".into(),
            query: String::new(),
            lod: Lod::Paragraph,
            measure: Measure::Ic,
            packet_size,
            gamma_bits: gamma.to_bits(),
        };
        (key, header, blob)
    }

    /// `key` with another URL: a distinct entry of the same shape.
    fn at(key: &EdgeKey, i: usize) -> EdgeKey {
        EdgeKey {
            url: format!("http://cell/{i}"),
            ..key.clone()
        }
    }

    fn whole(header: &DocumentHeader) -> usize {
        header.n * header.packet_size
    }

    #[test]
    fn admit_then_serve_round_trips_packets() {
        let dir = temp_dir("roundtrip");
        let cache = EdgeCache::new(&dir, 1 << 20).unwrap();
        let (key, header, blob) = fixture(64, 1.5);
        assert!(cache.admit(key.clone(), header.clone(), &blob).unwrap());
        let served = cache.serve(&key, None).unwrap();
        assert_eq!(served.header(), &header);
        let view = BlobPackets::parse(&blob).unwrap();
        for i in 0..header.n {
            assert_eq!(served.payload(i), Some(view.packet(0, i)), "packet {i}");
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 0));
        assert_eq!(stats.resident_bytes, whole(&header));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn miss_on_absent_key() {
        let dir = temp_dir("miss");
        let cache = EdgeCache::new(&dir, 1 << 20).unwrap();
        let (key, ..) = fixture(64, 1.5);
        assert!(cache.serve(&key, None).is_none());
        assert_eq!(cache.stats().misses, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn budget_is_enforced_after_every_admission() {
        let dir = temp_dir("budget");
        let (key, header, blob) = fixture(64, 1.5);
        let budget = whole(&header) + header.packet_size;
        for cache in [
            EdgeCache::new(&dir, budget).unwrap(),
            EdgeCache::in_memory(budget),
        ] {
            for i in 0..4 {
                assert!(cache.admit(at(&key, i), header.clone(), &blob).unwrap());
                assert!(
                    cache.resident_bytes() <= budget,
                    "resident {} over budget {budget}",
                    cache.resident_bytes()
                );
            }
            assert_eq!(cache.stats().evictions, 3);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transmission_larger_than_budget_is_refused() {
        let dir = temp_dir("refuse");
        let (key, header, blob) = fixture(64, 1.5);
        let cache = EdgeCache::new(&dir, whole(&header) - 1).unwrap();
        assert!(!cache.admit(key.clone(), header, &blob).unwrap());
        assert!(!cache.contains(&key));
        assert!(!cache.blob_path(&key).unwrap().exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn eviction_takes_probation_lru_before_protected_lru() {
        let (key, header, blob) = fixture(64, 1.5);
        let cache = EdgeCache::in_memory(3 * whole(&header));
        let resident = |cache: &EdgeCache| -> Vec<bool> {
            (0..5).map(|i| cache.contains(&at(&key, i))).collect()
        };
        for i in 0..3 {
            cache.admit(at(&key, i), header.clone(), &blob).unwrap();
        }
        // 0 and 1 are re-referenced (protected); 2 is not.
        assert!(cache.serve(&at(&key, 0), None).is_some());
        assert!(cache.serve(&at(&key, 1), None).is_some());
        cache.admit(at(&key, 3), header.clone(), &blob).unwrap();
        assert_eq!(resident(&cache), [true, true, false, true, false]);
        // The least recently used probation entry goes first.
        cache.admit(at(&key, 4), header.clone(), &blob).unwrap();
        assert_eq!(resident(&cache), [true, true, false, false, true]);
        // With every other entry protected, a newcomer is all probation
        // holds, so a scan of one-shot requests cannot push out
        // re-referenced documents.
        assert!(cache.serve(&at(&key, 4), None).is_some());
        let server = LiveServer::from_cooked(header.clone(), decoded(&blob)).unwrap();
        assert!(cache
            .admit_from_store(at(&key, 9), Arc::new(server), 1)
            .unwrap());
        assert!(!cache.contains(&at(&key, 9)));
        assert_eq!(resident(&cache), [true, true, false, false, true]);
        let stats = cache.stats();
        assert_eq!(
            (stats.evictions, stats.resident_bytes),
            (3, 3 * whole(&header))
        );
    }

    #[test]
    fn stale_entries_are_dropped_by_the_lookup() {
        let dir = temp_dir("stale");
        let cache = EdgeCache::new(&dir, 1 << 20).unwrap();
        let (key, header, blob) = fixture(64, 1.5);
        let server = Arc::new(LiveServer::from_cooked(header, decoded(&blob)).unwrap());
        cache
            .admit_from_store(key.clone(), Arc::clone(&server), 7)
            .unwrap();
        let hit = cache.serve(&key, Some(7)).unwrap();
        assert!(
            Arc::ptr_eq(&hit, &server),
            "a hit shares the admitted server"
        );
        assert!(cache.serve(&key, Some(8)).is_none(), "another generation");
        assert!(!cache.contains(&key));
        assert!(!cache.blob_path(&key).unwrap().exists());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 1));
        assert_eq!(stats.resident_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Every cooked packet of a sound blob, by index.
    fn decoded(blob: &[u8]) -> Vec<Option<Vec<u8>>> {
        let view = BlobPackets::parse(blob).unwrap();
        (0..view.n())
            .map(|i| Some(view.packet(0, i).to_vec()))
            .collect()
    }

    #[test]
    fn records_that_fail_their_crc_are_frames_the_entry_lacks() {
        let dir = temp_dir("rotted-records");
        let cache = EdgeCache::new(&dir, 1 << 20).unwrap();
        let (key, header, mut blob) = fixture(64, 1.5);
        // Flip one byte of every parity packet (29-byte blob header,
        // 4-byte group length, then records of packet + CRC-32).
        let record = header.packet_size + 4;
        for i in header.m..header.n {
            blob[33 + i * record] ^= 1;
        }
        assert!(cache.admit(key.clone(), header.clone(), &blob).unwrap());
        let served = cache.serve(&key, None).unwrap();
        for i in 0..header.n {
            assert_eq!(served.frame_bytes(i).is_some(), i < header.m, "frame {i}");
        }
        // Below M intact records the blob is refused outright.
        blob[33] ^= 1;
        assert!(matches!(
            cache.admit(at(&key, 1), header, &blob),
            Err(EdgeError::Codec(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn export_ships_only_the_blob_admitted() {
        let dir = temp_dir("export");
        let cache = EdgeCache::new(&dir, 1 << 20).unwrap();
        let (key, header, blob) = fixture(64, 1.5);
        let (_, _, other_shape) = fixture(32, 1.5);
        // Same shape, other bytes: passes every header check; only the
        // digest of the packets admitted tells it apart.
        let foreign: Vec<u8> = crate::codec::decode_dispersed(&blob)
            .unwrap()
            .iter()
            .map(|b| b ^ 0x5a)
            .collect();
        let foreign = encode_dispersed(&foreign, header.m, header.n, header.packet_size).unwrap();
        assert_eq!(foreign.len(), blob.len());
        let mut flipped = blob.clone();
        flipped[33] ^= 1;
        // What the file holds after the damage; `None` = deleted.
        let damage: [(&str, Option<&[u8]>); 5] = [
            ("truncated", Some(b"MRTB")),
            ("gone", None),
            ("other shape", Some(&other_shape)),
            ("foreign bytes", Some(&foreign)),
            ("one flipped byte", Some(&flipped)),
        ];
        for (what, rotted) in damage {
            assert!(cache.admit(key.clone(), header.clone(), &blob).unwrap());
            let path = cache.blob_path(&key).unwrap();
            match rotted {
                Some(bytes) => fs::write(&path, bytes).unwrap(),
                None => fs::remove_file(&path).unwrap(),
            }
            assert!(cache.export_blob(&key).is_none(), "exported a {what} blob");
            assert!(!cache.contains(&key), "kept the entry of a {what} blob");
            assert!(!path.exists(), "{what}");
        }
        assert_eq!(cache.stats().migrations_out, 0);
        cache.admit(key.clone(), header.clone(), &blob).unwrap();
        assert_eq!(cache.export_blob(&key), Some((header, blob)));
        assert_eq!(cache.stats().migrations_out, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_memory_only_cache_writes_nothing_and_exports_nothing() {
        let (key, header, blob) = fixture(64, 1.5);
        let cache = EdgeCache::in_memory(1 << 20);
        assert!(cache.admit(key.clone(), header, &blob).unwrap());
        assert!(cache.blob_path(&key).is_none());
        assert!(cache.serve(&key, None).is_some());
        assert!(cache.export_blob(&key).is_none());
    }

    #[test]
    fn failed_admission_is_tallied() {
        let dir = temp_dir("admitfail");
        let cache = EdgeCache::new(&dir, 1 << 20).unwrap();
        let (key, header, blob) = fixture(64, 1.5);
        // Blob directory gone: the durable write must fail.
        fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(
            cache.admit(key.clone(), header, &blob),
            Err(EdgeError::Io(_))
        ));
        assert_eq!(cache.stats().admit_failures, 1);
        assert!(!cache.contains(&key));
    }

    #[test]
    fn admission_over_budget_evicts_the_older_entry() {
        let dir = temp_dir("drain");
        let (key, header, blob) = fixture(64, 1.5);
        let cache = EdgeCache::new(&dir, whole(&header)).unwrap();
        let (k1, k2) = (at(&key, 1), at(&key, 2));
        cache.admit(k1.clone(), header.clone(), &blob).unwrap();
        cache.admit(k2.clone(), header, &blob).unwrap();
        // Budget fits one transmission: admitting k2 evicted k1.
        assert!(!cache.contains(&k1));
        assert!(cache.contains(&k2));
        assert!(!cache.blob_path(&k1).unwrap().exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn migration_export_admits_at_a_second_cell() {
        let dir_a = temp_dir("cell-a");
        let dir_b = temp_dir("cell-b");
        let a = EdgeCache::new(&dir_a, 1 << 20).unwrap();
        let b = EdgeCache::new(&dir_b, 1 << 20).unwrap();
        let (key, header, blob) = fixture(64, 1.5);
        a.admit(key.clone(), header, &blob).unwrap();
        let (h, exported) = a.export_blob(&key).unwrap();
        assert_eq!(exported, blob);
        assert!(b.admit_migrated(key.clone(), h, &exported).unwrap());
        let sa = a.serve(&key, None).unwrap();
        let sb = b.serve(&key, None).unwrap();
        assert_eq!(sa.header(), sb.header());
        for i in 0..=sa.header().n {
            assert_eq!(sa.frame_bytes(i), sb.frame_bytes(i), "frame {i}");
        }
        assert_eq!(a.stats().migrations_out, 1);
        assert_eq!(b.stats().migrations_in, 1);
        fs::remove_dir_all(&dir_a).unwrap();
        fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn blob_header_disagreement_is_rejected() {
        let dir = temp_dir("mismatch");
        let cache = EdgeCache::new(&dir, 1 << 20).unwrap();
        let (key, mut header, blob) = fixture(64, 1.5);
        header.n += 1;
        assert!(matches!(
            cache.admit(key, header, &blob),
            Err(EdgeError::Codec(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
