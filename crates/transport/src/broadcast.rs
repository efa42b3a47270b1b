//! Broadcast carousel delivery: one encode, unbounded listeners.
//!
//! The paper's base station serves a cell of mobile clients over a
//! shared wireless medium, and §6 points at broadcasting popular
//! documents instead of answering each client separately. The
//! dispersal layout makes that almost free: the cooked packets a
//! document was *stored* as (`packet ‖ crc32`) are already
//! self-verifying and order-independent, so the station can cycle the
//! stored records on air verbatim — encoding happened once at store
//! time, and the marginal cost of a listener is zero.
//!
//! * [`Carousel`] — a deterministic cyclic schedule over one or more
//!   channels. Flat mode round-robins every packet once per cycle;
//!   popularity mode repeats hot documents' packets (and their highest
//!   information-content clear packets once more) so the expected wait
//!   for *useful* packets shrinks, the classic broadcast-disk trade.
//! * Air index frames — interleaved every [`CarouselConfig::index_every`]
//!   data slots so a tuning-in listener learns the cycle geometry and
//!   every document's `(M, N, packet size, contents)` without waiting
//!   a full cycle.
//! * [`BroadcastListener`] — joins at an arbitrary slot, buffers
//!   self-verifying records while tuning, reconstructs once any `M`
//!   distinct intact packets per group are held ([`StopRule::Complete`]),
//!   or stops early at a content fraction ([`StopRule::Content`], the
//!   LOD analogue), reporting its access time in slots.
//!
//! Everything is virtual-time: a slot is one frame on the air, so
//! access times are deterministic and comparable across runs.

use std::collections::BTreeMap;

use mrtweb_erasure::crc::{crc16, crc32};
use mrtweb_erasure::cursor::{Reader, Short};
use mrtweb_erasure::ida::{Codec, GroupPackets};
use mrtweb_erasure::par::GroupCodec;
use mrtweb_obs::{emit, EventKind};

use crate::receiver::ReceiverState;

/// Error raised by schedule construction, frame parsing, or listener
/// reconstruction. Mirrors the store codec's lightweight error shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BroadcastError(pub &'static str);

impl std::fmt::Display for BroadcastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "broadcast error: {}", self.0)
    }
}

impl std::error::Error for BroadcastError {}

/// First byte of an air index frame.
pub const FRAME_INDEX: u8 = 0x00;
/// First byte of an air data frame.
pub const FRAME_DATA: u8 = 0x01;

/// One document prepared for the air: its stored cooked records plus
/// the metadata a listener needs to reconstruct it.
///
/// `records[g][i]` is the *stored* bytes of cooked packet `i` of
/// dispersal group `g` — `packet_size` packet bytes followed by its
/// little-endian CRC-32, exactly as the store persisted them. The
/// carousel never re-derives these; it frames and transmits them
/// verbatim.
#[derive(Debug, Clone, PartialEq)]
pub struct BroadcastDoc {
    /// On-air document id (unique within a carousel).
    pub id: u16,
    /// Popularity weight (request rate); only its ratio to the hottest
    /// document matters, and only under [`Skew::Popularity`].
    pub weight: f64,
    /// Raw packets per group.
    pub m: usize,
    /// Cooked packets per group.
    pub n: usize,
    /// Bytes per cooked packet.
    pub packet_size: usize,
    /// Total payload length (`Σ group_lens`).
    pub doc_len: usize,
    /// Payload bytes carried by each group.
    pub group_lens: Vec<usize>,
    /// Stored records: `records[g][i]` = packet ‖ crc32le.
    pub records: Vec<Vec<Vec<u8>>>,
    /// Information content of each clear-text packet:
    /// `contents[g][i]` for `i < m`, summing to ~1 over the document.
    pub contents: Vec<Vec<f64>>,
}

impl BroadcastDoc {
    /// Uniform per-clear-packet contents for a `(groups, m)` layout.
    #[must_use]
    pub fn uniform_contents(groups: usize, m: usize) -> Vec<Vec<f64>> {
        let share = 1.0 / (groups * m) as f64;
        vec![vec![share; m]; groups]
    }

    /// Cooked packets in this document (`groups · N`).
    #[must_use]
    pub fn packet_count(&self) -> usize {
        self.group_lens.len() * self.n
    }

    fn check(&self) -> Result<(), BroadcastError> {
        let groups = self.group_lens.len();
        if self.m == 0 || self.n < self.m || self.n > 256 {
            return Err(BroadcastError("invalid (M, N)"));
        }
        if self.packet_size == 0 {
            return Err(BroadcastError("zero packet size"));
        }
        if groups == 0 || groups > usize::from(u16::MAX) {
            return Err(BroadcastError("group count out of range"));
        }
        if self.records.len() != groups || self.contents.len() != groups {
            return Err(BroadcastError("records/contents shape mismatch"));
        }
        if self.group_lens.iter().sum::<usize>() != self.doc_len {
            return Err(BroadcastError("group lengths disagree with doc_len"));
        }
        for g in 0..groups {
            if self.group_lens[g] > self.m * self.packet_size {
                return Err(BroadcastError("group length exceeds capacity"));
            }
            if self.records[g].len() != self.n {
                return Err(BroadcastError("need N records per group"));
            }
            if self.contents[g].len() != self.m {
                return Err(BroadcastError("need one content entry per raw packet"));
            }
            if self.records[g]
                .iter()
                .any(|r| r.len() != self.packet_size + 4)
            {
                return Err(BroadcastError("record length disagrees with packet size"));
            }
        }
        if !self.weight.is_finite() || self.weight < 0.0 {
            return Err(BroadcastError("weight must be finite and non-negative"));
        }
        Ok(())
    }
}

/// How the carousel spaces repetitions within a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Skew {
    /// Every packet exactly once per cycle (uniform wait for all).
    Flat,
    /// Hot documents' packets recur more often, weighted by request
    /// rate, with an extra repetition for their highest-content clear
    /// packets — the QIC-ranked analogue of a skewed broadcast disk.
    Popularity,
}

/// Carousel geometry knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CarouselConfig {
    /// Number of parallel broadcast channels (≥ 1).
    pub channels: usize,
    /// Placement policy within each channel's cycle.
    pub skew: Skew,
    /// An air index frame is inserted after every `index_every` data
    /// slots (and always at slot 0); `0` means one index per cycle.
    pub index_every: usize,
}

impl Default for CarouselConfig {
    fn default() -> Self {
        CarouselConfig {
            channels: 1,
            skew: Skew::Flat,
            index_every: 16,
        }
    }
}

/// Identity of one data packet on the air.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SlotRef {
    /// Document id.
    pub doc: u16,
    /// Dispersal group within the document.
    pub group: u16,
    /// Cooked packet index within the group.
    pub index: u16,
}

/// What one cycle slot carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// An air index frame describing the channel.
    Index,
    /// One stored record of one document.
    Data(SlotRef),
}

/// Per-document metadata carried by an air index frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocMeta {
    /// Document id.
    pub id: u16,
    /// Raw packets per group.
    pub m: u16,
    /// Cooked packets per group.
    pub n: u16,
    /// Bytes per cooked packet.
    pub packet_size: u32,
    /// Total payload length.
    pub doc_len: u64,
    /// Payload bytes per group.
    pub group_lens: Vec<u32>,
    /// Clear-packet contents in parts-per-million, group-major
    /// (`groups · m` entries).
    pub contents_ppm: Vec<u32>,
}

/// A parsed air index frame: where the cycle stands and what is on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AirIndex {
    /// Cycle slot position this frame was transmitted at.
    pub pos: u32,
    /// Total slots per cycle on this channel.
    pub cycle_len: u32,
    /// Every document on this channel, ascending by id.
    pub docs: Vec<DocMeta>,
}

/// A parsed air frame.
#[derive(Debug, Clone, PartialEq)]
pub enum AirFrame<'a> {
    /// Channel metadata.
    Index(AirIndex),
    /// One stored record; `record` is packet ‖ crc32le, verbatim.
    Data {
        /// Document id.
        doc: u16,
        /// Dispersal group.
        group: u16,
        /// Cooked packet index.
        index: u16,
        /// The stored record bytes.
        record: &'a [u8],
    },
}

impl From<Short> for BroadcastError {
    fn from(_: Short) -> Self {
        BroadcastError("truncated air frame")
    }
}

/// Renders a data frame around a stored record (no re-encode: the
/// record bytes cross the air exactly as persisted).
#[must_use]
pub fn render_data_frame(doc: u16, group: u16, index: u16, record: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(7 + record.len() + 2);
    f.push(FRAME_DATA);
    f.extend_from_slice(&doc.to_be_bytes());
    f.extend_from_slice(&group.to_be_bytes());
    f.extend_from_slice(&index.to_be_bytes());
    f.extend_from_slice(record);
    let c = crc16(&f);
    f.extend_from_slice(&c.to_be_bytes());
    f
}

/// Renders an air index frame.
#[must_use]
pub fn render_index_frame(index: &AirIndex) -> Vec<u8> {
    let mut f = Vec::new();
    f.push(FRAME_INDEX);
    f.extend_from_slice(&index.pos.to_be_bytes());
    f.extend_from_slice(&index.cycle_len.to_be_bytes());
    f.extend_from_slice(&(index.docs.len() as u16).to_be_bytes());
    for d in &index.docs {
        f.extend_from_slice(&d.id.to_be_bytes());
        f.extend_from_slice(&d.m.to_be_bytes());
        f.extend_from_slice(&d.n.to_be_bytes());
        f.extend_from_slice(&d.packet_size.to_be_bytes());
        f.extend_from_slice(&d.doc_len.to_be_bytes());
        f.extend_from_slice(&(d.group_lens.len() as u16).to_be_bytes());
        for &gl in &d.group_lens {
            f.extend_from_slice(&gl.to_be_bytes());
        }
        for &c in &d.contents_ppm {
            f.extend_from_slice(&c.to_be_bytes());
        }
    }
    let c = crc16(&f);
    f.extend_from_slice(&c.to_be_bytes());
    f
}

/// Parses (and CRC-verifies) one air frame.
///
/// # Errors
///
/// [`BroadcastError`] when the frame is truncated, fails its CRC-16,
/// or carries an unknown type byte — a listener counts these and moves
/// on, exactly like a corrupted unicast frame.
pub fn parse_frame(bytes: &[u8]) -> Result<AirFrame<'_>, BroadcastError> {
    let Some((body @ [_, ..], stored)) = bytes.split_last_chunk() else {
        return Err(BroadcastError("air frame too short"));
    };
    if crc16(body) != u16::from_be_bytes(*stored) {
        return Err(BroadcastError("air frame failed crc16"));
    }
    let mut cur = Reader::new(body);
    match cur.u8()? {
        FRAME_DATA => {
            let doc = cur.u16()?;
            let group = cur.u16()?;
            let index = cur.u16()?;
            if cur.remaining() < 5 {
                return Err(BroadcastError("air record too short"));
            }
            Ok(AirFrame::Data {
                doc,
                group,
                index,
                record: cur.rest(),
            })
        }
        FRAME_INDEX => {
            let pos = cur.u32()?;
            let cycle_len = cur.u32()?;
            let ndocs = cur.u16()?;
            let mut docs = Vec::with_capacity(usize::from(ndocs));
            for _ in 0..ndocs {
                let id = cur.u16()?;
                let m = cur.u16()?;
                let n = cur.u16()?;
                let packet_size = cur.u32()?;
                let doc_len = cur.u64()?;
                let n_groups = usize::from(cur.u16()?);
                let mut group_lens = Vec::with_capacity(n_groups);
                for _ in 0..n_groups {
                    group_lens.push(cur.u32()?);
                }
                let contents_len = n_groups
                    .checked_mul(usize::from(m))
                    .ok_or(BroadcastError("index frame contents overflow"))?;
                // Capacity is clamped to what the frame can still hold,
                // so a corrupt count cannot force a giant allocation
                // before the truncated-input error below fires.
                let mut contents_ppm = Vec::with_capacity(contents_len.min(cur.remaining() / 4));
                for _ in 0..contents_len {
                    contents_ppm.push(cur.u32()?);
                }
                docs.push(DocMeta {
                    id,
                    m,
                    n,
                    packet_size,
                    doc_len,
                    group_lens,
                    contents_ppm,
                });
            }
            if !cur.is_empty() {
                return Err(BroadcastError("trailing bytes in index frame"));
            }
            Ok(AirFrame::Index(AirIndex {
                pos,
                cycle_len,
                docs,
            }))
        }
        _ => Err(BroadcastError("unknown air frame type")),
    }
}

/// The stride-scheduling quantum: `lcm(1..=5)`, so every admissible
/// per-packet frequency divides it exactly and the weighted
/// round-robin below stays integer-exact.
const STRIDE_QUANTUM: u64 = 60;
/// Frequencies are clamped to `1..=MAX_DOC_FREQ` (+1 content boost).
const MAX_DOC_FREQ: u64 = 4;

struct ChannelSchedule {
    slots: Vec<Slot>,
    frames: Vec<Vec<u8>>,
}

/// A deterministic cyclic broadcast schedule over the stored records
/// of a document set, split across one or more channels.
pub struct Carousel {
    channels: Vec<ChannelSchedule>,
}

impl Carousel {
    /// Builds the schedule: validates documents, splits them across
    /// channels (greedy least-loaded, deterministic), computes per-
    /// packet repetition frequencies, lays each channel's cycle out by
    /// integer stride scheduling, interleaves index frames, and
    /// renders every frame once.
    ///
    /// # Errors
    ///
    /// [`BroadcastError`] for an empty document set, duplicate ids,
    /// zero channels, or a document whose shape is inconsistent.
    pub fn build(docs: &[BroadcastDoc], cfg: &CarouselConfig) -> Result<Carousel, BroadcastError> {
        if docs.is_empty() {
            return Err(BroadcastError("no documents to broadcast"));
        }
        if cfg.channels == 0 {
            return Err(BroadcastError("need at least one channel"));
        }
        let mut ids = std::collections::BTreeSet::new();
        for d in docs {
            d.check()?;
            if !ids.insert(d.id) {
                return Err(BroadcastError("duplicate document id"));
            }
        }
        let freqs: Vec<Vec<Vec<u64>>> = docs.iter().map(|d| packet_freqs(d, docs, cfg)).collect();

        // Greedy least-loaded channel assignment, in input order, by
        // each document's total repetition count. Ties go to the
        // lowest channel, so assignment is deterministic.
        let mut load = vec![0u64; cfg.channels];
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); cfg.channels];
        for (di, df) in freqs.iter().enumerate() {
            let doc_load: u64 = df.iter().flatten().sum();
            let ch = (0..cfg.channels).min_by_key(|&c| (load[c], c)).unwrap_or(0);
            load[ch] += doc_load;
            members[ch].push(di);
        }

        let channels = members
            .iter()
            .map(|member| build_channel(docs, &freqs, member, cfg))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Carousel { channels })
    }

    /// Number of channels.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels.len()
    }

    /// Slots per cycle on channel `ch`.
    ///
    /// # Panics
    ///
    /// Panics if `ch` is out of range.
    #[must_use]
    pub fn cycle_len(&self, ch: usize) -> usize {
        self.channels[ch].slots.len()
    }

    /// The cycle layout of channel `ch` (for inspection and tests).
    ///
    /// # Panics
    ///
    /// Panics if `ch` is out of range.
    #[must_use]
    pub fn slots(&self, ch: usize) -> &[Slot] {
        &self.channels[ch].slots
    }

    /// The channel a document was assigned to.
    #[must_use]
    pub fn channel_of(&self, doc: u16) -> Option<usize> {
        self.channels.iter().position(|c| {
            c.slots
                .iter()
                .any(|s| matches!(s, Slot::Data(r) if r.doc == doc))
        })
    }

    /// The rendered frame on the air at absolute slot `abs_slot` of
    /// channel `ch`. Emits [`EventKind::CarouselCycle`] each time the
    /// cycle wraps (call it once per slot per channel, as a driver
    /// loop naturally does).
    ///
    /// # Panics
    ///
    /// Panics if `ch` is out of range.
    #[must_use]
    pub fn frame_at(&self, ch: usize, abs_slot: u64) -> &[u8] {
        let cycle = self.channels[ch].frames.len() as u64;
        if abs_slot > 0 && abs_slot.is_multiple_of(cycle) {
            emit(EventKind::CarouselCycle, ch as u64, abs_slot / cycle);
        }
        &self.channels[ch].frames[(abs_slot % cycle) as usize]
    }

    /// Total repetitions of packet (`doc`, `group`, `index`) per cycle.
    #[must_use]
    pub fn frequency_of(&self, r: SlotRef) -> usize {
        self.channels
            .iter()
            .flat_map(|c| &c.slots)
            .filter(|s| matches!(s, Slot::Data(x) if *x == r))
            .count()
    }
}

/// Per-packet repetition frequencies for one document.
///
/// Flat: everything once. Popularity: the document's base frequency
/// scales with the square root of its weight relative to the hottest
/// document (the square root spaces cycle shares like a broadcast
/// disk without letting one hot document drown the cold tail), and
/// clear packets at or above the document's median content get one
/// extra repetition — the QIC rank decides which bytes recur most.
fn packet_freqs(doc: &BroadcastDoc, all: &[BroadcastDoc], cfg: &CarouselConfig) -> Vec<Vec<u64>> {
    let groups = doc.group_lens.len();
    let base = match cfg.skew {
        Skew::Flat => 1,
        Skew::Popularity => {
            let wmax = all.iter().map(|d| d.weight).fold(0.0f64, f64::max);
            if wmax <= 0.0 {
                1
            } else {
                let r = (MAX_DOC_FREQ as f64 * (doc.weight / wmax).sqrt()).round() as u64;
                r.clamp(1, MAX_DOC_FREQ)
            }
        }
    };
    let boost = |g: usize, i: usize| -> u64 {
        if cfg.skew == Skew::Flat || i >= doc.m {
            return 0;
        }
        u64::from(doc.contents[g][i] >= median_content(doc))
    };
    (0..groups)
        .map(|g| (0..doc.n).map(|i| base + boost(g, i)).collect())
        .collect()
}

/// Median of a document's clear-packet contents (upper median).
fn median_content(doc: &BroadcastDoc) -> f64 {
    let mut all: Vec<f64> = doc.contents.iter().flatten().copied().collect();
    all.sort_by(f64::total_cmp);
    all.get(all.len() / 2).copied().unwrap_or(0.0)
}

fn build_channel(
    docs: &[BroadcastDoc],
    freqs: &[Vec<Vec<u64>>],
    member: &[usize],
    cfg: &CarouselConfig,
) -> Result<ChannelSchedule, BroadcastError> {
    // Integer stride scheduling: a packet with frequency f is due
    // every QUANTUM/f virtual ticks; emitting the earliest deadline
    // first (ties broken by packet identity) spaces each packet's
    // repetitions evenly through the cycle, so no prefix of the cycle
    // is starved of any document.
    struct Item {
        deadline: u64,
        slot: SlotRef,
        stride: u64,
        remaining: u64,
    }
    let mut items = Vec::new();
    for &di in member {
        let doc = &docs[di];
        for (g, per_group) in freqs[di].iter().enumerate() {
            for (i, &f) in per_group.iter().enumerate() {
                let stride = STRIDE_QUANTUM / f.clamp(1, MAX_DOC_FREQ + 1);
                items.push(Item {
                    deadline: stride,
                    slot: SlotRef {
                        doc: doc.id,
                        group: g as u16,
                        index: i as u16,
                    },
                    stride,
                    remaining: STRIDE_QUANTUM / stride,
                });
            }
        }
    }
    let total: u64 = items.iter().map(|it| it.remaining).sum();
    let mut data = Vec::with_capacity(total as usize);
    for _ in 0..total {
        let Some(next) = items
            .iter_mut()
            .filter(|it| it.remaining > 0)
            .min_by_key(|it| (it.deadline, it.slot))
        else {
            break;
        };
        data.push(next.slot);
        next.deadline += next.stride;
        next.remaining -= 1;
    }

    // Interleave index frames: always at slot 0, then after every
    // `index_every` data slots.
    let mut slots = vec![Slot::Index];
    for (j, &s) in data.iter().enumerate() {
        if cfg.index_every > 0 && j > 0 && j % cfg.index_every == 0 {
            slots.push(Slot::Index);
        }
        slots.push(Slot::Data(s));
    }

    // Render every frame once; index frames carry their own position.
    let cycle_len = slots.len() as u32;
    let metas = channel_metas(docs, member)?;
    let by_id: BTreeMap<u16, usize> = member.iter().map(|&di| (docs[di].id, di)).collect();
    let frames = slots
        .iter()
        .enumerate()
        .map(|(p, s)| match s {
            Slot::Index => render_index_frame(&AirIndex {
                pos: p as u32,
                cycle_len,
                docs: metas.clone(),
            }),
            Slot::Data(r) => {
                let doc = &docs[by_id[&r.doc]];
                render_data_frame(
                    r.doc,
                    r.group,
                    r.index,
                    &doc.records[usize::from(r.group)][usize::from(r.index)],
                )
            }
        })
        .collect();
    Ok(ChannelSchedule { slots, frames })
}

fn channel_metas(docs: &[BroadcastDoc], member: &[usize]) -> Result<Vec<DocMeta>, BroadcastError> {
    let mut metas = Vec::with_capacity(member.len());
    for &di in member {
        let d = &docs[di];
        if d.m > usize::from(u16::MAX) || d.packet_size > u32::MAX as usize {
            return Err(BroadcastError("document shape exceeds air index range"));
        }
        metas.push(DocMeta {
            id: d.id,
            m: d.m as u16,
            n: d.n as u16,
            packet_size: d.packet_size as u32,
            doc_len: d.doc_len as u64,
            group_lens: d.group_lens.iter().map(|&l| l as u32).collect(),
            contents_ppm: d
                .contents
                .iter()
                .flatten()
                .map(|&c| (c * 1_000_000.0).round() as u32)
                .collect(),
        });
    }
    metas.sort_by_key(|m| m.id);
    Ok(metas)
}

/// When a listener turns its radio off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopRule {
    /// Stop at reconstruction: any `M` distinct intact packets per
    /// group (the protocol's normal completion).
    Complete,
    /// Stop once at least this information-content fraction is
    /// available — the LOD analogue for impatient listeners. Always
    /// stops at full reconstruction too.
    Content(f64),
    /// Keep listening until every cooked packet of the target has been
    /// heard intact (for byte-identity comparisons against early stop).
    AllPackets,
}

enum Phase {
    /// No index frame heard yet: buffer self-verifying records.
    Tuning {
        buffered: Vec<(u16, u16, Vec<u8>)>,
    },
    Collecting(Collect),
    Done,
}

struct Collect {
    meta: DocMeta,
    cycle_len: u32,
    groups: Vec<ReceiverState>,
    /// Intact packet bytes by index, per group.
    held: Vec<BTreeMap<usize, Vec<u8>>>,
    /// Clear-packet contents (group-major), from the air index.
    contents: Vec<Vec<f64>>,
}

/// One tuned-in client of a broadcast channel.
///
/// Feed it what its radio tap heard each slot via [`hear`]; it
/// buffers while tuning, reconstructs per the [`StopRule`], and
/// reports its access time in slots.
///
/// [`hear`]: BroadcastListener::hear
pub struct BroadcastListener {
    id: u64,
    target: u16,
    rule: StopRule,
    tuned_at: Option<u64>,
    slots_listened: u64,
    access_slots: Option<u64>,
    frames_heard: u64,
    corrupt_frames: u64,
    target_on_air: Option<bool>,
    bytes: Option<Vec<u8>>,
    content: f64,
    error: Option<BroadcastError>,
    phase: Phase,
}

impl BroadcastListener {
    /// A listener that wants document `target` and stops per `rule`.
    #[must_use]
    pub fn new(id: u64, target: u16, rule: StopRule) -> Self {
        BroadcastListener {
            id,
            target,
            rule,
            tuned_at: None,
            slots_listened: 0,
            access_slots: None,
            frames_heard: 0,
            corrupt_frames: 0,
            target_on_air: None,
            bytes: None,
            content: 0.0,
            error: None,
            phase: Phase::Tuning {
                buffered: Vec::new(),
            },
        }
    }

    /// Processes one slot: `heard` is the tap's delivery (`None` when
    /// the frame was lost to a drop or disconnection). Returns whether
    /// the listener is done. Emits [`EventKind::TuneIn`] on the first
    /// call and [`EventKind::EarlyStop`] when it finishes in less than
    /// one full cycle.
    pub fn hear(&mut self, abs_slot: u64, heard: Option<&[u8]>) -> bool {
        if matches!(self.phase, Phase::Done) {
            return true;
        }
        if self.tuned_at.is_none() {
            self.tuned_at = Some(abs_slot);
            emit(EventKind::TuneIn, self.id, abs_slot);
        }
        self.slots_listened += 1;
        let Some(bytes) = heard else {
            return false;
        };
        self.frames_heard += 1;
        match parse_frame(bytes) {
            Err(_) => {
                self.corrupt_frames += 1;
                false
            }
            Ok(AirFrame::Index(index)) => {
                self.on_index(&index);
                self.check_stop()
            }
            Ok(AirFrame::Data { doc, .. }) if doc != self.target => false,
            Ok(AirFrame::Data {
                group,
                index,
                record,
                ..
            }) => {
                match &mut self.phase {
                    Phase::Tuning { buffered } => buffered.push((group, index, record.to_vec())),
                    Phase::Collecting(c) => {
                        let corrupt = feed_record(c, group, index, record);
                        self.corrupt_frames += u64::from(corrupt);
                    }
                    Phase::Done => {}
                }
                self.check_stop()
            }
        }
    }

    fn on_index(&mut self, index: &AirIndex) {
        let Phase::Tuning { buffered } = &mut self.phase else {
            return; // Already collecting; geometry is static per run.
        };
        let Some(meta) = index.docs.iter().find(|d| d.id == self.target) else {
            self.target_on_air = Some(false);
            return;
        };
        self.target_on_air = Some(true);
        let meta = meta.clone();
        let (m, n) = (usize::from(meta.m), usize::from(meta.n));
        let groups = meta.group_lens.len();
        if m == 0 || n < m {
            self.error = Some(BroadcastError("air index carries invalid (M, N)"));
            return;
        }
        if meta.contents_ppm.len() != groups * m {
            self.error = Some(BroadcastError("air index contents shape mismatch"));
            return;
        }
        let contents: Vec<Vec<f64>> = (0..groups)
            .map(|g| {
                meta.contents_ppm[g * m..(g + 1) * m]
                    .iter()
                    .map(|&ppm| f64::from(ppm) / 1_000_000.0)
                    .collect()
            })
            .collect();
        let mut collect = Collect {
            cycle_len: index.cycle_len,
            groups: (0..groups)
                .map(|g| ReceiverState::new(m, n, contents[g].clone()))
                .collect(),
            held: vec![BTreeMap::new(); groups],
            contents,
            meta,
        };
        let mut corrupt = 0u64;
        for (g, i, record) in buffered.drain(..) {
            corrupt += u64::from(feed_record(&mut collect, g, i, &record));
        }
        self.corrupt_frames += corrupt;
        self.phase = Phase::Collecting(collect);
    }

    fn check_stop(&mut self) -> bool {
        let Phase::Collecting(c) = &self.phase else {
            return matches!(self.phase, Phase::Done);
        };
        self.content = doc_content(c);
        let complete = c.groups.iter().all(ReceiverState::is_complete);
        let stop = match self.rule {
            StopRule::Complete => complete,
            StopRule::Content(f) => complete || self.content >= f,
            StopRule::AllPackets => c
                .groups
                .iter()
                .all(|g| (0..g.cooked_packets()).all(|i| g.has(i))),
        };
        if !stop {
            return false;
        }
        let cycle_len = c.cycle_len;
        if complete {
            match decode(c) {
                Ok(b) => self.bytes = Some(b),
                Err(e) => {
                    self.error = Some(e);
                    return false;
                }
            }
        }
        self.phase = Phase::Done;
        self.access_slots = Some(self.slots_listened);
        if self.slots_listened < u64::from(cycle_len) {
            emit(EventKind::EarlyStop, self.id, self.slots_listened);
        }
        true
    }

    /// Whether the listener has stopped.
    #[must_use]
    pub fn is_done(&self) -> bool {
        matches!(self.phase, Phase::Done)
    }

    /// Slots listened from tune-in to stop (the access time), once done.
    #[must_use]
    pub fn access_slots(&self) -> Option<u64> {
        self.access_slots
    }

    /// Absolute slot of the first [`hear`](Self::hear) call.
    #[must_use]
    pub fn tuned_at(&self) -> Option<u64> {
        self.tuned_at
    }

    /// The reconstructed document, when reconstruction happened.
    #[must_use]
    pub fn bytes(&self) -> Option<&[u8]> {
        self.bytes.as_deref()
    }

    /// Information content available right now (1.0 once complete).
    #[must_use]
    pub fn content(&self) -> f64 {
        self.content
    }

    /// Whether the channel's air index listed the target (known after
    /// the first index frame).
    #[must_use]
    pub fn target_on_air(&self) -> Option<bool> {
        self.target_on_air
    }

    /// Frames heard (anything delivered, intact or not).
    #[must_use]
    pub fn frames_heard(&self) -> u64 {
        self.frames_heard
    }

    /// Frames or records that failed a CRC.
    #[must_use]
    pub fn corrupt_frames(&self) -> u64 {
        self.corrupt_frames
    }

    /// Listener id (appears in trace events).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// A reconstruction-side error, if one occurred.
    #[must_use]
    pub fn error(&self) -> Option<BroadcastError> {
        self.error
    }
}

/// Feeds one record into the collection state; returns whether the
/// record was corrupt.
fn feed_record(c: &mut Collect, group: u16, index: u16, record: &[u8]) -> bool {
    let (g, i) = (usize::from(group), usize::from(index));
    let (Some(state), Some(held), Some((packet, stored))) = (
        c.groups.get_mut(g),
        c.held.get_mut(g),
        record.split_last_chunk(),
    ) else {
        return true;
    };
    if i >= usize::from(c.meta.n) || packet.len() != c.meta.packet_size as usize {
        return true;
    }
    let corrupt = crc32(packet) != u32::from_le_bytes(*stored);
    state.on_packet(i, corrupt);
    if !corrupt {
        held.entry(i).or_insert_with(|| packet.to_vec());
    }
    corrupt
}

/// Document-level content: completed groups contribute their whole
/// share; incomplete groups contribute their intact clear packets.
fn doc_content(c: &Collect) -> f64 {
    c.groups
        .iter()
        .zip(&c.contents)
        .map(|(g, contents)| {
            if g.is_complete() {
                contents.iter().sum::<f64>()
            } else {
                contents
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| g.has(i))
                    .map(|(_, &v)| v)
                    .sum()
            }
        })
        .sum()
}

fn decode(c: &Collect) -> Result<Vec<u8>, BroadcastError> {
    let codec = Codec::shared(
        usize::from(c.meta.m),
        usize::from(c.meta.n),
        c.meta.packet_size as usize,
    )
    .map_err(|_| BroadcastError("air index parameters rejected by codec"))?;
    let groups: Vec<GroupPackets> = c
        .held
        .iter()
        .enumerate()
        .map(|(g, held)| {
            (
                g,
                held.iter().map(|(&i, p)| (i, p.clone())).collect(),
                c.meta.group_lens.get(g).copied().unwrap_or(0) as usize,
            )
        })
        .collect();
    GroupCodec::new(codec)
        .decode(&groups)
        .map_err(|_| BroadcastError("reconstruction failed"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test-side cooking: encode a payload and append per-record CRCs,
    /// mirroring what the store persists. (Production never encodes in
    /// this module — the carousel replays stored records.)
    fn doc_from_payload(
        id: u16,
        weight: f64,
        m: usize,
        n: usize,
        ps: usize,
        payload: &[u8],
    ) -> BroadcastDoc {
        let codec = Codec::new(m, n, ps).unwrap();
        let groups = GroupCodec::new(codec).encode(payload);
        let records: Vec<Vec<Vec<u8>>> = groups
            .iter()
            .map(|g| {
                g.cooked
                    .iter()
                    .map(|p| {
                        let mut r = p.clone();
                        r.extend_from_slice(&crc32(p).to_le_bytes());
                        r
                    })
                    .collect()
            })
            .collect();
        let group_lens: Vec<usize> = groups.iter().map(|g| g.len).collect();
        let contents = BroadcastDoc::uniform_contents(groups.len(), m);
        BroadcastDoc {
            id,
            weight,
            m,
            n,
            packet_size: ps,
            doc_len: payload.len(),
            group_lens,
            records,
            contents,
        }
    }

    fn payload(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31) ^ seed)
            .collect()
    }

    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }

    #[test]
    fn data_frame_round_trips() {
        let record = vec![7u8; 36];
        let f = render_data_frame(3, 1, 9, &record);
        match parse_frame(&f).unwrap() {
            AirFrame::Data {
                doc,
                group,
                index,
                record: r,
            } => {
                assert_eq!((doc, group, index), (3, 1, 9));
                assert_eq!(r, &record[..]);
            }
            AirFrame::Index(_) => panic!("wrong frame type"),
        }
    }

    #[test]
    fn index_frame_round_trips() {
        let index = AirIndex {
            pos: 17,
            cycle_len: 120,
            docs: vec![DocMeta {
                id: 2,
                m: 4,
                n: 6,
                packet_size: 32,
                doc_len: 128,
                group_lens: vec![128],
                contents_ppm: vec![400_000, 300_000, 200_000, 100_000],
            }],
        };
        let f = render_index_frame(&index);
        assert_eq!(parse_frame(&f).unwrap(), AirFrame::Index(index));
    }

    #[test]
    fn corrupted_frames_are_rejected() {
        let mut f = render_data_frame(1, 0, 0, &[5u8; 20]);
        for at in [0, 3, 10, f.len() - 1] {
            f[at] ^= 0x40;
            assert!(parse_frame(&f).is_err(), "corruption at byte {at} passed");
            f[at] ^= 0x40;
        }
        assert!(parse_frame(&f).is_ok());
    }

    #[test]
    fn flat_cycle_carries_every_packet_exactly_once() {
        let docs = vec![
            doc_from_payload(1, 1.0, 3, 5, 16, &payload(90, 1)),
            doc_from_payload(2, 9.0, 2, 4, 16, &payload(40, 2)),
        ];
        let cfg = CarouselConfig {
            channels: 1,
            skew: Skew::Flat,
            index_every: 4,
        };
        let car = Carousel::build(&docs, &cfg).unwrap();
        for d in &docs {
            for g in 0..d.group_lens.len() {
                for i in 0..d.n {
                    let r = SlotRef {
                        doc: d.id,
                        group: g as u16,
                        index: i as u16,
                    };
                    assert_eq!(car.frequency_of(r), 1, "{r:?} not exactly once");
                }
            }
        }
        let data_slots: usize = docs.iter().map(BroadcastDoc::packet_count).sum();
        let index_slots = car
            .slots(0)
            .iter()
            .filter(|s| matches!(s, Slot::Index))
            .count();
        assert_eq!(car.cycle_len(0), data_slots + index_slots);
        assert!(matches!(car.slots(0)[0], Slot::Index));
    }

    #[test]
    fn skewed_cycle_repeats_hot_documents_without_starving_cold_ones() {
        let docs = vec![
            doc_from_payload(1, 16.0, 3, 5, 16, &payload(90, 1)),
            doc_from_payload(2, 1.0, 3, 5, 16, &payload(90, 2)),
        ];
        let cfg = CarouselConfig {
            channels: 1,
            skew: Skew::Popularity,
            index_every: 8,
        };
        let car = Carousel::build(&docs, &cfg).unwrap();
        let freq = |doc: u16| {
            (0..5)
                .map(|i| {
                    car.frequency_of(SlotRef {
                        doc,
                        group: 0,
                        index: i,
                    })
                })
                .sum::<usize>()
        };
        assert!(
            freq(1) > freq(2),
            "hot doc not repeated more: {} vs {}",
            freq(1),
            freq(2)
        );
        // No starvation: every packet of the cold doc still cycles.
        for i in 0..5u16 {
            assert!(
                car.frequency_of(SlotRef {
                    doc: 2,
                    group: 0,
                    index: i
                }) >= 1
            );
        }
    }

    #[test]
    fn builds_are_deterministic() {
        let docs: Vec<BroadcastDoc> = (0..5)
            .map(|i| doc_from_payload(i, f64::from(i + 1), 3, 5, 24, &payload(150, i as u8)))
            .collect();
        let cfg = CarouselConfig {
            channels: 2,
            skew: Skew::Popularity,
            index_every: 6,
        };
        let a = Carousel::build(&docs, &cfg).unwrap();
        let b = Carousel::build(&docs, &cfg).unwrap();
        assert_eq!(a.channels(), b.channels());
        for ch in 0..a.channels() {
            assert_eq!(a.slots(ch), b.slots(ch));
            for s in 0..a.cycle_len(ch) {
                assert_eq!(a.frame_at(ch, s as u64), b.frame_at(ch, s as u64));
            }
        }
    }

    #[test]
    fn listener_joins_mid_cycle_and_reconstructs_exact_bytes() {
        let body = payload(777, 9);
        let docs = vec![
            doc_from_payload(1, 1.0, 4, 6, 64, &payload(500, 3)),
            doc_from_payload(2, 1.0, 4, 6, 64, &body),
        ];
        let cfg = CarouselConfig {
            channels: 1,
            skew: Skew::Flat,
            index_every: 4,
        };
        let car = Carousel::build(&docs, &cfg).unwrap();
        let cycle = car.cycle_len(0) as u64;
        for join in [0u64, 1, cycle / 2, cycle - 1] {
            let mut l = BroadcastListener::new(join, 2, StopRule::Complete);
            let mut slot = join;
            while !l.hear(slot, Some(car.frame_at(0, slot))) {
                slot += 1;
                assert!(slot < join + 3 * cycle, "no completion joining at {join}");
            }
            assert_eq!(l.bytes(), Some(&body[..]), "wrong bytes joining at {join}");
            assert!(l.access_slots().unwrap() <= 2 * cycle);
            assert_eq!(l.content(), 1.0);
            assert_eq!(l.target_on_air(), Some(true));
        }
    }

    #[test]
    fn content_rule_stops_before_full_reconstruction() {
        let docs = vec![doc_from_payload(1, 1.0, 8, 12, 32, &payload(256, 4))];
        let cfg = CarouselConfig {
            channels: 1,
            skew: Skew::Flat,
            index_every: 2,
        };
        let car = Carousel::build(&docs, &cfg).unwrap();
        let mut partial = BroadcastListener::new(1, 1, StopRule::Content(0.25));
        let mut full = BroadcastListener::new(2, 1, StopRule::Complete);
        let (mut ps, mut fs) = (0u64, 0u64);
        while !partial.hear(ps, Some(car.frame_at(0, ps))) {
            ps += 1;
        }
        while !full.hear(fs, Some(car.frame_at(0, fs))) {
            fs += 1;
        }
        assert!(partial.access_slots() < full.access_slots());
        assert!(partial.content() >= 0.25);
        assert!(partial.bytes().is_none(), "partial stop should not decode");
        assert_eq!(full.bytes().map(<[u8]>::len), Some(256));
    }

    #[test]
    fn corrupt_records_are_discarded_and_redundancy_covers_them() {
        let body = payload(300, 5);
        let docs = vec![doc_from_payload(1, 1.0, 3, 6, 128, &body)];
        let cfg = CarouselConfig {
            channels: 1,
            skew: Skew::Flat,
            index_every: 3,
        };
        let car = Carousel::build(&docs, &cfg).unwrap();
        let mut l = BroadcastListener::new(1, 1, StopRule::Complete);
        let mut slot = 0u64;
        let mut mangled = 0;
        while !l.is_done() {
            let frame = car.frame_at(0, slot);
            // Damage the record *inside* a valid frame for the first
            // two data slots: frame CRC passes, record CRC must catch it.
            let heard = if mangled < 2 && frame[0] == FRAME_DATA {
                mangled += 1;
                let mut f = frame.to_vec();
                let at = 7 + 5; // inside the record region
                f[at] ^= 0xFF;
                let body_len = f.len() - 2;
                let c = crc16(&f[..body_len]);
                f[body_len..].copy_from_slice(&c.to_be_bytes());
                f
            } else {
                frame.to_vec()
            };
            l.hear(slot, Some(&heard));
            slot += 1;
            assert!(slot < 4 * car.cycle_len(0) as u64);
        }
        assert_eq!(l.bytes(), Some(&body[..]));
        assert_eq!(l.corrupt_frames(), 2);
    }

    #[test]
    fn listener_for_absent_document_reports_it() {
        let docs = vec![doc_from_payload(1, 1.0, 2, 3, 16, &payload(32, 6))];
        let car = Carousel::build(&docs, &CarouselConfig::default()).unwrap();
        let mut l = BroadcastListener::new(1, 42, StopRule::Complete);
        for slot in 0..car.cycle_len(0) as u64 {
            assert!(!l.hear(slot, Some(car.frame_at(0, slot))));
        }
        assert_eq!(l.target_on_air(), Some(false));
        assert!(!l.is_done());
    }

    #[test]
    fn lost_slots_only_delay_completion() {
        let body = payload(200, 7);
        let docs = vec![doc_from_payload(1, 1.0, 4, 6, 64, &body)];
        let cfg = CarouselConfig {
            channels: 1,
            skew: Skew::Flat,
            index_every: 2,
        };
        let car = Carousel::build(&docs, &cfg).unwrap();
        let mut l = BroadcastListener::new(1, 1, StopRule::Complete);
        let mut slot = 0u64;
        // A loss period coprime with the cycle length, so the losses
        // rotate through the cycle instead of erasing the same slots
        // (in particular the index frames) every time around.
        // Two consecutive integers are coprime, so one of 4..=5+cycle
        // always qualifies; the bound keeps the search finite.
        let period = (4..=car.cycle_len(0) as u64 + 5)
            .find(|p| gcd(*p, car.cycle_len(0) as u64) == 1)
            .unwrap();
        while !l.is_done() {
            let heard = (!slot.is_multiple_of(period)).then(|| car.frame_at(0, slot));
            l.hear(slot, heard);
            slot += 1;
            assert!(slot < 16 * car.cycle_len(0) as u64);
        }
        assert_eq!(l.bytes(), Some(&body[..]));
    }

    #[test]
    fn multi_channel_split_covers_every_document() {
        let docs: Vec<BroadcastDoc> = (0..6)
            .map(|i| doc_from_payload(i, f64::from(6 - i), 2, 4, 16, &payload(60, i as u8)))
            .collect();
        let cfg = CarouselConfig {
            channels: 3,
            skew: Skew::Popularity,
            index_every: 4,
        };
        let car = Carousel::build(&docs, &cfg).unwrap();
        assert_eq!(car.channels(), 3);
        for d in &docs {
            let ch = car.channel_of(d.id).expect("document missing from air");
            // The document must be completable from its own channel.
            let mut l = BroadcastListener::new(u64::from(d.id), d.id, StopRule::Complete);
            let mut slot = 0u64;
            while !l.hear(slot, Some(car.frame_at(ch, slot))) {
                slot += 1;
                assert!(slot < 3 * car.cycle_len(ch) as u64);
            }
        }
    }

    #[test]
    fn build_rejects_malformed_inputs() {
        let good = doc_from_payload(1, 1.0, 2, 3, 16, &payload(32, 1));
        assert!(Carousel::build(&[], &CarouselConfig::default()).is_err());
        let cfg0 = CarouselConfig {
            channels: 0,
            ..CarouselConfig::default()
        };
        assert!(Carousel::build(std::slice::from_ref(&good), &cfg0).is_err());
        assert!(
            Carousel::build(&[good.clone(), good.clone()], &CarouselConfig::default()).is_err()
        );
        let mut bad = good;
        bad.records[0][0].pop();
        assert!(Carousel::build(&[bad], &CarouselConfig::default()).is_err());
    }
}
