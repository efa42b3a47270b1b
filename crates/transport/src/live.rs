//! A live client/server prototype exchanging real bytes.
//!
//! The paper demonstrates feasibility with a Java/CORBA prototype
//! (Figure 1): a *document transmitter* behind the web server pushes
//! organizational units to a browser-side *sequence manager* and
//! *rendering manager*, which paints each unit "incrementally at the
//! proper position in the browsing window when the unit is received".
//!
//! This module is the Rust analogue: a server thread packetizes, frames
//! (CRC + sequence number) and pushes a document through a corrupting
//! [`Link`], serving its rounds through [`crate::serve`] exactly as the
//! proxy engines do; the client verifies CRCs, discards corrupted frames,
//! emits progressive [`ClientEvent::SliceProgress`] rendering events as
//! clear-text bytes land, requests retransmission of what it lacks, and
//! reconstructs the document from any `M` intact cooked packets.

use std::ops::Range;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, OnceLock};
use std::thread;

use mrtweb_channel::bandwidth::Bandwidth;
use mrtweb_channel::bernoulli::BernoulliChannel;
use mrtweb_channel::fault::{FaultConfig, FaultEvent, FaultyLink};
use mrtweb_channel::link::Link;
use mrtweb_channel::loss::LossModel;
use mrtweb_content::sc::{Measure, StructuralCharacteristic};
use mrtweb_docmodel::document::Document;
use mrtweb_docmodel::lod::Lod;
use mrtweb_erasure::ida::Codec;
use mrtweb_erasure::packet::{seal_frame, Frame, FRAME_OVERHEAD, PAYLOAD_OFFSET};
use mrtweb_erasure::redundancy::cooked_packets;
use mrtweb_erasure::Error;
use mrtweb_obs::{emit, EventKind};

use crate::error::Error as TransportError;
use crate::plan::{plan_document, TransmissionPlan};
use crate::receiver::ReceiverState;
use crate::serve::{Action, Hop, Rounds};
use crate::session::CacheMode;

/// Reliable control-channel metadata describing a transmission — the
/// structural characteristic the server ships ahead of the data.
#[derive(Debug, Clone, PartialEq)]
pub struct DocumentHeader {
    /// Payload length in bytes (pre-padding).
    pub doc_len: usize,
    /// Raw packets `M`.
    pub m: usize,
    /// Cooked packets `N`.
    pub n: usize,
    /// Raw bytes per packet.
    pub packet_size: usize,
    /// The transmission plan (slice order, sizes, contents).
    pub plan: TransmissionPlan,
}

/// Cooks a document for transmission ([`LiveServer::new`]) and returns
/// its header and the `N` cooked packets by sequence: the payloads of
/// the server's frames.
///
/// # Errors
///
/// As [`cook_plan`].
pub fn cook(
    doc: &Document,
    sc: &StructuralCharacteristic,
    lod: Lod,
    measure: Measure,
    packet_size: usize,
    gamma: f64,
) -> Result<(DocumentHeader, Vec<Vec<u8>>), Error> {
    let server = LiveServer::new(doc, sc, lod, measure, packet_size, gamma)?;
    let packets = (0..server.header.n)
        .filter_map(|i| server.payload(i))
        .map(<[u8]>::to_vec)
        .collect();
    Ok((server.header, packets))
}

/// Codes a planned payload: sizes the code (`N` =
/// [`cooked_packets`]`(M, gamma)`) and encodes the payload once,
/// straight into the server's wire frames
/// ([`Codec::encode_frames`]) — the one coder behind
/// [`LiveServer::new`] and behind the edge cache's at-rest blob, which
/// is written from the same frames' payloads.
///
/// The encode is serial: at the paper shape (M = 40, N = 60, 256-byte
/// packets) it takes 8–15 µs on a 2-vCPU Xeon VM, and fanning its rows
/// over two threads took 78–92 µs there, nearly all of it thread spawns.
///
/// # Errors
///
/// [`Error::InvalidParameters`] if the payload needs more than 256
/// cooked packets at this packet size (use a larger packet size or a
/// chunking layer).
pub fn cook_plan(
    plan: TransmissionPlan,
    payload: &[u8],
    packet_size: usize,
    gamma: f64,
) -> Result<LiveServer, Error> {
    let m = plan.raw_packets(packet_size);
    let n = cooked_packets(m, gamma);
    // Shared substrate: concurrent sessions serving the same (M, N)
    // shape reuse one systematic generator instead of re-deriving it.
    let codec = Codec::shared(m, n, packet_size)?;
    let mut frames = Vec::new();
    codec.encode_frames(payload, &mut frames);
    let header = DocumentHeader {
        doc_len: payload.len(),
        m,
        n,
        packet_size,
        plan,
    };
    Ok(LiveServer {
        header,
        frames,
        held: std::array::from_fn(|i| i < n),
        sealed: OnceLock::new(),
    })
}

/// Progressive events the rendering manager consumes.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientEvent {
    /// More of a slice became renderable: `fraction` of its bytes are in.
    SliceProgress {
        /// The slice's label (unit path).
        label: String,
        /// Fraction of the slice's bytes now available, in `[0, 1]`.
        fraction: f64,
    },
    /// `M` intact packets arrived; the whole document reconstructs.
    Reconstructed,
}

/// The server side: owns the encoded document.
///
/// All `N` cooked packets are encoded once, straight into their wire
/// frames ([`cook_plan`]), or framed once from packets cooked earlier
/// ([`LiveServer::from_cooked`]) and, for a server that puts them in a
/// delivery envelope, sealed once ([`LiveServer::sealed`]), so
/// retransmission rounds and repeat sessions replay cached wire bytes
/// instead of redoing GF(2⁸) math and CRCs per request.
#[derive(Debug)]
pub struct LiveServer {
    header: DocumentHeader,
    /// The `N` wire frames back to back, `packet_size + FRAME_OVERHEAD`
    /// bytes apart: frame `i` (cooked packet `i`) starts at
    /// `i · (packet_size + FRAME_OVERHEAD)`.
    frames: Vec<u8>,
    /// Whether the server can serve frame `i`, for each `i < N ≤ 256`
    /// (one GF(2⁸) dispersal group). A packet it lacks (an edge cache
    /// that trimmed parity, or a blob record that rotted at rest) has a
    /// slot of zeros; serving routes skip it and any `M` of the rest
    /// still suffice.
    held: [bool; 256],
    /// The held frames in their delivery envelopes, built by the first
    /// [`LiveServer::sealed`] call.
    sealed: OnceLock<Sealed>,
}

/// Every frame a [`LiveServer`] holds, sealed once into its delivery
/// envelope: the envelopes back to back in index order, one span each.
#[derive(Debug)]
pub struct Sealed {
    bytes: Vec<u8>,
    /// `spans[i]` is envelope `i` within `bytes`; `None` for a frame
    /// the server does not hold.
    spans: Vec<Option<Range<usize>>>,
}

impl Sealed {
    /// The sealed envelope of frame `index`. `None` for a frame the
    /// server does not hold and for an index `≥ N`.
    pub fn envelope(&self, index: usize) -> Option<&[u8]> {
        let span = self.spans.get(index)?.clone()?;
        self.bytes.get(span)
    }
}

impl LiveServer {
    /// Prepares a document for transmission at `lod` ordered by
    /// `measure`, with `gamma` redundancy: plans it ([`plan_document`])
    /// and codes the plan ([`cook_plan`]).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameters`] if the document needs more than 256
    /// cooked packets at this packet size (use a larger packet size or a
    /// chunking layer).
    pub fn new(
        doc: &Document,
        sc: &StructuralCharacteristic,
        lod: Lod,
        measure: Measure,
        packet_size: usize,
        gamma: f64,
    ) -> Result<Self, Error> {
        let (plan, payload) = plan_document(doc, sc, lod, measure);
        cook_plan(plan, &payload, packet_size, gamma)
    }

    /// Like [`LiveServer::new`], but grows the packet size (from
    /// `min_packet_size`, doubling) until the document fits the 256
    /// cooked-packet limit of one GF(2⁸) dispersal group — how a server
    /// would serve documents of any size without a chunking layer.
    ///
    /// # Errors
    ///
    /// Propagates codec errors only for pathological `gamma` (the search
    /// always finds a fitting packet size otherwise).
    pub fn new_auto(
        doc: &Document,
        sc: &StructuralCharacteristic,
        lod: Lod,
        measure: Measure,
        min_packet_size: usize,
        gamma: f64,
    ) -> Result<Self, Error> {
        let (plan, payload) = plan_document(doc, sc, lod, measure);
        let mut packet_size = min_packet_size.max(1);
        while cooked_packets(plan.raw_packets(packet_size), gamma) > 256 {
            packet_size *= 2;
        }
        cook_plan(plan, &payload, packet_size, gamma)
    }

    /// Builds a server from already-cooked packets, such as an edge
    /// cache serving the at-rest dispersed blob. No codec is constructed
    /// and no [`EventKind::EncodeSpan`] is emitted: the packets were
    /// encoded exactly once when they were cooked, and this path only
    /// frames them for the wire, in the layout [`cook_plan`] encodes
    /// into. `None` entries mark packets the cache no longer holds
    /// intact (trimmed parity, at-rest rot); the server skips those
    /// sequences and the client reconstructs from any `M` of the rest.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameters`] if `cooked.len() != header.n`,
    /// `header.n > 256`, any present packet is not exactly
    /// `header.packet_size` bytes, or fewer than `header.m` packets are
    /// present.
    pub fn from_cooked(
        header: DocumentHeader,
        cooked: Vec<Option<Vec<u8>>>,
    ) -> Result<Self, Error> {
        let invalid = Error::InvalidParameters {
            raw: header.m,
            cooked: header.n,
        };
        if cooked.len() != header.n || header.n > 256 || header.packet_size == 0 {
            return Err(invalid);
        }
        let present = cooked.iter().flatten().count();
        if present < header.m {
            return Err(Error::NotEnoughPackets {
                have: present,
                need: header.m,
            });
        }
        if cooked
            .iter()
            .flatten()
            .any(|p| p.len() != header.packet_size)
        {
            return Err(invalid);
        }
        let stride = header.packet_size + FRAME_OVERHEAD;
        let mut frames = vec![0; header.n * stride];
        let mut held = [false; 256];
        for (i, (slot, packet)) in frames.chunks_exact_mut(stride).zip(cooked).enumerate() {
            if let Some(packet) = packet {
                slot[PAYLOAD_OFFSET..][..packet.len()].copy_from_slice(&packet);
                seal_frame(i as u16, slot);
                held[i] = true;
            }
        }
        Ok(LiveServer {
            header,
            frames,
            held,
            sealed: OnceLock::new(),
        })
    }

    /// The control-channel header describing this transmission.
    pub fn header(&self) -> &DocumentHeader {
        &self.header
    }

    /// The cached wire framing for cooked packet `index`, borrowed —
    /// repeat requests (retransmission rounds) cost nothing beyond the
    /// socket write, not an encode. `None` for an out-of-range index:
    /// every serving route must tolerate a request index mangled in
    /// flight, so there is deliberately no panicking accessor.
    pub fn frame_bytes(&self, index: usize) -> Option<&[u8]> {
        self.frame_checked(index).ok()
    }

    /// Like [`LiveServer::frame_bytes`], but a failed lookup is typed —
    /// for servers that must tell a peer violation apart from a packet
    /// this server legitimately lacks (a trimmed edge-cache entry).
    ///
    /// # Errors
    ///
    /// [`TransportError::FrameOutOfRange`] if `index ≥ N` — a protocol
    /// violation to report to the peer; [`TransportError::FrameNotHeld`]
    /// if `index` is valid but the packet is not held — a sequence the
    /// serving loop skips.
    pub fn frame_checked(&self, index: usize) -> Result<&[u8], TransportError> {
        let n = self.header.n;
        if index >= n {
            return Err(TransportError::FrameOutOfRange { index, n });
        }
        let stride = self.header.packet_size + FRAME_OVERHEAD;
        self.frames
            .get(index * stride..)
            .and_then(|rest| rest.get(..stride))
            .filter(|_| self.held[index])
            .ok_or(TransportError::FrameNotHeld { index })
    }

    /// Cooked packet `index`'s payload, borrowed from its frame — what
    /// an edge cache stores at rest. `None` for a packet this server
    /// does not hold and for an index `≥ N`.
    pub fn payload(&self, index: usize) -> Option<&[u8]> {
        self.frame_bytes(index)?
            .get(PAYLOAD_OFFSET..)?
            .get(..self.header.packet_size)
    }

    /// Every held frame sealed into its delivery envelope by `seal`,
    /// which appends the envelope of one frame's wire bytes to a
    /// buffer. A server that wraps frames for its own wire (the proxy's
    /// FRAME envelope, CRC included) then copies finished envelopes on
    /// every session instead of rebuilding them per frame.
    ///
    /// The first call seals, once even under concurrent callers; later
    /// calls return those bytes whatever `seal` they pass, so a server
    /// serves one envelope format. The bytes cost one more copy of the
    /// frames and live as long as the server, so whichever cache drops
    /// a stale transmission drops its envelopes with it.
    pub fn sealed(&self, seal: fn(&mut Vec<u8>, &[u8])) -> &Sealed {
        self.sealed.get_or_init(|| {
            let mut bytes = Vec::new();
            let spans = (0..self.header.n)
                .map(|i| {
                    let start = bytes.len();
                    seal(&mut bytes, self.frame_bytes(i)?);
                    Some(start..bytes.len())
                })
                .collect();
            bytes.shrink_to_fit();
            Sealed { bytes, spans }
        })
    }
}

/// The client side: sequence manager + rendering manager.
#[derive(Debug)]
pub struct LiveClient {
    header: DocumentHeader,
    state: ReceiverState,
    packets: Vec<Option<Vec<u8>>>,
    codec: Codec,
    /// Intact clear bytes per slice (for rendering progress).
    slice_have: Vec<usize>,
    reconstructed: Option<Vec<u8>>,
}

impl LiveClient {
    /// Creates a client for the given transmission header.
    ///
    /// # Errors
    ///
    /// Propagates codec construction errors for inconsistent headers.
    pub fn new(header: DocumentHeader) -> Result<Self, Error> {
        // Shared substrate: every client session with this (M, N) shape
        // shares one generator and one survivor-keyed decode-inverse
        // cache, so a loss pattern inverted by any session is a cache
        // hit for all of them.
        let codec = Codec::shared(header.m, header.n, header.packet_size)?;
        let contents = header.plan.packet_contents(header.packet_size);
        let state = ReceiverState::new(header.m, header.n, contents);
        let slice_have = vec![0usize; header.plan.slices().len()];
        Ok(LiveClient {
            packets: vec![None; header.n],
            state,
            codec,
            slice_have,
            header,
            reconstructed: None,
        })
    }

    /// Feeds one wire frame (possibly corrupted). Returns rendering
    /// events triggered by this frame.
    pub fn on_wire(&mut self, wire: &[u8]) -> Vec<ClientEvent> {
        let Ok(frame) = Frame::from_wire(wire, self.header.packet_size) else {
            // Corrupted: detected by CRC, discarded. Sequence is
            // unknown, so we only book the corruption statistically;
            // index 0 is safe because corrupted packets never alter
            // intact bookkeeping.
            self.state.on_packet(0, true);
            emit(EventKind::CrcReject, self.state.corrupted(), 0);
            return Vec::new();
        };
        let idx = frame.sequence() as usize;
        if idx >= self.header.n || self.state.has(idx) {
            // Unknown or duplicate: nothing new.
            if idx < self.header.n {
                self.state.on_packet(idx, false);
            }
            return Vec::new();
        }
        self.state.on_packet(idx, false);
        self.packets[idx] = Some(frame.into_payload());
        let mut events = Vec::new();
        if idx < self.header.m {
            events.extend(self.render_progress(idx));
        }
        if self.state.is_complete() && self.reconstructed.is_none() {
            let collected: Vec<(usize, Vec<u8>)> = self
                .packets
                .iter()
                .enumerate()
                .filter_map(|(i, p)| p.clone().map(|p| (i, p)))
                .collect();
            if let Ok(bytes) = self.codec.decode(&collected, self.header.doc_len) {
                self.reconstructed = Some(bytes);
                events.push(ClientEvent::Reconstructed);
            }
        }
        events
    }

    /// Rendering progress for the slices a clear packet touches.
    fn render_progress(&mut self, packet_idx: usize) -> Vec<ClientEvent> {
        let lo = packet_idx * self.header.packet_size;
        let hi = ((packet_idx + 1) * self.header.packet_size).min(self.header.doc_len);
        let mut events = Vec::new();
        for (i, range) in self.header.plan.slice_ranges().iter().enumerate() {
            let overlap = hi.min(range.end).saturating_sub(lo.max(range.start));
            if overlap == 0 || range.is_empty() {
                continue;
            }
            self.slice_have[i] += overlap;
            let fraction = self.slice_have[i] as f64 / (range.end - range.start) as f64;
            // a = slice index in plan order, b = basis points complete.
            emit(
                EventKind::SliceProgress,
                i as u64,
                (fraction.min(1.0) * 10_000.0) as u64,
            );
            events.push(ClientEvent::SliceProgress {
                label: self.header.plan.slices()[i].label.clone(),
                fraction: fraction.min(1.0),
            });
        }
        events
    }

    /// Protocol bookkeeping (intact counts, content, missing packets).
    pub fn state(&self) -> &ReceiverState {
        &self.state
    }

    /// The reconstructed payload, once available.
    pub fn document_bytes(&self) -> Option<&[u8]> {
        self.reconstructed.as_deref()
    }

    /// Discards all packet state (NoCaching reload).
    pub fn reset(&mut self) {
        self.state.reset_packets();
        self.packets.iter_mut().for_each(|p| *p = None);
        self.slice_have.iter_mut().for_each(|b| *b = 0);
        self.reconstructed = None;
    }
}

/// Control messages from client to server.
#[derive(Debug)]
enum Control {
    /// Retransmit exactly these cooked packets.
    Request(Vec<usize>),
    /// The client is done (reconstructed or stopped).
    Done,
}

/// Data messages from server to client.
#[derive(Debug)]
enum Wire {
    Frame(Vec<u8>),
    RoundEnd,
    GaveUp,
}

/// Outcome of [`run_transfer`].
#[derive(Debug, Clone, PartialEq)]
pub struct TransferReport {
    /// Whether the document was fully reconstructed.
    pub completed: bool,
    /// Whether the client stopped early on the relevance threshold.
    pub stopped_early: bool,
    /// Rounds used (1 = no stall).
    pub rounds: usize,
    /// Frames pushed onto the wire.
    pub frames_sent: u64,
    /// Frames the client discarded as corrupted.
    pub frames_corrupted: u64,
    /// The reconstructed payload (empty if not completed).
    pub payload: Vec<u8>,
    /// Rendering events in order of occurrence.
    pub events: Vec<ClientEvent>,
    /// Retransmission request sets in round order (Caching: the missing
    /// packets; NoCaching: full reloads). Empty if no round stalled.
    pub requests: Vec<Vec<usize>>,
    /// The fault scheduler's replayable trace (empty without injected
    /// faults).
    pub fault_events: Vec<FaultEvent>,
}

/// Parameters for [`run_transfer`].
#[derive(Debug, Clone, PartialEq)]
pub struct TransferConfig {
    /// Per-packet corruption probability of the simulated wireless link.
    pub alpha: f64,
    /// RNG seed for the link.
    pub seed: u64,
    /// Caching vs from-scratch reloads on stall.
    pub cache_mode: CacheMode,
    /// Stop once accrued content reaches this threshold (the user's
    /// "stop" button for irrelevant documents).
    pub stop_at_content: Option<f64>,
    /// Retry budget in rounds.
    pub max_rounds: usize,
    /// Optional scheduled fault injection layered over the link's own
    /// Bernoulli corruption (drops, duplication, reordering, garbling,
    /// outages — see [`FaultConfig`]).
    pub fault: Option<FaultConfig>,
}

impl Default for TransferConfig {
    fn default() -> Self {
        TransferConfig {
            alpha: 0.1,
            seed: 0,
            cache_mode: CacheMode::Caching,
            stop_at_content: None,
            max_rounds: 64,
            fault: None,
        }
    }
}

/// Runs a full transfer: the server on its own thread pushing frames
/// through a corrupting link, the client on the calling thread.
///
/// The header travels on the reliable control channel (modelled by
/// cloning it to the client before the lossy data stream starts), as a
/// real deployment would ship the structural characteristic first.
///
/// # Errors
///
/// [`TransportError::Codec`] if the header does not describe a valid
/// codec; [`TransportError::ServerPanicked`] if the server thread dies
/// mid-transfer.
pub fn run_transfer(
    server: LiveServer,
    config: &TransferConfig,
) -> Result<TransferReport, TransportError> {
    // A rendezvous channel models a link with no in-flight buffering:
    // the server hands over one delivery at a time, so a "stop" takes
    // effect after at most one further frame. Zero capacity also makes
    // the fault trace a pure function of the schedule — the server
    // cannot race a variable distance ahead of a client hangup, which
    // keeps replaying a failing schedule exact even when decode timing
    // varies (e.g. a warm shared inverse cache on the second run).
    let (wire_tx, wire_rx) = mpsc::sync_channel::<Wire>(0);
    let (ctl_tx, ctl_rx) = mpsc::channel::<Control>();

    let header = server.header().clone();
    emit(EventKind::TransferStart, header.m as u64, header.n as u64);
    let n = header.n;
    let link = Link::new(
        Bandwidth::from_kbps(19.2),
        BernoulliChannel::new(config.alpha, config.seed),
        config.seed ^ 1,
    );
    let fault = config.fault.clone().unwrap_or_else(FaultConfig::clean);
    let mut hop = Hop::new(FaultyLink::new(link, fault, config.seed ^ 2));
    // In-process transfers carry session id 0 and no frame budget.
    let mut rounds = Rounds::new(Arc::new(server), 0, u64::MAX, config.max_rounds);

    // The thread hands back its counters and the fault scheduler's
    // trace, so a failing schedule can be replayed exactly.
    let server_thread = thread::spawn(move || {
        serve(&mut rounds, &mut hop, &wire_tx, &ctl_rx);
        (rounds.frames_sent(), rounds.rounds(), hop.into_trace())
    });

    let mut client = LiveClient::new(header)?;
    let mut events = Vec::new();
    let mut requests: Vec<Vec<usize>> = Vec::new();
    let mut completed = false;
    let mut stopped_early = false;

    'transfer: for wire in &wire_rx {
        match wire {
            Wire::Frame(bytes) => {
                let new_events = client.on_wire(&bytes);
                let reconstructed = new_events
                    .iter()
                    .any(|e| matches!(e, ClientEvent::Reconstructed));
                events.extend(new_events);
                if reconstructed {
                    completed = true;
                    let _ = ctl_tx.send(Control::Done);
                    break 'transfer;
                }
                if let Some(threshold) = config.stop_at_content {
                    if client.state().content() >= threshold {
                        stopped_early = true;
                        let _ = ctl_tx.send(Control::Done);
                        break 'transfer;
                    }
                }
            }
            Wire::RoundEnd => {
                // Stalled round: arrange retransmission.
                let request = match config.cache_mode {
                    CacheMode::Caching => client.state().missing(),
                    CacheMode::NoCaching => {
                        client.reset();
                        (0..n).collect()
                    }
                };
                requests.push(request.clone());
                let _ = ctl_tx.send(Control::Request(request));
            }
            Wire::GaveUp => break 'transfer,
        }
    }
    // Drop both channel ends so the server unblocks wherever it is
    // (mid-send or waiting on control), then join.
    drop(ctl_tx);
    drop(wire_rx);
    let (frames_sent, rounds, fault_events) = server_thread
        .join()
        .map_err(|_| TransportError::ServerPanicked)?;
    emit(EventKind::TransferEnd, u64::from(completed), rounds as u64);
    Ok(TransferReport {
        completed,
        stopped_early,
        rounds,
        frames_sent,
        frames_corrupted: client.state().corrupted(),
        payload: client
            .document_bytes()
            .map(<[u8]>::to_vec)
            .unwrap_or_default(),
        events,
        requests,
        fault_events,
    })
}

/// The server thread's I/O loop: carries what `rounds` serves across
/// the hop into the rendezvous channel and feeds the client's control
/// messages back, until the client is done or hangs up, or the rounds
/// are over.
fn serve<L: LossModel>(
    rounds: &mut Rounds,
    hop: &mut Hop<L>,
    wire_tx: &SyncSender<Wire>,
    ctl_rx: &Receiver<Control>,
) {
    loop {
        let (deliveries, then) = match rounds.next_action() {
            Ok(Action::Frame { bytes, .. }) => (hop.transmit(bytes).0, None),
            // Nothing left on the wire this round: held (reordered)
            // frames can no longer be overtaken.
            Ok(Action::RoundEnd) => (hop.flush(), Some(Wire::RoundEnd)),
            Ok(Action::GaveUp) => {
                let _ = wire_tx.send(Wire::GaveUp);
                return;
            }
            Ok(Action::Idle) => match ctl_rx.recv() {
                Ok(Control::Request(ids)) => {
                    rounds.request(ids);
                    continue;
                }
                Ok(Control::Done) | Err(_) => return,
            },
            // Unreachable in-process: the client asks only for packets
            // it lacks, and there is no frame budget.
            Err(_) => return,
        };
        let mut wires = deliveries
            .into_iter()
            .map(|d| Wire::Frame(d.bytes))
            .chain(then);
        if !wires.all(|wire| wire_tx.send(wire).is_ok()) {
            // The client hung up (reconstructed or stopped).
            rounds.done();
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrtweb_content::query::Query;
    use mrtweb_textproc::pipeline::ScPipeline;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    fn fixture() -> (Document, StructuralCharacteristic) {
        let doc = Document::parse_xml(
            "<document>\
             <section><title>Mobile Web</title>\
             <paragraph>mobile browsing over wireless channels needs bandwidth care</paragraph>\
             <paragraph>clients cache cooked packets against corruption</paragraph></section>\
             <section><title>Background</title>\
             <paragraph>databases indexes storage engines and other prose</paragraph></section>\
             </document>",
        )
        .unwrap();
        let pipeline = ScPipeline::default();
        let idx = pipeline.run(&doc);
        let q = Query::parse("mobile wireless", &pipeline);
        let sc = StructuralCharacteristic::from_index(&idx, Some(&q));
        (doc, sc)
    }

    fn server(lod: Lod, gamma: f64) -> LiveServer {
        let (doc, sc) = fixture();
        LiveServer::new(&doc, &sc, lod, Measure::Qic, 32, gamma).unwrap()
    }

    fn try_run(srv: LiveServer, config: &TransferConfig) -> TransferReport {
        run_transfer(srv, config).unwrap()
    }

    #[test]
    fn clean_channel_reconstructs_exactly() {
        let srv = server(Lod::Paragraph, 1.5);
        let (_, payload_expect) = {
            let (doc, sc) = fixture();
            plan_document(&doc, &sc, Lod::Paragraph, Measure::Qic)
        };
        let report = try_run(
            srv,
            &TransferConfig {
                alpha: 0.0,
                ..Default::default()
            },
        );
        assert!(report.completed);
        assert_eq!(report.rounds, 1);
        assert_eq!(report.payload, payload_expect);
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, ClientEvent::Reconstructed)));
    }

    #[test]
    fn lossy_channel_still_reconstructs_with_caching() {
        let srv = server(Lod::Section, 1.5);
        let (_, payload_expect) = {
            let (doc, sc) = fixture();
            plan_document(&doc, &sc, Lod::Section, Measure::Qic)
        };
        let report = try_run(
            srv,
            &TransferConfig {
                alpha: 0.3,
                seed: 7,
                ..Default::default()
            },
        );
        assert!(report.completed, "transfer failed: {report:?}");
        assert_eq!(report.payload, payload_expect);
        assert!(
            report.frames_corrupted > 0,
            "alpha=0.3 should corrupt something"
        );
    }

    #[test]
    fn nocaching_also_completes() {
        let srv = server(Lod::Document, 1.5);
        let report = try_run(
            srv,
            &TransferConfig {
                alpha: 0.2,
                seed: 3,
                cache_mode: CacheMode::NoCaching,
                ..Default::default()
            },
        );
        assert!(report.completed);
    }

    #[test]
    fn stop_button_interrupts_irrelevant_document() {
        let srv = server(Lod::Paragraph, 1.5);
        let report = try_run(
            srv,
            &TransferConfig {
                alpha: 0.0,
                stop_at_content: Some(0.3),
                ..Default::default()
            },
        );
        assert!(report.stopped_early);
        assert!(!report.completed);
        assert!(report.payload.is_empty());
    }

    #[test]
    fn progressive_rendering_is_monotone_per_slice() {
        let srv = server(Lod::Paragraph, 1.2);
        let report = try_run(
            srv,
            &TransferConfig {
                alpha: 0.0,
                ..Default::default()
            },
        );
        let mut last = std::collections::HashMap::<String, f64>::new();
        for e in &report.events {
            if let ClientEvent::SliceProgress { label, fraction } = e {
                let prev = last.insert(label.clone(), *fraction).unwrap_or(0.0);
                assert!(*fraction >= prev, "progress went backwards for {label}");
                assert!(*fraction <= 1.0 + 1e-12);
            }
        }
        assert!(!last.is_empty(), "rendering events must be emitted");
    }

    #[test]
    fn qic_ordering_renders_matching_section_first() {
        let srv = server(Lod::Section, 1.5);
        let first_label = srv.header().plan.slices()[0].label.clone();
        let report = try_run(
            srv,
            &TransferConfig {
                alpha: 0.0,
                ..Default::default()
            },
        );
        let first_event = report.events.iter().find_map(|e| match e {
            ClientEvent::SliceProgress { label, .. } => Some(label.clone()),
            ClientEvent::Reconstructed => None,
        });
        assert_eq!(first_event.as_deref(), Some(first_label.as_str()));
    }

    #[test]
    fn new_auto_fits_large_documents() {
        use mrtweb_docmodel::gen::SyntheticDocSpec;
        // A ~10 KiB document at 16-byte packets would need ~640 raw
        // packets; new_auto must grow the packet size until N ≤ 256.
        let doc = SyntheticDocSpec::default().generate(3).document;
        let pipeline = ScPipeline::default();
        let idx = pipeline.run(&doc);
        let sc = StructuralCharacteristic::from_index(&idx, None);
        let srv = LiveServer::new_auto(&doc, &sc, Lod::Paragraph, Measure::Ic, 16, 1.5).unwrap();
        assert!(srv.header().n <= 256, "N = {}", srv.header().n);
        assert!(
            srv.header().packet_size >= 64,
            "packet size {}",
            srv.header().packet_size
        );
        let report = try_run(
            srv,
            &TransferConfig {
                alpha: 0.2,
                seed: 8,
                ..Default::default()
            },
        );
        assert!(report.completed);
    }

    #[test]
    fn out_of_range_frame_requests_are_typed_errors() {
        let srv = server(Lod::Paragraph, 1.5);
        let n = srv.header().n;
        assert!(srv.frame_bytes(n).is_none());
        match srv.frame_checked(n) {
            Err(TransportError::FrameOutOfRange { index, n: reported }) => {
                assert_eq!(index, n);
                assert_eq!(reported, n);
            }
            other => panic!("expected FrameOutOfRange, got {other:?}"),
        }
        assert_eq!(srv.frame_checked(0).unwrap(), srv.frame_bytes(0).unwrap());
    }

    #[test]
    fn not_held_frames_are_distinct_from_out_of_range() {
        // A from_cooked server with a trimmed parity packet — the shape
        // an edge cache serves after budget pressure. The hole must be
        // a skippable FrameNotHeld, not the peer-violation error.
        let (doc, sc) = fixture();
        let (header, cooked) = cook(&doc, &sc, Lod::Paragraph, Measure::Qic, 32, 1.5).unwrap();
        let n = header.n;
        let mut packets: Vec<Option<Vec<u8>>> = cooked.into_iter().map(Some).collect();
        packets[n - 1] = None;
        let srv = LiveServer::from_cooked(header, packets).unwrap();
        assert!(matches!(
            srv.frame_checked(n - 1),
            Err(TransportError::FrameNotHeld { index }) if index == n - 1
        ));
        assert!(matches!(
            srv.frame_checked(n),
            Err(TransportError::FrameOutOfRange { .. })
        ));
        assert!(srv.frame_checked(0).is_ok());
    }

    #[test]
    fn strided_frames_match_frame_to_wire_at_every_packet_size() {
        let (doc, sc) = fixture();
        let (plan, payload) = plan_document(&doc, &sc, Lod::Paragraph, Measure::Qic);
        let mut checked = 0;
        for packet_size in 1..=300 {
            let m = plan.raw_packets(packet_size);
            let n = cooked_packets(m, 1.5);
            if n > 256 {
                continue; // more than one dispersal group
            }
            checked += 1;
            // The oracle: per-packet encode, then one frame per packet.
            let packets = Codec::new(m, n, packet_size).unwrap().encode(&payload);
            let served = cook_plan(plan.clone(), &payload, packet_size, 1.5).unwrap();
            // An edge entry with every third parity packet trimmed.
            let kept: Vec<Option<Vec<u8>>> = packets
                .iter()
                .enumerate()
                .map(|(i, p)| (i < m || (i - m) % 3 != 0).then(|| p.clone()))
                .collect();
            let trimmed = LiveServer::from_cooked(served.header().clone(), kept.clone()).unwrap();
            for (i, packet) in packets.iter().enumerate() {
                let wire = Frame::new(i as u16, packet.clone()).to_wire();
                assert_eq!(
                    served.frame_bytes(i),
                    Some(&wire[..]),
                    "{packet_size} B, {i}"
                );
                assert_eq!(served.payload(i), Some(&packet[..]), "{packet_size} B, {i}");
                if kept[i].is_some() {
                    assert_eq!(trimmed.frame_checked(i).ok(), Some(&wire[..]));
                } else {
                    assert!(matches!(
                        trimmed.frame_checked(i),
                        Err(TransportError::FrameNotHeld { index }) if index == i
                    ));
                    assert_eq!(trimmed.payload(i), None);
                }
            }
            for srv in [&served, &trimmed] {
                assert!(matches!(
                    srv.frame_checked(n),
                    Err(TransportError::FrameOutOfRange { index, n: reported })
                        if index == n && reported == n
                ));
            }
        }
        assert!(checked >= 290, "only {checked} packet sizes fit one group");
    }

    #[test]
    fn from_cooked_refuses_more_than_one_dispersal_group() {
        let (doc, sc) = fixture();
        let (mut header, _) = cook(&doc, &sc, Lod::Paragraph, Measure::Qic, 32, 1.5).unwrap();
        header.n = 257;
        let packets = vec![Some(vec![0; 32]); 257];
        assert!(matches!(
            LiveServer::from_cooked(header, packets),
            Err(Error::InvalidParameters { .. })
        ));
    }

    static SEALS: AtomicUsize = AtomicUsize::new(0);

    /// A seal that leaves the frame as it is and counts the call.
    fn counting_seal(out: &mut Vec<u8>, frame: &[u8]) {
        SEALS.fetch_add(1, Ordering::SeqCst);
        out.extend_from_slice(frame);
    }

    #[test]
    fn sessions_sharing_a_server_seal_each_held_frame_once() {
        const SESSIONS: usize = 8;
        let (doc, sc) = fixture();
        let (header, cooked) = cook(&doc, &sc, Lod::Paragraph, Measure::Qic, 32, 1.5).unwrap();
        let n = header.n;
        let mut packets: Vec<Option<Vec<u8>>> = cooked.into_iter().map(Some).collect();
        packets[n - 1] = None;
        let srv = Arc::new(LiveServer::from_cooked(header, packets).unwrap());
        let start = Barrier::new(SESSIONS);
        thread::scope(|s| {
            for _ in 0..SESSIONS {
                let srv = Arc::clone(&srv);
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    let sealed = srv.sealed(counting_seal);
                    for i in 0..=n {
                        assert_eq!(sealed.envelope(i), srv.frame_bytes(i), "frame {i}");
                    }
                });
            }
        });
        assert_eq!(SEALS.load(Ordering::SeqCst), n - 1);
    }

    #[test]
    fn hopeless_channel_gives_up_at_budget() {
        let srv = server(Lod::Document, 1.0);
        let report = try_run(
            srv,
            &TransferConfig {
                alpha: 1.0,
                max_rounds: 3,
                ..Default::default()
            },
        );
        assert!(!report.completed);
        assert_eq!(report.rounds, 3);
        assert!(report.payload.is_empty());
    }
}
