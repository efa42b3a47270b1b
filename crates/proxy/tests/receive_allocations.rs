//! Allocation gate for the client's receive path: counts heap
//! allocations per frame, a number that does not depend on how fast
//! the machine is.
//!
//! - `LiveClient::on_wire` allocates nothing on any frame before the
//!   one that completes `M`, and at most twice on that frame (the
//!   borrowed survivor list and the decoded document, when parity
//!   stands in for clear text; none when the clear text is all in).
//! - The decoder's borrowed FRAME path allocates nothing per frame once
//!   its buffer is sized.
//! - A whole fetch makes the same number of allocations however many
//!   frames its round has.
//!
//! The counter is per thread, so tests running in parallel do not see
//! each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};

use mrtweb_content::sc::{Measure, StructuralCharacteristic};
use mrtweb_docmodel::gen::SyntheticDocSpec;
use mrtweb_docmodel::lod::Lod;
use mrtweb_erasure::packet::Frame;
use mrtweb_proxy::client::{fetch_over, FetchOptions};
use mrtweb_proxy::wire::{put_frame_envelope, Message, StreamDecoder};
use mrtweb_textproc::pipeline::ScPipeline;
use mrtweb_transport::live::{ClientEvent, LiveClient, LiveServer};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread.
struct Counting;

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `Counting` upholds exactly the contract `System` does;
// the count is a const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: forwards to `System::alloc` under the caller's contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards to `System::alloc_zeroed` under the caller's contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: forwards to `System::realloc` under the caller's contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, that is from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: forwards to `System::dealloc` under the caller's contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// The paper shape: a generated document at paragraph LOD, 256-byte
/// packets, γ = 1.5.
fn paper_shape(gamma: f64) -> LiveServer {
    let doc = SyntheticDocSpec::default().generate(5).document;
    let sc = StructuralCharacteristic::from_index(&ScPipeline::default().run(&doc), None);
    LiveServer::new(&doc, &sc, Lod::Paragraph, Measure::Ic, 256, gamma).expect("cook")
}

/// Feeds `frames` to a fresh client and returns the allocations of
/// each `on_wire` call, the index of the frame that reconstructed, and
/// the document.
fn receive(server: &LiveServer, frames: &[Vec<u8>]) -> (Vec<u64>, usize, Vec<u8>) {
    let mut client = LiveClient::new(server.header().clone()).expect("client");
    let mut per_frame = Vec::with_capacity(frames.len());
    let mut done = None;
    for (k, frame) in frames.iter().enumerate() {
        let (n, reconstructed) =
            allocations(|| client.on_wire(frame).contains(&ClientEvent::Reconstructed));
        per_frame.push(n);
        if reconstructed {
            done.get_or_insert(k);
        }
    }
    let done = done.expect("the frames reconstruct");
    let document = client.document_bytes().expect("reconstructed").to_vec();
    (per_frame, done, document)
}

fn assert_gate(per_frame: &[u64], done: usize, what: &str) {
    for (k, &n) in per_frame.iter().enumerate() {
        let limit = if k == done { 2 } else { 0 };
        assert!(
            n <= limit,
            "{what}: frame {k} allocated {n} times (limit {limit}; M completes at frame {done})"
        );
    }
}

#[test]
fn on_wire_allocates_only_on_the_frame_that_completes_m() {
    let server = paper_shape(1.5);
    let (m, n, ps) = (
        server.header().m,
        server.header().n,
        server.header().packet_size,
    );
    assert!(n >= m + 4, "the shape has parity to spare");
    let frame = |i: usize| server.frame_bytes(i).expect("held").to_vec();

    // A clean round: every frame in order, then duplicates past M.
    let clean: Vec<Vec<u8>> = (0..n).map(frame).chain((0..3).map(frame)).collect();
    let (per_frame, done, expected) = receive(&server, &clean);
    assert_eq!(done, m - 1);
    assert_gate(&per_frame, done, "clean");
    assert_eq!(per_frame[done], 0, "all-clear reconstruction is the buffer");

    // A lossy round: clear packets 1 and 4 corrupted, an out-of-range
    // sequence with a valid CRC, duplicates, and parity to fill in.
    let mut corrupted = frame(1);
    corrupted[5] ^= 0x10;
    let mut lossy = vec![frame(0), corrupted, frame(0)];
    lossy.push(Frame::new(n as u16 + 5, vec![9; ps]).to_wire());
    lossy.extend((2..m).filter(|&i| i != 4).map(frame));
    lossy.push(frame(2));
    lossy.extend((m..n).map(frame));
    // The first lossy receive computes and caches this survivor set's
    // inverse, as the first session to see a loss pattern does; the
    // gate holds from the second.
    let (_, _, warm) = receive(&server, &lossy);
    let (per_frame, done, document) = receive(&server, &lossy);
    assert_eq!(warm, expected);
    assert_eq!(document, expected);
    assert_eq!(done, lossy.len() - (n - m) + 1);
    assert_gate(&per_frame, done, "lossy");
}

#[test]
fn the_borrowed_frame_path_allocates_nothing_once_sized() {
    let server = paper_shape(1.5);
    let mut round = Vec::new();
    for _ in 0..4 {
        for i in 0..server.header().n {
            put_frame_envelope(&mut round, server.frame_bytes(i).expect("held"));
        }
        Message::RoundEnd.encode_into(&mut round);
    }
    let mut dec = StreamDecoder::new();
    dec.reserve(1 << 14);
    // Reads of 1000 bytes split envelopes anywhere, so the decoder
    // moves partial envelopes to the front of its buffer as it goes.
    let mut wire = &round[..];
    let mut chunked = std::io::Read::take(&mut wire, 0);
    let (n, frames) = allocations(|| {
        let mut frames = 0;
        loop {
            chunked.set_limit(1000);
            if dec.read_from(&mut chunked).expect("in memory") == 0 {
                break frames;
            }
            while let Some(envelope) = dec.next_envelope().expect("clean stream") {
                frames += usize::from(envelope.frame().is_some());
            }
        }
    });
    assert_eq!(frames, 4 * server.header().n);
    assert_eq!(n, 0, "{n} allocations over {frames} frames");
}

/// One clean round as a server writes it, replayed in one read; what
/// the client writes goes nowhere.
struct Replay<'a>(&'a [u8]);

impl Read for Replay<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.read(buf)
    }
}

impl Write for Replay<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_fetch_allocates_the_same_for_any_number_of_frames() {
    // γ = 1 and γ = 3 send the same document in M and in 3M frames.
    let counts: Vec<(u64, u64)> = [1.0, 3.0]
        .into_iter()
        .map(|gamma| {
            let server = paper_shape(gamma);
            let mut wire = Message::Header(server.header().clone()).encode();
            for i in 0..server.header().n {
                put_frame_envelope(&mut wire, server.frame_bytes(i).expect("held"));
            }
            Message::RoundEnd.encode_into(&mut wire);
            let options = FetchOptions::new("doc");
            // The first fetch of a shape builds the shared codec.
            fetch_over(Replay(&wire), &options).expect("warm-up fetch");
            let (n, report) = allocations(|| fetch_over(Replay(&wire), &options));
            let report = report.expect("fetch");
            assert!(report.completed);
            (n, report.frames_received)
        })
        .collect();
    assert!(counts[1].1 > 2 * counts[0].1, "{counts:?}");
    assert_eq!(
        counts[0].0, counts[1].0,
        "allocations by frame count: {counts:?}"
    );
}
