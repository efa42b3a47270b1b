//! The client's receive path through `fetch_over`: envelopes split at
//! every byte, rounds larger than the receive buffer, and HEADERs that
//! disagree with their own plan.
//!
//! A scripted stream stands in for the daemon: it replays the bytes a
//! server writes for one round (HEADER, FRAMEs, ROUND-END), a few bytes
//! per read or all at once, and swallows what the client sends.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

use mrtweb_docmodel::gen::SyntheticDocSpec;
use mrtweb_erasure::packet::{Frame, FRAME_OVERHEAD};
use mrtweb_proxy::client::{fetch, fetch_over, FetchError, FetchOptions, FetchReport};
use mrtweb_proxy::server::{bind_engine, Engine, ServerConfig};
use mrtweb_proxy::wire::{
    put_frame_envelope, Message, StreamDecoder, ENVELOPE_OVERHEAD, FIRST_READ,
};
use mrtweb_store::gateway::{Gateway, Request};
use mrtweb_store::store::DocumentStore;
use mrtweb_transport::error::Error as TransportError;
use mrtweb_transport::live::{DocumentHeader, LiveClient, LiveServer};
use mrtweb_transport::plan::{TransmissionPlan, UnitSlice};

const URL: &str = "doc/receive";

fn engines() -> Vec<Engine> {
    let mut all = vec![Engine::Blocking];
    if cfg!(all(target_os = "linux", feature = "event")) {
        all.push(Engine::Event);
    }
    all
}

fn gateway() -> Gateway {
    let spec = SyntheticDocSpec {
        target_bytes: 10_240,
        ..SyntheticDocSpec::default()
    };
    let store = Arc::new(DocumentStore::new(16));
    store.put(URL, spec.generate(7).document);
    Gateway::new(store)
}

fn options(packet_size: u32) -> FetchOptions {
    FetchOptions {
        packet_size,
        io_timeout: Duration::from_secs(20),
        ..FetchOptions::new(URL)
    }
}

/// The transmission the daemon serves for `options`.
fn transmission(options: &FetchOptions) -> LiveServer {
    let request = Request::from_options(
        &options.url,
        &options.query,
        &options.lod,
        &options.measure,
        options.packet_size as usize,
        options.gamma,
    )
    .expect("request");
    gateway().prepare(&request).expect("prepare")
}

/// One round as a server writes it: HEADER, the frames in order (each
/// index in `corrupt` with a flipped payload bit, so its CRC-16
/// fails), ROUND-END.
fn round(server: &LiveServer, corrupt: &[usize]) -> Vec<u8> {
    let mut wire = Message::Header(server.header().clone()).encode();
    for i in 0..server.header().n {
        let mut frame = server.frame_bytes(i).expect("held").to_vec();
        if corrupt.contains(&i) {
            frame[2] ^= 1;
        }
        put_frame_envelope(&mut wire, &frame);
    }
    Message::RoundEnd.encode_into(&mut wire);
    wire
}

/// Replays `wire` in reads of at most `chunk(k)` bytes for the `k`-th
/// read, and keeps what the client writes.
struct Scripted {
    wire: Vec<u8>,
    at: usize,
    reads: usize,
    chunk: fn(usize) -> usize,
    sent: Vec<u8>,
}

impl Scripted {
    fn new(wire: Vec<u8>, chunk: fn(usize) -> usize) -> Self {
        Scripted {
            wire,
            at: 0,
            reads: 0,
            chunk,
            sent: Vec::new(),
        }
    }
}

impl Read for Scripted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf
            .len()
            .min(self.wire.len() - self.at)
            .min((self.chunk)(self.reads));
        buf[..n].copy_from_slice(&self.wire[self.at..self.at + n]);
        self.at += n;
        self.reads += 1;
        Ok(n)
    }
}

impl Write for Scripted {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.sent.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn whole(_: usize) -> usize {
    usize::MAX
}

/// 1, 2, …, 7, 1, 2, …: over a round, envelopes split inside their
/// length prefix, their frame and their CRC-32 alike.
fn one_to_seven(k: usize) -> usize {
    k % 7 + 1
}

fn assert_same_receive(split: &FetchReport, whole: &FetchReport, what: &str) {
    assert!(whole.completed, "{what}: whole-read fetch completes");
    assert_eq!(split.completed, whole.completed, "{what}");
    assert_eq!(split.payload, whole.payload, "{what}: payload");
    assert_eq!(split.frames_received, whole.frames_received, "{what}");
    assert_eq!(split.bytes_received, whole.bytes_received, "{what}");
    assert_eq!(split.crc_rejects, whole.crc_rejects, "{what}");
    assert_eq!(split.events, whole.events, "{what}: events");
    assert_eq!(split.header, whole.header, "{what}: header");
}

#[test]
fn envelopes_split_anywhere_reconstruct_as_whole_reads_do() {
    // 256-byte packets (the paper shape), 8 KiB packets whose FRAME
    // envelope outgrows the first read, and 64 KiB packets whose
    // envelope outgrows the largest buffer a HEADER sizes.
    for packet_size in [256, 8192, 65_536] {
        let options = options(packet_size);
        let server = transmission(&options);
        let (m, n) = (server.header().m, server.header().n);
        let expected = {
            let mut client = LiveClient::new(server.header().clone()).expect("client");
            for i in 0..m {
                client.on_wire(server.frame_bytes(i).expect("held"));
            }
            client.into_parts().1.expect("clear text reconstructs")
        };
        // A clean round, and one whose first clear packet is corrupted
        // when there is parity to stand in for it.
        let schedules: Vec<Vec<usize>> = if n > m {
            vec![vec![], vec![0]]
        } else {
            vec![vec![]]
        };
        for corrupt in schedules {
            let what = format!("{packet_size} B packets, corrupted {corrupt:?}");
            let wire = round(&server, &corrupt);
            let whole = fetch_over(Scripted::new(wire.clone(), whole), &options).expect(&what);
            let mut stream = Scripted::new(wire.clone(), one_to_seven);
            let split = fetch_over(&mut stream, &options).expect(&what);
            assert_eq!(whole.payload, expected, "{what}");
            assert_eq!(whole.bytes_received, wire.len() as u64, "{what}");
            assert_eq!(whole.frames_received, n as u64, "{what}");
            assert_eq!(whole.crc_rejects, corrupt.len() as u64, "{what}");
            assert_same_receive(&split, &whole, &what);
            // HELLO, then DONE once M packets were in.
            let mut sent = StreamDecoder::new();
            sent.absorb(&stream.sent);
            assert!(matches!(sent.next_message(), Ok(Some(Message::Hello(_)))));
            assert_eq!(sent.next_message().unwrap(), Some(Message::Done));
            assert_eq!(sent.next_message().unwrap(), None);
        }
    }
}

#[test]
fn loopback_fetch_with_frames_larger_than_the_first_read() {
    // An 8 KiB packet's FRAME envelope is twice the first read, and the
    // whole round still fits what a daemon queues at HELLO, so the
    // socket delivers every frame before the client's DONE lands.
    let options = options(8192);
    let envelope = options.packet_size as usize + FRAME_OVERHEAD + 1 + ENVELOPE_OVERHEAD;
    assert!(envelope > FIRST_READ);
    let server = transmission(&options);
    let whole = fetch_over(Scripted::new(round(&server, &[]), whole), &options).expect("script");
    for engine in engines() {
        let daemon = bind_engine("127.0.0.1:0", gateway(), ServerConfig::default(), engine)
            .expect("bind loopback");
        let report = fetch(daemon.local_addr(), &options).expect("loopback fetch");
        assert_same_receive(&report, &whole, &format!("{engine:?}"));
        daemon.shutdown();
    }
}

/// A HEADER envelope for a one-slice, 100-byte plan at 4-byte packets.
fn bad_header(doc_len: usize, m: usize, packet_size: usize) -> Vec<u8> {
    Message::Header(DocumentHeader {
        doc_len,
        m,
        n: 30,
        packet_size,
        plan: TransmissionPlan::sequential(vec![UnitSlice::new("1", 100, 1.0)]),
    })
    .encode()
}

#[test]
fn a_header_that_disagrees_with_its_plan_is_a_transport_error() {
    let options = options(4);
    // M = 2 where the plan needs 25 packets of 4 bytes; a doc_len
    // beyond M · packet_size; a doc_len short of the plan; packets no
    // FRAME can carry.
    let cases = [
        bad_header(100, 2, 4),
        bad_header(1000, 25, 4),
        bad_header(99, 25, 4),
        bad_header(100, 1, 1 << 22),
    ];
    for (k, wire) in cases.into_iter().enumerate() {
        match fetch_over(Scripted::new(wire, whole), &options) {
            Err(FetchError::Transport(TransportError::BadHeader(_))) => {}
            other => panic!("case {k}: wanted a BadHeader transport error, got {other:?}"),
        }
    }
    // The consistent header passes the check (and the stream then ends).
    assert!(matches!(
        fetch_over(Scripted::new(bad_header(100, 25, 4), whole), &options),
        Err(FetchError::Io(_))
    ));
}

#[test]
fn frames_with_foreign_sequences_are_ignored() {
    // Out-of-range and duplicate frames between the real ones change
    // nothing but the frame count.
    let options = options(256);
    let server = transmission(&options);
    let (m, n, ps) = (
        server.header().m,
        server.header().n,
        server.header().packet_size,
    );
    let clean = fetch_over(Scripted::new(round(&server, &[]), whole), &options).expect("clean");
    let mut wire = Message::Header(server.header().clone()).encode();
    for i in 0..n {
        put_frame_envelope(&mut wire, server.frame_bytes(i).expect("held"));
        if i + 1 < m {
            put_frame_envelope(&mut wire, &Frame::new(n as u16 + 3, vec![7; ps]).to_wire());
            put_frame_envelope(&mut wire, server.frame_bytes(i).expect("held"));
        }
    }
    Message::RoundEnd.encode_into(&mut wire);
    let noisy = fetch_over(Scripted::new(wire, one_to_seven), &options).expect("noisy");
    assert!(noisy.completed);
    assert_eq!(noisy.payload, clean.payload);
    assert_eq!(noisy.events, clean.events);
    assert_eq!(
        noisy.frames_received,
        clean.frames_received + 2 * (m as u64 - 1)
    );
}
