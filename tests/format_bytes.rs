//! Pinned bytes of every binary format.
//!
//! Round-trip tests cannot catch a change that alters an encoder and
//! its decoder the same way (an endianness flip, a reordered field):
//! both sides agree, every round trip passes, and every blob already
//! on disk or peer already deployed breaks. This test encodes fixed
//! inputs through every writer of the four binary formats — the proxy
//! wire envelope, the broadcast air frames, the store's MRTD/MRTI/MRTB
//! records and the MRTM migration record — plus the transport frame,
//! and pins each encoding's length and CRC-32. It then decodes each one
//! back, so the pinned bytes are also bytes the decoders accept.
//!
//! A failure lists every encoding whose bytes moved. Changing a
//! constant here is a format change: bump the format's version (or
//! the proxy's `PROTOCOL_VERSION`) with it.

use std::collections::BTreeMap;

use mrtweb::content::sc::Measure;
use mrtweb::docmodel::document::Document;
use mrtweb::docmodel::lod::Lod;
use mrtweb::docmodel::unit::{Inline, Unit, UnitPath};
use mrtweb::erasure::crc::crc32;
use mrtweb::erasure::packet::Frame;
use mrtweb::obs::{HistSnapshot, RegistrySnapshot};
use mrtweb::proxy::wire::{put_frame_envelope, ErrorCode, Hello, Message};
use mrtweb::store::codec::{
    decode_dispersed, decode_document, decode_index, encode_dispersed, encode_document,
    encode_index, write_blob, BlobPackets,
};
use mrtweb::store::edge::EdgeKey;
use mrtweb::store::migrate::{decode_record, encode_record, MigrationRecord};
use mrtweb::textproc::index::{DocumentIndex, UnitEntry};
use mrtweb::transport::broadcast::{
    parse_frame, render_data_frame, render_index_frame, AirFrame, AirIndex, DocMeta,
};
use mrtweb::transport::live::DocumentHeader;
use mrtweb::transport::plan::{TransmissionPlan, UnitSlice};

/// Collects every encoding whose `(length, CRC-32)` differs from its
/// pinned pair, so one run reports them all.
#[derive(Default)]
struct Pins {
    moved: Vec<String>,
}

impl Pins {
    fn check(&mut self, name: &str, bytes: &[u8], len: usize, crc: u32) {
        let got = (bytes.len(), crc32(bytes));
        if got != (len, crc) {
            self.moved.push(format!(
                "{name}: ({}, {:#010x}), pinned ({len}, {crc:#010x})",
                got.0, got.1
            ));
        }
    }

    fn finish(self) {
        assert!(
            self.moved.is_empty(),
            "format bytes moved:\n{}",
            self.moved.join("\n")
        );
    }
}

fn header() -> DocumentHeader {
    DocumentHeader {
        doc_len: 300,
        m: 5,
        n: 8,
        packet_size: 64,
        plan: TransmissionPlan::sequential(vec![
            UnitSlice::new("0/1", 200, 3.5),
            UnitSlice::new("1", 100, 1.25),
        ]),
    }
}

fn stats() -> RegistrySnapshot {
    RegistrySnapshot {
        counters: vec![("accepted".to_owned(), 12), ("frames_sent".to_owned(), 480)],
        gauges: vec![("active".to_owned(), -3)],
        hists: vec![(
            "request_latency_ns".to_owned(),
            HistSnapshot {
                buckets: vec![0, 2, 0, 0, 1],
                count: 3,
                sum: 4_001_000_900,
                min: 900,
                max: 4_000_000_000,
            },
        )],
    }
}

fn payload(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

fn document() -> Document {
    let mut root = Unit::new(Lod::Document);
    root.set_title(Some("Pinned".to_owned()));
    let mut section = Unit::new(Lod::Section);
    section.set_title(Some("Weak links".to_owned()));
    let mut paragraph = Unit::new(Lod::Paragraph).with_synthetic(true);
    paragraph.push_run(Inline::plain("cooked packets "));
    paragraph.push_run(Inline::emphasized("survive"));
    section.push_child(paragraph);
    root.push_child(section);
    Document::from_root(root)
}

fn index() -> DocumentIndex {
    let counts = |pairs: &[(&str, u64)]| -> BTreeMap<String, u64> {
        pairs.iter().map(|&(s, n)| (s.to_owned(), n)).collect()
    };
    DocumentIndex::new(vec![
        UnitEntry {
            path: UnitPath::from_indices([]),
            kind: Lod::Document,
            synthetic: false,
            title: Some("Pinned".to_owned()),
            counts: counts(&[("pin", 1)]),
            own_bytes: 6,
        },
        UnitEntry {
            path: UnitPath::from_indices([0, 2]),
            kind: Lod::Paragraph,
            synthetic: true,
            title: None,
            counts: counts(&[("cook", 2), ("packet", 3)]),
            own_bytes: 1234,
        },
    ])
}

#[test]
fn proxy_wire_envelopes_are_pinned() {
    let mut pins = Pins::default();
    let messages = [
        (
            "hello",
            Message::Hello(Hello::new("http://site/doc", "mobile wireless")),
            (72, 0x2443_902F),
        ),
        (
            "request",
            Message::Request(vec![0, 3, 7, 255, 0xBEEF]),
            (23, 0x695B_871F),
        ),
        (
            "request-empty",
            Message::Request(Vec::new()),
            (13, 0xDEB6_24C0),
        ),
        ("done", Message::Done, (9, 0xE84E_AB3F)),
        ("stats-request", Message::StatsRequest, (9, 0x0BC6_0E49)),
        ("header", Message::Header(header()), (69, 0x515D_41D5)),
        ("frame", Message::Frame(payload(64, 9)), (73, 0x3166_197D)),
        ("round-end", Message::RoundEnd, (9, 0x9D30_C6A0)),
        ("gave-up", Message::GaveUp, (9, 0x7EB8_63D6)),
        (
            "error",
            Message::Error {
                code: ErrorCode::NotFound,
                detail: "no such document: \"é\"".to_owned(),
            },
            (34, 0x7943_DA46),
        ),
        (
            "stats-reply",
            Message::StatsReply(stats()),
            (144, 0xD79F_66B3),
        ),
    ];
    for (name, message, (len, crc)) in messages {
        let wire = message.encode();
        pins.check(name, &wire, len, crc);
        assert_eq!(Message::decode(&wire).unwrap(), message, "{name}");
        let mut stream = std::io::Cursor::new(&wire);
        assert_eq!(Message::read_from(&mut stream).unwrap(), message, "{name}");
    }

    let frame = payload(64, 9);
    let mut envelope = Vec::new();
    put_frame_envelope(&mut envelope, &frame);
    pins.check("put_frame_envelope", &envelope, 73, 0x3166_197D);
    assert_eq!(Message::decode(&envelope).unwrap(), Message::Frame(frame));
    pins.finish();
}

#[test]
fn transport_frame_is_pinned() {
    let mut pins = Pins::default();
    let frame = Frame::new(0xBEEF, payload(32, 1));
    let wire = frame.to_wire();
    pins.check("Frame::to_wire", &wire, 36, 0x2476_B7FF);
    assert_eq!(Frame::from_wire(&wire, 32).unwrap(), frame);
    pins.finish();
}

#[test]
fn broadcast_air_frames_are_pinned() {
    let mut pins = Pins::default();
    let record = payload(20, 5);
    let data = render_data_frame(3, 1, 7, &record);
    pins.check("render_data_frame", &data, 29, 0x648B_1D6B);
    assert_eq!(
        parse_frame(&data).unwrap(),
        AirFrame::Data {
            doc: 3,
            group: 1,
            index: 7,
            record: &record,
        }
    );

    let air = AirIndex {
        pos: 17,
        cycle_len: 96,
        docs: vec![
            DocMeta {
                id: 3,
                m: 2,
                n: 3,
                packet_size: 16,
                doc_len: 40,
                group_lens: vec![32, 8],
                contents_ppm: vec![400_000, 300_000, 200_000, 100_000],
            },
            DocMeta {
                id: 9,
                m: 1,
                n: 2,
                packet_size: 8,
                doc_len: 0,
                group_lens: vec![0],
                contents_ppm: vec![0],
            },
        ],
    };
    let index = render_index_frame(&air);
    pins.check("render_index_frame", &index, 85, 0x9213_588E);
    assert_eq!(parse_frame(&index).unwrap(), AirFrame::Index(air));
    pins.finish();
}

#[test]
fn store_records_are_pinned() {
    let mut pins = Pins::default();
    let doc = document();
    let bytes = encode_document(&doc);
    pins.check("encode_document", &bytes, 101, 0x47B9_C773);
    assert_eq!(decode_document(&bytes).unwrap(), doc);

    let idx = index();
    let bytes = encode_index(&idx);
    pins.check("encode_index", &bytes, 108, 0x9FF1_F29E);
    assert_eq!(decode_index(&bytes).unwrap(), idx);

    let body = payload(300, 3);
    let blob = encode_dispersed(&body, 5, 8, 64).unwrap();
    pins.check("encode_dispersed", &blob, 577, 0x6F91_EBA8);
    assert_eq!(decode_dispersed(&blob).unwrap(), body);

    // Two groups of three arbitrary "cooked" packets: the layout alone,
    // independent of the codec's generator matrix.
    let group0: Vec<Vec<u8>> = (0..3).map(|i| payload(8, i)).collect();
    let group1: Vec<Vec<u8>> = (3..6).map(|i| payload(8, i)).collect();
    let blob = write_blob(2, 8, 20, &[(16, &group0), (4, &group1)]);
    pins.check("write_blob", &blob, 109, 0x0DDA_07B3);
    let view = BlobPackets::parse(&blob).unwrap();
    assert_eq!(
        (view.m(), view.n(), view.packet_size(), view.doc_len()),
        (2, 3, 8, 20)
    );
    assert_eq!((view.group_len(0), view.group_len(1)), (16, 4));
    for (g, group) in [&group0, &group1].into_iter().enumerate() {
        for (i, packet) in group.iter().enumerate() {
            assert_eq!(view.packet(g, i), &packet[..]);
            assert!(view.is_intact(g, i));
        }
    }
    pins.finish();
}

#[test]
fn migration_record_is_pinned() {
    let mut pins = Pins::default();
    let header = header();
    let record = MigrationRecord {
        key: EdgeKey {
            url: "http://cell/doc".to_owned(),
            query: "mobile web".to_owned(),
            lod: Lod::Paragraph,
            measure: Measure::Qic,
            packet_size: header.packet_size,
            gamma_bits: 1.6f64.to_bits(),
        },
        blob: encode_dispersed(&payload(300, 3), header.m, header.n, header.packet_size).unwrap(),
        header,
    };
    let bytes = encode_record(&record);
    pins.check("encode_record", &bytes, 693, 0x2144_DF1C);
    assert_eq!(decode_record(&bytes).unwrap(), record);
    pins.finish();
}
