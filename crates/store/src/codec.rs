//! Compact binary serialization for stored documents and indexes.
//!
//! The paper's database server holds documents and their structural
//! characteristics; this codec is the persistence format: versioned,
//! length-prefixed, and hardened against corrupt input (decoding
//! arbitrary bytes returns an error, never panics or over-allocates).

use std::collections::BTreeMap;

use mrtweb_docmodel::document::Document;
use mrtweb_docmodel::lod::Lod;
use mrtweb_docmodel::unit::{Inline, Unit, UnitPath};
use mrtweb_erasure::crc::{crc32, Crc32};
use mrtweb_erasure::cursor::{Reader, Short};
use mrtweb_erasure::ida::{Codec as DispersalCodec, GroupPackets};
use mrtweb_erasure::par::GroupCodec;
use mrtweb_textproc::index::{DocumentIndex, UnitEntry};
use mrtweb_transport::live::DocumentHeader;

/// Format magic for documents.
pub const DOC_MAGIC: &[u8; 4] = b"MRTD";
/// Format magic for logical indexes.
pub const INDEX_MAGIC: &[u8; 4] = b"MRTI";
/// Format magic for dispersed blobs.
pub const BLOB_MAGIC: &[u8; 4] = b"MRTB";
/// Current format version.
pub const VERSION: u8 = 1;

/// Upper bound on any single length field (guards hostile input).
pub(crate) const MAX_LEN: usize = 16 * 1024 * 1024;

/// Decoding error with a terse reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub &'static str);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

impl From<Short> for CodecError {
    fn from(_: Short) -> Self {
        CodecError("truncated input")
    }
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// A `u32` length field, capped at [`MAX_LEN`].
pub(crate) fn get_len(r: &mut Reader<'_>) -> Result<usize, CodecError> {
    let n = r.u32_le()? as usize;
    if n > MAX_LEN {
        return Err(CodecError("length field exceeds sanity bound"));
    }
    Ok(n)
}

pub(crate) fn get_str(r: &mut Reader<'_>) -> Result<String, CodecError> {
    let n = get_len(r)?;
    String::from_utf8(r.take(n)?.to_vec()).map_err(|_| CodecError("invalid UTF-8 in string"))
}

pub(crate) fn lod_to_byte(l: Lod) -> u8 {
    l.depth() as u8
}

pub(crate) fn lod_from_byte(b: u8) -> Result<Lod, CodecError> {
    if b > 4 {
        return Err(CodecError("invalid LOD tag"));
    }
    Ok(Lod::from_depth(b as usize))
}

/// Serializes a document.
pub fn encode_document(doc: &Document) -> Vec<u8> {
    let mut buf = DOC_MAGIC.to_vec();
    buf.push(VERSION);
    encode_unit(doc.root(), &mut buf);
    buf
}

fn encode_unit(u: &Unit, buf: &mut Vec<u8>) {
    buf.push(lod_to_byte(u.kind()));
    let mut flags = 0u8;
    if u.title().is_some() {
        flags |= 1;
    }
    if u.is_synthetic() {
        flags |= 2;
    }
    buf.push(flags);
    if let Some(t) = u.title() {
        put_str(buf, t);
    }
    buf.extend_from_slice(&(u.runs().len() as u32).to_le_bytes());
    for r in u.runs() {
        put_str(buf, &r.text);
        buf.push(r.emphasized as u8);
    }
    buf.extend_from_slice(&(u.children().len() as u32).to_le_bytes());
    for c in u.children() {
        encode_unit(c, buf);
    }
}

/// Deserializes a document.
///
/// # Errors
///
/// [`CodecError`] for wrong magic/version, truncation, invalid tags or
/// trailing garbage.
pub fn decode_document(input: &[u8]) -> Result<Document, CodecError> {
    let mut r = Reader::new(input);
    if r.take(4)? != DOC_MAGIC {
        return Err(CodecError("bad document magic"));
    }
    if r.u8()? != VERSION {
        return Err(CodecError("unsupported version"));
    }
    let root = decode_unit(&mut r, 0)?;
    if !r.is_empty() {
        return Err(CodecError("trailing bytes after document"));
    }
    if root.kind() != Lod::Document {
        return Err(CodecError("root unit is not at document LOD"));
    }
    Ok(Document::from_root(root))
}

fn decode_unit(r: &mut Reader<'_>, depth: usize) -> Result<Unit, CodecError> {
    if depth > 16 {
        return Err(CodecError("unit tree too deep"));
    }
    let kind = lod_from_byte(r.u8()?)?;
    let flags = r.u8()?;
    let mut unit = Unit::new(kind).with_synthetic(flags & 2 != 0);
    if flags & 1 != 0 {
        unit.set_title(Some(get_str(r)?));
    }
    let runs = get_len(r)?;
    for _ in 0..runs {
        let text = get_str(r)?;
        let emphasized = r.u8()? != 0;
        unit.push_run(if emphasized {
            Inline::emphasized(text)
        } else {
            Inline::plain(text)
        });
    }
    let children = get_len(r)?;
    for _ in 0..children {
        let child = decode_unit(r, depth + 1)?;
        unit.push_child(child);
    }
    Ok(unit)
}

/// Serializes a logical index.
pub fn encode_index(index: &DocumentIndex) -> Vec<u8> {
    let mut buf = INDEX_MAGIC.to_vec();
    buf.push(VERSION);
    buf.extend_from_slice(&(index.entries().len() as u32).to_le_bytes());
    for e in index.entries() {
        buf.push(e.path.depth() as u8);
        for &i in e.path.indices() {
            buf.extend_from_slice(&(i as u32).to_le_bytes());
        }
        buf.push(lod_to_byte(e.kind));
        buf.push(e.synthetic as u8);
        match &e.title {
            Some(t) => {
                buf.push(1);
                put_str(&mut buf, t);
            }
            None => buf.push(0),
        }
        buf.extend_from_slice(&(e.own_bytes as u64).to_le_bytes());
        buf.extend_from_slice(&(e.counts.len() as u32).to_le_bytes());
        for (stem, n) in &e.counts {
            put_str(&mut buf, stem);
            buf.extend_from_slice(&n.to_le_bytes());
        }
    }
    buf
}

/// Deserializes a logical index.
///
/// # Errors
///
/// [`CodecError`] on any malformed input.
pub fn decode_index(input: &[u8]) -> Result<DocumentIndex, CodecError> {
    let mut r = Reader::new(input);
    if r.take(4)? != INDEX_MAGIC {
        return Err(CodecError("bad index magic"));
    }
    if r.u8()? != VERSION {
        return Err(CodecError("unsupported version"));
    }
    let n = get_len(&mut r)?;
    let mut entries = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let depth = r.u8()? as usize;
        if depth > 16 {
            return Err(CodecError("path too deep"));
        }
        let mut indices = Vec::with_capacity(depth);
        for _ in 0..depth {
            indices.push(r.u32_le()? as usize);
        }
        let kind = lod_from_byte(r.u8()?)?;
        let synthetic = r.u8()? != 0;
        let title = if r.u8()? != 0 {
            Some(get_str(&mut r)?)
        } else {
            None
        };
        let own_bytes = r.u64_le()? as usize;
        let c = get_len(&mut r)?;
        let mut counts = BTreeMap::new();
        for _ in 0..c {
            let stem = get_str(&mut r)?;
            let count = r.u64_le()?;
            counts.insert(stem, count);
        }
        entries.push(UnitEntry {
            path: UnitPath::from_indices(indices),
            kind,
            synthetic,
            title,
            counts,
            own_bytes,
        });
    }
    if !r.is_empty() {
        return Err(CodecError("trailing bytes after index"));
    }
    Ok(DocumentIndex::new(entries))
}

/// Serializes `payload` as a *dispersed blob*: the bytes are split into
/// dispersal groups and stored as all `N` cooked packets per group, each
/// packet guarded by its own CRC-32. Any storage-level corruption that
/// leaves at least `M` intact packets per group still decodes — the
/// same fault-tolerance discipline the paper applies to the wireless
/// link, applied to the database server's media.
///
/// Layout: `magic | version | m | n | packet_size | doc_len | n_groups`,
/// then per group `group_len` followed by `n` records of
/// `packet bytes (packet_size) | crc32`.
///
/// Encoding fans groups across worker threads via [`GroupCodec`].
///
/// # Errors
///
/// [`CodecError`] if the dispersal parameters are invalid (`m == 0`,
/// `n < m`, `n > 256`, or `packet_size == 0`).
pub fn encode_dispersed(
    payload: &[u8],
    m: usize,
    n: usize,
    packet_size: usize,
) -> Result<Vec<u8>, CodecError> {
    let codec = DispersalCodec::new(m, n, packet_size)
        .map_err(|_| CodecError("invalid dispersal parameters"))?;
    let groups = GroupCodec::new(codec).encode(payload);
    let groups: Vec<_> = groups
        .iter()
        .map(|g| (g.len, g.cooked.as_slice()))
        .collect();
    Ok(write_blob(m, packet_size, payload.len(), &groups))
}

/// Lays out already-cooked dispersal groups as a dispersed blob (the
/// layout [`encode_dispersed`] documents): each group is its payload
/// byte length and its `N` cooked packets of `packet_size` bytes. This
/// is the writer behind [`encode_dispersed`], and how an edge-cache
/// miss stores the packets it just cooked without encoding them again
/// (borrowed straight from the server's frames).
pub fn write_blob<P: AsRef<[u8]>>(
    m: usize,
    packet_size: usize,
    doc_len: usize,
    groups: &[(usize, &[P])],
) -> Vec<u8> {
    let n_groups = groups.len();
    let n = groups.first().map_or(0, |(_, cooked)| cooked.len());
    // Capacity is a hint: saturation just means one extra realloc.
    let group_bytes = packet_size
        .saturating_add(4)
        .saturating_mul(n)
        .saturating_add(4);
    let mut buf = Vec::with_capacity(29usize.saturating_add(n_groups.saturating_mul(group_bytes)));
    buf.extend_from_slice(BLOB_MAGIC);
    buf.push(VERSION);
    buf.extend_from_slice(&(m as u32).to_le_bytes());
    buf.extend_from_slice(&(n as u32).to_le_bytes());
    buf.extend_from_slice(&(packet_size as u32).to_le_bytes());
    buf.extend_from_slice(&(doc_len as u64).to_le_bytes());
    buf.extend_from_slice(&(n_groups as u32).to_le_bytes());
    for &(len, cooked) in groups {
        buf.extend_from_slice(&(len as u32).to_le_bytes());
        for p in cooked.iter().map(AsRef::as_ref) {
            buf.extend_from_slice(p);
            buf.extend_from_slice(&crc32(p).to_le_bytes());
        }
    }
    buf
}

/// Deserializes a dispersed blob, tolerating per-packet corruption.
///
/// The blob parses through [`BlobPackets::parse`]. Packets whose CRC-32
/// fails are dropped; each group then reconstructs from its surviving
/// packets (fanned across worker threads). Decoding succeeds as long as
/// every group retains at least `M` intact packets.
///
/// # Errors
///
/// [`CodecError`] for wrong magic/version, truncation, inconsistent
/// header fields, trailing garbage, or groups with too few intact
/// packets.
pub fn decode_dispersed(input: &[u8]) -> Result<Vec<u8>, CodecError> {
    let blob = BlobPackets::parse(input)?;
    let codec = DispersalCodec::new(blob.m, blob.n, blob.packet_size)
        .map_err(|_| CodecError("invalid dispersal parameters"))?;
    let groups: Vec<GroupPackets> = (0..blob.n_groups)
        .map(|g| {
            let intact = (0..blob.n)
                .filter(|&i| blob.is_intact(g, i))
                .map(|i| (i, blob.packet(g, i).to_vec()))
                .collect();
            (g, intact, blob.group_len(g))
        })
        .collect();
    let out = GroupCodec::new(codec)
        .decode(&groups)
        .map_err(|_| CodecError("too many corrupted packets"))?;
    if out.len() != blob.doc_len {
        return Err(CodecError("group lengths inconsistent with length"));
    }
    Ok(out)
}

/// A zero-decode view over a dispersed blob's cooked-packet records —
/// the broadcast carousel's on-air format.
///
/// The carousel transmits the *stored* records (`packet bytes ‖
/// crc32`) verbatim: encoding happened exactly once, at `put` time,
/// and an unbounded number of listeners replays from the same bytes.
/// This view parses and bounds-checks the MRTB header and record
/// layout without reconstructing anything, so iterating a blob's
/// packets costs a header parse, not a decode.
#[derive(Debug, Clone, Copy)]
pub struct BlobPackets<'a> {
    m: usize,
    n: usize,
    packet_size: usize,
    doc_len: usize,
    n_groups: usize,
    /// The group region: `n_groups` × (`group_len` + `n` records).
    body: &'a [u8],
}

/// One on-air packet: its dispersal coordinates and stored bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AirPacketRef<'a> {
    /// Dispersal group the packet belongs to.
    pub group: usize,
    /// Cooked packet index within the group (`0..N`).
    pub index: usize,
    /// The packet bytes (length `packet_size`).
    pub packet: &'a [u8],
    /// Whether the stored CRC-32 still matches the packet bytes.
    pub intact: bool,
}

impl<'a> BlobPackets<'a> {
    /// Parses a blob header and validates the record layout.
    ///
    /// # Errors
    ///
    /// [`CodecError`] for wrong magic/version, hostile header fields,
    /// truncation, or trailing garbage. This is the one MRTB parser:
    /// [`decode_dispersed`] reconstructs from the view it returns.
    pub fn parse(blob: &'a [u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(blob);
        if r.take(4)? != BLOB_MAGIC {
            return Err(CodecError("bad blob magic"));
        }
        if r.u8()? != VERSION {
            return Err(CodecError("unsupported version"));
        }
        let m = r.u32_le()? as usize;
        let n = r.u32_le()? as usize;
        let packet_size = r.u32_le()? as usize;
        if m == 0 || n < m || n > 256 || packet_size == 0 || packet_size > MAX_LEN {
            return Err(CodecError("invalid dispersal parameters"));
        }
        let doc_len = r.u64_le()? as usize;
        if doc_len > MAX_LEN {
            return Err(CodecError("length field exceeds sanity bound"));
        }
        let n_groups = get_len(&mut r)?;
        let group_capacity = m
            .checked_mul(packet_size)
            .ok_or(CodecError("invalid dispersal parameters"))?;
        let expected_groups = if doc_len == 0 {
            1
        } else {
            doc_len.div_ceil(group_capacity)
        };
        if n_groups != expected_groups {
            return Err(CodecError("group count inconsistent with length"));
        }
        let body_len = packet_size
            .checked_add(4)
            .and_then(|per_record| per_record.checked_mul(n))
            .and_then(|records| records.checked_add(4))
            .and_then(|group_bytes| group_bytes.checked_mul(n_groups))
            .ok_or(Short)?;
        let body = r.take(body_len)?;
        if !r.is_empty() {
            return Err(CodecError("trailing bytes after blob"));
        }
        let view = BlobPackets {
            m,
            n,
            packet_size,
            doc_len,
            n_groups,
            body,
        };
        for g in 0..n_groups {
            if view.group_len(g) > group_capacity {
                return Err(CodecError("group length exceeds capacity"));
            }
        }
        Ok(view)
    }

    /// Raw packets per group (`M`).
    #[must_use]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Cooked packets per group (`N`).
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes per cooked packet.
    #[must_use]
    pub fn packet_size(&self) -> usize {
        self.packet_size
    }

    /// Total payload length the blob reconstructs to.
    #[must_use]
    pub fn doc_len(&self) -> usize {
        self.doc_len
    }

    /// Number of dispersal groups.
    #[must_use]
    pub fn groups(&self) -> usize {
        self.n_groups
    }

    /// Whether this blob is the one-group dispersal `header` describes:
    /// the same `M`, `N`, packet size and document length. Blob file
    /// names are a 64-bit hash and migration records come off the
    /// backhaul, so every path that pairs a blob with a header checks
    /// this before serving one under the other.
    #[must_use]
    pub fn matches_header(&self, header: &DocumentHeader) -> bool {
        self.m == header.m
            && self.n == header.n
            && self.packet_size == header.packet_size
            && self.doc_len == header.doc_len
            && self.n_groups == 1
    }

    /// Payload bytes carried by group `group` (≤ `M · packet_size`).
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    #[must_use]
    pub fn group_len(&self, group: usize) -> usize {
        assert!(group < self.n_groups, "group {group} out of range");
        let at = group.saturating_mul(self.group_stride());
        let Some(len) = self.body.get(at..).and_then(<[u8]>::first_chunk) else {
            unreachable!("record layout validated by parse()")
        };
        u32::from_le_bytes(*len) as usize
    }

    /// The stored packet bytes at (`group`, `index`).
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is out of range.
    #[must_use]
    pub fn packet(&self, group: usize, index: usize) -> &'a [u8] {
        let at = self.record_at(group, index);
        let Some(p) = self.body.get(at..at.saturating_add(self.packet_size)) else {
            unreachable!("record layout validated by parse()")
        };
        p
    }

    /// The full stored record at (`group`, `index`): packet bytes
    /// followed by their little-endian CRC-32, exactly as persisted —
    /// the broadcast carousel's on-air unit.
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is out of range.
    #[must_use]
    pub fn record(&self, group: usize, index: usize) -> &'a [u8] {
        let at = self.record_at(group, index);
        let end = at.saturating_add(self.packet_size).saturating_add(4);
        let Some(r) = self.body.get(at..end) else {
            unreachable!("record layout validated by parse()")
        };
        r
    }

    /// Whether the stored CRC-32 at (`group`, `index`) still matches.
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is out of range.
    #[must_use]
    pub fn is_intact(&self, group: usize, index: usize) -> bool {
        let Some((packet, stored)) = self.record(group, index).split_last_chunk() else {
            unreachable!("record layout validated by parse()")
        };
        crc32(packet) == u32::from_le_bytes(*stored)
    }

    /// CRC-32 over every stored packet in order, the records' own CRCs
    /// left out: what identifies the cooked bytes a blob carries. A
    /// CRC-32 over whole records would not: each record ends in its
    /// packet's CRC-32, which makes such a checksum the same for every
    /// blob of one shape.
    #[must_use]
    pub fn digest(&self) -> u32 {
        let mut crc = Crc32::new();
        for group in 0..self.n_groups {
            for index in 0..self.n {
                crc.update(self.packet(group, index));
            }
        }
        crc.finish()
    }

    /// Every on-air packet in carousel order (group-major).
    pub fn iter(&self) -> impl Iterator<Item = AirPacketRef<'a>> + '_ {
        let (groups, n) = (self.n_groups, self.n);
        (0..groups).flat_map(move |group| {
            (0..n).map(move |index| AirPacketRef {
                group,
                index,
                packet: self.packet(group, index),
                intact: self.is_intact(group, index),
            })
        })
    }

    fn group_stride(&self) -> usize {
        // parse() proved this sum fits with checked arithmetic, so
        // saturation never actually engages.
        self.packet_size
            .saturating_add(4)
            .saturating_mul(self.n)
            .saturating_add(4)
    }

    fn record_at(&self, group: usize, index: usize) -> usize {
        assert!(
            group < self.n_groups && index < self.n,
            "packet ({group}, {index}) out of range ({} groups × N={})",
            self.n_groups,
            self.n
        );
        group
            .saturating_mul(self.group_stride())
            .saturating_add(4)
            .saturating_add(index.saturating_mul(self.packet_size.saturating_add(4)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrtweb_docmodel::gen::SyntheticDocSpec;
    use mrtweb_textproc::pipeline::ScPipeline;

    fn sample_doc() -> Document {
        Document::parse_xml(
            "<document><title>Store Me</title>\
             <section><title>S</title><paragraph>plain <b>bold</b> tail</paragraph>\
             </section></document>",
        )
        .unwrap()
    }

    #[test]
    fn document_round_trip() {
        let doc = sample_doc();
        let bytes = encode_document(&doc);
        assert_eq!(decode_document(&bytes).unwrap(), doc);
    }

    #[test]
    fn generated_documents_round_trip() {
        for seed in 0..5 {
            let doc = SyntheticDocSpec::default().generate(seed).document;
            let bytes = encode_document(&doc);
            assert_eq!(decode_document(&bytes).unwrap(), doc, "seed {seed}");
        }
    }

    #[test]
    fn index_round_trip() {
        let doc = sample_doc();
        let index = ScPipeline::default().run(&doc);
        let bytes = encode_index(&index);
        assert_eq!(decode_index(&bytes).unwrap(), index);
    }

    #[test]
    fn wrong_magic_rejected() {
        let mut bytes = encode_document(&sample_doc());
        bytes[0] = b'X';
        assert_eq!(
            decode_document(&bytes),
            Err(CodecError("bad document magic"))
        );
        let mut bytes = encode_index(&ScPipeline::default().run(&sample_doc()));
        bytes[0] = b'X';
        assert_eq!(decode_index(&bytes), Err(CodecError("bad index magic")));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = encode_document(&sample_doc());
        bytes[4] = 99;
        assert!(decode_document(&bytes).is_err());
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = encode_document(&sample_doc());
        for cut in 0..bytes.len() {
            assert!(
                decode_document(&bytes[..cut]).is_err(),
                "truncation at {cut} went undetected"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = encode_document(&sample_doc());
        bytes.push(0);
        assert_eq!(
            decode_document(&bytes),
            Err(CodecError("trailing bytes after document"))
        );
    }

    #[test]
    fn hostile_length_fields_do_not_allocate() {
        // A document claiming a 4 GiB title.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(DOC_MAGIC);
        bytes.push(VERSION);
        bytes.push(0); // kind = document
        bytes.push(1); // has title
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_document(&bytes),
            Err(CodecError("length field exceeds sanity bound"))
        );
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = DOC_MAGIC.to_vec();
        buf.push(VERSION);
        buf.push(0); // document
        buf.push(1); // has title
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&[0xFF, 0xFE]);
        buf.extend_from_slice(&0u32.to_le_bytes()); // runs
        buf.extend_from_slice(&0u32.to_le_bytes()); // children
        assert_eq!(
            decode_document(&buf),
            Err(CodecError("invalid UTF-8 in string"))
        );
    }

    #[test]
    fn dispersed_blob_round_trip() {
        let payload: Vec<u8> = (0..5000).map(|i| (i * 31 + 7) as u8).collect();
        let blob = encode_dispersed(&payload, 8, 12, 64).unwrap();
        assert_eq!(decode_dispersed(&blob).unwrap(), payload);
    }

    #[test]
    fn dispersed_blob_empty_payload() {
        let blob = encode_dispersed(&[], 4, 6, 16).unwrap();
        assert_eq!(decode_dispersed(&blob).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn dispersed_blob_survives_packet_corruption() {
        let payload: Vec<u8> = (0..2000).map(|i| (i * 13 + 1) as u8).collect();
        let m = 8;
        let n = 12;
        let ps = 64;
        let mut blob = encode_dispersed(&payload, m, n, ps).unwrap();
        // Corrupt N - M packets in the first group: one byte each.
        let header = 4 + 1 + 4 + 4 + 4 + 8 + 4; // magic..n_groups
        let group_start = header + 4; // + group_len
        for k in 0..(n - m) {
            blob[group_start + k * (ps + 4) + 3] ^= 0xA5;
        }
        assert_eq!(decode_dispersed(&blob).unwrap(), payload);
    }

    #[test]
    fn dispersed_blob_too_much_corruption_rejected() {
        let payload: Vec<u8> = (0..500).map(|i| (i * 3) as u8).collect();
        let m = 4;
        let n = 6;
        let ps = 32;
        let mut blob = encode_dispersed(&payload, m, n, ps).unwrap();
        let header = 4 + 1 + 4 + 4 + 4 + 8 + 4;
        let group_start = header + 4;
        // Kill N - M + 1 packets of group 0: below the decode threshold.
        for k in 0..=(n - m) {
            blob[group_start + k * (ps + 4)] ^= 0xFF;
        }
        assert_eq!(
            decode_dispersed(&blob),
            Err(CodecError("too many corrupted packets"))
        );
    }

    #[test]
    fn dispersed_blob_malformed_input_rejected() {
        let blob = encode_dispersed(b"hello dispersed world", 2, 4, 8).unwrap();
        let mut bad = blob.clone();
        bad[0] = b'X';
        assert_eq!(decode_dispersed(&bad), Err(CodecError("bad blob magic")));
        let mut bad = blob.clone();
        bad.push(0);
        assert_eq!(
            decode_dispersed(&bad),
            Err(CodecError("trailing bytes after blob"))
        );
        for cut in 0..blob.len() {
            assert!(
                decode_dispersed(&blob[..cut]).is_err(),
                "truncation at {cut}"
            );
        }
        assert_eq!(
            encode_dispersed(b"x", 0, 4, 8),
            Err(CodecError("invalid dispersal parameters"))
        );
    }

    #[test]
    fn non_document_root_rejected() {
        let mut buf = DOC_MAGIC.to_vec();
        buf.push(VERSION);
        buf.push(4); // paragraph at the root
        buf.push(0);
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            decode_document(&buf),
            Err(CodecError("root unit is not at document LOD"))
        );
    }
}
