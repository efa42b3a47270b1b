//! The cell-to-cell migration record: how a document roams.
//!
//! When a client moves from one base station's cell to another, the new
//! cell has none of the old cell's edge cache. Stanski et al.'s archive
//! container migrates the *document* with the user; here that means one
//! self-contained record carrying the edge key, the transmission
//! header (including the QIC-ordered plan the old cell computed), and
//! the at-rest MRTB blob — so the new cell serves the identical cooked
//! packets without a store lookup, a pipeline run, or a re-encode.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "MRTM" | version | url str | query str | lod u8 | measure u8
//! | packet_size u32 | gamma_bits u64 | doc_len u64 | m u32 | n u32
//! | n_slices u32 | n_slices × (label str | bytes u32 | content f64)
//! | blob_len u32 | blob bytes | crc32 over everything before it
//! ```
//!
//! where `str` is `len u32 | UTF-8 bytes` and `f64` travels as its
//! IEEE-754 bit pattern. The trailing CRC-32 covers the whole record,
//! so a corrupted backhaul transfer is rejected before any field is
//! trusted; the blob inside then re-validates under
//! [`BlobPackets::parse`] like any at-rest blob. This is a designated
//! untrusted-parser surface: every read is bounds-checked and every
//! length field sanity-capped.

use mrtweb_content::sc::Measure;
use mrtweb_erasure::crc::crc32;
use mrtweb_erasure::cursor::Reader;
use mrtweb_transport::live::DocumentHeader;
use mrtweb_transport::plan::{TransmissionPlan, UnitSlice};

use crate::codec::{
    get_len, get_str, lod_from_byte, lod_to_byte, put_str, BlobPackets, CodecError, MAX_LEN,
    VERSION,
};
use crate::edge::EdgeKey;

/// Format magic for migration records.
pub const MIGRATE_MAGIC: &[u8; 4] = b"MRTM";

/// One document's worth of roaming state: enough for the destination
/// cell to admit and serve it byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationRecord {
    /// The request shape the cached transmission answers.
    pub key: EdgeKey,
    /// The control-channel header, including the transmission plan.
    pub header: DocumentHeader,
    /// The at-rest MRTB dispersed blob.
    pub blob: Vec<u8>,
}

fn measure_to_byte(m: Measure) -> u8 {
    match m {
        Measure::Ic => 0,
        Measure::Qic => 1,
        Measure::Mqic => 2,
    }
}

fn measure_from_byte(b: u8) -> Result<Measure, CodecError> {
    match b {
        0 => Ok(Measure::Ic),
        1 => Ok(Measure::Qic),
        2 => Ok(Measure::Mqic),
        _ => Err(CodecError("invalid measure tag")),
    }
}

/// Serializes a migration record.
#[must_use]
pub fn encode_record(record: &MigrationRecord) -> Vec<u8> {
    let mut buf = MIGRATE_MAGIC.to_vec();
    buf.push(VERSION);
    put_str(&mut buf, &record.key.url);
    put_str(&mut buf, &record.key.query);
    buf.push(lod_to_byte(record.key.lod));
    buf.push(measure_to_byte(record.key.measure));
    buf.extend_from_slice(&(record.key.packet_size as u32).to_le_bytes());
    buf.extend_from_slice(&record.key.gamma_bits.to_le_bytes());
    buf.extend_from_slice(&(record.header.doc_len as u64).to_le_bytes());
    buf.extend_from_slice(&(record.header.m as u32).to_le_bytes());
    buf.extend_from_slice(&(record.header.n as u32).to_le_bytes());
    let slices = record.header.plan.slices();
    buf.extend_from_slice(&(slices.len() as u32).to_le_bytes());
    for s in slices {
        put_str(&mut buf, &s.label);
        buf.extend_from_slice(&(s.bytes as u32).to_le_bytes());
        buf.extend_from_slice(&s.content.to_bits().to_le_bytes());
    }
    buf.extend_from_slice(&(record.blob.len() as u32).to_le_bytes());
    buf.extend_from_slice(&record.blob);
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Deserializes and fully validates a migration record.
///
/// Validation layers, in order: the trailing whole-record CRC-32, then
/// bounds-checked field parsing, then the embedded blob's own MRTB
/// parse, then cross-checks that the declared transmission shape
/// (`m`, `n`, packet size, document length) matches both the blob
/// header and the plan's total bytes. Hostile input of any shape gets
/// a typed [`CodecError`], never a panic.
///
/// # Errors
///
/// [`CodecError`] naming the first violated layer.
pub fn decode_record(input: &[u8]) -> Result<MigrationRecord, CodecError> {
    let Some((body, stored)) = input.split_last_chunk() else {
        return Err(CodecError("truncated input"));
    };
    if crc32(body) != u32::from_le_bytes(*stored) {
        return Err(CodecError("migration record CRC mismatch"));
    }
    let mut r = Reader::new(body);
    if r.take(4)? != MIGRATE_MAGIC {
        return Err(CodecError("bad migration magic"));
    }
    if r.u8()? != VERSION {
        return Err(CodecError("unsupported version"));
    }
    let url = get_str(&mut r)?;
    let query = get_str(&mut r)?;
    let lod = lod_from_byte(r.u8()?)?;
    let measure = measure_from_byte(r.u8()?)?;
    let packet_size = r.u32_le()? as usize;
    if packet_size == 0 || packet_size > MAX_LEN {
        return Err(CodecError("length field exceeds sanity bound"));
    }
    let gamma_bits = r.u64_le()?;
    let doc_len = r.u64_le()? as usize;
    if doc_len > MAX_LEN {
        return Err(CodecError("length field exceeds sanity bound"));
    }
    let m = r.u32_le()? as usize;
    let n = r.u32_le()? as usize;
    if m == 0 || n < m || n > 256 {
        return Err(CodecError("invalid dispersal parameters"));
    }
    let n_slices = get_len(&mut r)?;
    let mut slices = Vec::new();
    let mut slice_bytes = 0usize;
    for _ in 0..n_slices {
        let label = get_str(&mut r)?;
        let bytes = r.u32_le()? as usize;
        if bytes > MAX_LEN {
            return Err(CodecError("length field exceeds sanity bound"));
        }
        let content = f64::from_bits(r.u64_le()?);
        if !content.is_finite() || content < 0.0 {
            return Err(CodecError("invalid slice content"));
        }
        slice_bytes = slice_bytes.saturating_add(bytes);
        slices.push(UnitSlice::new(label, bytes, content));
    }
    if slice_bytes != doc_len {
        return Err(CodecError("plan inconsistent with length"));
    }
    let blob_len = get_len(&mut r)?;
    let blob = r.take(blob_len)?.to_vec();
    if !r.is_empty() {
        return Err(CodecError("trailing bytes after record"));
    }
    // The plan rode over in its already-ranked order; `sequential`
    // preserves it exactly (re-ranking here could reorder ties and
    // break byte identity with the origin cell).
    let header = DocumentHeader {
        doc_len,
        m,
        n,
        packet_size,
        plan: TransmissionPlan::sequential(slices),
    };
    if !BlobPackets::parse(&blob)?.matches_header(&header) {
        return Err(CodecError("blob disagrees with transmission header"));
    }
    Ok(MigrationRecord {
        key: EdgeKey {
            url,
            query,
            lod,
            measure,
            packet_size,
            gamma_bits,
        },
        header,
        blob,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_dispersed;
    use mrtweb_docmodel::lod::Lod;

    fn record() -> MigrationRecord {
        let payload: Vec<u8> = (0..300u16).map(|i| (i % 251) as u8).collect();
        let (m, n, ps) = (5, 8, 64);
        let blob = encode_dispersed(&payload, m, n, ps).unwrap();
        let plan = TransmissionPlan::sequential(vec![
            UnitSlice::new("0/1", 200, 3.5),
            UnitSlice::new("1", 100, 1.25),
        ]);
        MigrationRecord {
            key: EdgeKey {
                url: "http://cell/doc".into(),
                query: "mobile web".into(),
                lod: Lod::Paragraph,
                measure: Measure::Qic,
                packet_size: ps,
                gamma_bits: 1.6f64.to_bits(),
            },
            header: DocumentHeader {
                doc_len: payload.len(),
                m,
                n,
                packet_size: ps,
                plan,
            },
            blob,
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let rec = record();
        let wire = encode_record(&rec);
        let back = decode_record(&wire).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn any_single_byte_flip_is_rejected_or_identical() {
        let rec = record();
        let wire = encode_record(&rec);
        // Sampled positions across the record, including the CRC tail.
        for pos in (0..wire.len()).step_by(17).chain([wire.len() - 1]) {
            let mut bad = wire.clone();
            bad[pos] ^= 0x40;
            assert!(
                decode_record(&bad).is_err(),
                "flip at {pos} must fail the record CRC"
            );
        }
    }

    #[test]
    fn truncation_never_panics() {
        let wire = encode_record(&record());
        for len in 0..wire.len() {
            assert!(decode_record(&wire[..len]).is_err());
        }
    }

    #[test]
    fn plan_total_must_match_doc_len() {
        let mut rec = record();
        rec.header.plan = TransmissionPlan::sequential(vec![UnitSlice::new("0", 10, 1.0)]);
        let wire = encode_record(&rec);
        assert_eq!(
            decode_record(&wire).unwrap_err(),
            CodecError("plan inconsistent with length")
        );
    }

    #[test]
    fn garbage_and_wrong_magic_are_rejected() {
        assert!(decode_record(&[]).is_err());
        assert!(decode_record(b"MRTM").is_err());
        let mut wire = encode_record(&record());
        wire[0] = b'X';
        assert!(decode_record(&wire).is_err());
    }
}
