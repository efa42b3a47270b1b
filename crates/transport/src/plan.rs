//! Transmission plans: what goes on the wire, in what order.
//!
//! "When transmitting a document at a lower LOD other than the document
//! LOD, the organizational units at the appropriate level are ranked and
//! transmitted according to QIC" (§4.2). A [`TransmissionPlan`] is the
//! permuted sequence of unit *slices* — each with its byte length and
//! information content — plus the mapping from raw-packet indices to the
//! content they carry, which is what lets a client accrue content from
//! intact clear-text packets.

use std::ops::Range;

use mrtweb_content::sc::{Measure, ScEntry, StructuralCharacteristic};
use mrtweb_docmodel::document::Document;
use mrtweb_docmodel::lod::Lod;
use mrtweb_docmodel::unit::UnitPath;

/// One contiguous slice of the transmission: an organizational unit (or
/// an interior unit's own text) scheduled as a whole.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitSlice {
    /// Human-readable label (unit path, e.g. `3.2.1`).
    pub label: String,
    /// Bytes the slice occupies on the wire.
    pub bytes: usize,
    /// Information content the slice carries (document sums to ≈ 1).
    pub content: f64,
}

impl UnitSlice {
    /// Creates a slice.
    pub fn new(label: impl Into<String>, bytes: usize, content: f64) -> Self {
        UnitSlice {
            label: label.into(),
            bytes,
            content,
        }
    }
}

/// A document's transmission order and packet/content geometry.
///
/// # Example
///
/// ```
/// use mrtweb_transport::plan::{TransmissionPlan, UnitSlice};
///
/// // Two units: a content-heavy one and a light one, ranked.
/// let plan = TransmissionPlan::ranked(vec![
///     UnitSlice::new("1", 100, 0.2),
///     UnitSlice::new("2", 100, 0.8),
/// ]);
/// assert_eq!(plan.slices()[0].label, "2"); // heavier first
/// assert_eq!(plan.raw_packets(100), 2);
/// let pc = plan.packet_contents(100);
/// assert!((pc[0] - 0.8).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TransmissionPlan {
    slices: Vec<UnitSlice>,
}

impl TransmissionPlan {
    /// A plan transmitting slices in the given (document) order — the
    /// conventional paradigm.
    pub fn sequential(slices: Vec<UnitSlice>) -> Self {
        TransmissionPlan { slices }
    }

    /// A plan with slices permuted in descending content order (ties
    /// keep document order) — multi-resolution transmission.
    pub fn ranked(mut slices: Vec<UnitSlice>) -> Self {
        slices.sort_by(|a, b| b.content.total_cmp(&a.content));
        TransmissionPlan { slices }
    }

    /// The slices in transmission order.
    pub fn slices(&self) -> &[UnitSlice] {
        &self.slices
    }

    /// Total bytes of the transmission (the paper's `s_D`).
    pub fn total_bytes(&self) -> usize {
        self.slices.iter().map(|s| s.bytes).sum()
    }

    /// Total content carried (≈ 1 for a whole normalized document).
    pub fn total_content(&self) -> f64 {
        self.slices.iter().map(|s| s.content).sum()
    }

    /// Number of raw packets `M = ⌈s_D / s_p⌉`.
    ///
    /// # Panics
    ///
    /// Panics if `packet_size` is zero.
    pub fn raw_packets(&self, packet_size: usize) -> usize {
        assert!(packet_size > 0, "packet size must be nonzero");
        self.total_bytes().div_ceil(packet_size).max(1)
    }

    /// The information content carried by each raw packet: packet `i`
    /// covers transmission bytes `[i·s_p, (i+1)·s_p)`, and a slice
    /// contributes content proportionally to the bytes of it inside the
    /// packet (the byte-level additive rule).
    ///
    /// # Panics
    ///
    /// Panics if `packet_size` is zero.
    pub fn packet_contents(&self, packet_size: usize) -> Vec<f64> {
        assert!(packet_size > 0, "packet size must be nonzero");
        let m = self.raw_packets(packet_size);
        let mut contents = vec![0.0; m];
        let mut offset = 0usize;
        for s in &self.slices {
            if s.bytes == 0 {
                continue;
            }
            let density = s.content / s.bytes as f64;
            let start = offset;
            let end = offset + s.bytes;
            let first = start / packet_size;
            let last = (end - 1) / packet_size;
            for (p, slot) in contents.iter_mut().enumerate().take(last + 1).skip(first) {
                let lo = start.max(p * packet_size);
                let hi = end.min((p + 1) * packet_size);
                *slot += density * (hi - lo) as f64;
            }
            offset = end;
        }
        contents
    }

    /// The byte range each slice occupies in the transmission stream,
    /// in transmission order.
    pub fn slice_ranges(&self) -> Vec<std::ops::Range<usize>> {
        let mut out = Vec::with_capacity(self.slices.len());
        let mut offset = 0usize;
        for s in &self.slices {
            out.push(offset..offset + s.bytes);
            offset += s.bytes;
        }
        out
    }
}

/// Builds the plan *and* the permuted payload bytes for a real document.
///
/// Partitions the document at `lod`; each partition becomes a slice
/// whose bytes are the partition's text and whose content is its
/// subtree score under `measure` from the structural characteristic.
/// At [`Lod::Document`] the order is sequential (the conventional
/// paradigm); at finer LODs the slices are ranked by descending content.
///
/// Returns the plan together with the payload laid out in transmission
/// order. This is [`PlanLayout::new`] then [`PlanLayout::plan`]; a
/// caller that plans one document under many queries keeps the layout.
pub fn plan_document(
    doc: &Document,
    sc: &StructuralCharacteristic,
    lod: Lod,
    measure: Measure,
) -> (TransmissionPlan, Vec<u8>) {
    PlanLayout::new(doc, lod).plan(sc, measure)
}

/// The half of [`plan_document`] that no query changes, for one
/// document at one LOD: the partition's texts in one buffer, and each
/// slice's label, byte range and structural-characteristic rows.
/// [`PlanLayout::plan`] then scores, ranks and gathers the slices under
/// one SC.
#[derive(Debug, Clone)]
pub struct PlanLayout {
    lod: Lod,
    /// The partitions' texts back to back, in document order.
    text: Vec<u8>,
    slices: Vec<LayoutSlice>,
    /// Every unit's path in preorder: the rows, in order, of an SC
    /// built from this document's index.
    paths: Vec<UnitPath>,
}

/// One partition of a [`PlanLayout`].
#[derive(Debug, Clone)]
struct LayoutSlice {
    label: String,
    /// The slice's bytes within [`PlanLayout::text`].
    range: Range<usize>,
    /// The unit's preorder row.
    row: usize,
    /// For an interior unit sent for its own text only, the rows of its
    /// direct children in preorder, whose share its content excludes;
    /// empty for a whole subtree.
    children: Vec<usize>,
}

impl PlanLayout {
    /// Partitions `doc` at `lod` and lays out the partitions' texts.
    pub fn new(doc: &Document, lod: Lod) -> Self {
        let mut paths = Vec::with_capacity(doc.unit_count());
        doc.root().walk(&mut UnitPath::root(), &mut |path, _| {
            paths.push(path.clone());
        });
        // The content plus a separator or two per unit, allocated once
        // rather than grown by doubling: `plan_document` builds a
        // layout on every call.
        let mut text = String::with_capacity(doc.content_len() + 2 * doc.unit_count());
        let slices = doc
            .partition_at(lod)
            .into_iter()
            .map(|p| {
                // An interior node emitted for its own text only (it has
                // children that were partitioned separately) contributes
                // its own bytes; a subtree partition contributes
                // everything.
                let own_only = p.unit.kind() < lod && !p.unit.children().is_empty();
                let start = text.len();
                if own_only {
                    let (title, own) = (p.unit.title().unwrap_or(""), p.unit.own_text());
                    text.push_str(title);
                    if !title.is_empty() && !own.is_empty() {
                        text.push('\n');
                    }
                    text.push_str(&own);
                } else {
                    text.push_str(&p.unit.full_text());
                }
                // Preorder is lexicographic path order, and a partition
                // is a unit, so the search finds it.
                let (Ok(row) | Err(row)) = paths.binary_search(&p.path);
                // Each child's subtree fills the rows up to the next child.
                let mut next = row + 1;
                let children = if own_only {
                    let rows = p.unit.children().iter().map(|c| {
                        let at = next;
                        next += c.count();
                        at
                    });
                    rows.collect()
                } else {
                    Vec::new()
                };
                LayoutSlice {
                    label: p.path.to_string(),
                    range: start..text.len(),
                    row,
                    children,
                }
            })
            .collect();
        PlanLayout {
            lod,
            text: text.into_bytes(),
            slices,
            paths,
        }
    }

    /// The plan and payload under `sc`, ordered by `measure`: each
    /// slice's content is its row's value (for an interior unit's own
    /// text, the row's value less its children's, floored at 0); the
    /// slices are ranked by descending content, stably, except at
    /// [`Lod::Document`]; then the payload is gathered in that order.
    ///
    /// An SC whose rows are not this document's, in preorder, is read
    /// by path instead, and a path it lacks carries no content.
    pub fn plan(
        &self,
        sc: &StructuralCharacteristic,
        measure: Measure,
    ) -> (TransmissionPlan, Vec<u8>) {
        let rows = sc.entries();
        let lined_up = rows.len() == self.paths.len()
            && rows.iter().zip(&self.paths).all(|(e, p)| &e.path == p);
        let value = |e: &ScEntry| StructuralCharacteristic::value(e, measure);
        let contents: Vec<f64> = self
            .slices
            .iter()
            .map(|s| {
                let path = &self.paths[s.row];
                let entry = if lined_up {
                    rows.get(s.row)
                } else {
                    sc.entry_at(path)
                };
                let Some(entry) = entry else {
                    return 0.0;
                };
                if s.children.is_empty() {
                    return value(entry);
                }
                // Subtract the children's share: own = subtree − Σ child subtrees.
                let child_sum: f64 = if lined_up {
                    s.children.iter().map(|&c| value(&rows[c])).sum()
                } else {
                    rows.iter()
                        .filter(|c| {
                            path.is_prefix_of(&c.path) && c.path.depth() == path.depth() + 1
                        })
                        .map(value)
                        .sum()
                };
                (value(entry) - child_sum).max(0.0)
            })
            .collect();
        let mut order: Vec<usize> = (0..self.slices.len()).collect();
        if self.lod != Lod::Document {
            order.sort_by(|&a, &b| contents[b].total_cmp(&contents[a]));
        }
        let mut payload = Vec::with_capacity(self.text.len());
        let slices = order
            .into_iter()
            .map(|i| {
                let s = &self.slices[i];
                payload.extend_from_slice(&self.text[s.range.clone()]);
                UnitSlice::new(s.label.clone(), s.range.len(), contents[i])
            })
            .collect();
        (TransmissionPlan::sequential(slices), payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrtweb_content::query::Query;
    use mrtweb_textproc::pipeline::ScPipeline;

    #[test]
    fn ranked_sorts_descending_stable() {
        let plan = TransmissionPlan::ranked(vec![
            UnitSlice::new("a", 10, 0.3),
            UnitSlice::new("b", 10, 0.5),
            UnitSlice::new("c", 10, 0.3),
        ]);
        let labels: Vec<&str> = plan.slices().iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["b", "a", "c"]);
    }

    #[test]
    fn packet_contents_sum_to_total() {
        let plan = TransmissionPlan::ranked(vec![
            UnitSlice::new("a", 130, 0.4),
            UnitSlice::new("b", 70, 0.35),
            UnitSlice::new("c", 300, 0.25),
        ]);
        for sp in [1usize, 7, 64, 256, 1000] {
            let pc = plan.packet_contents(sp);
            assert_eq!(pc.len(), plan.raw_packets(sp));
            let sum: f64 = pc.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "sp={sp}: sum {sum}");
        }
    }

    #[test]
    fn packet_contents_follow_slice_order() {
        let plan = TransmissionPlan::sequential(vec![
            UnitSlice::new("hot", 100, 0.9),
            UnitSlice::new("cold", 100, 0.1),
        ]);
        let pc = plan.packet_contents(50);
        assert_eq!(pc.len(), 4);
        assert!((pc[0] - 0.45).abs() < 1e-12);
        assert!((pc[3] - 0.05).abs() < 1e-12);
    }

    #[test]
    fn packet_straddling_slices() {
        let plan = TransmissionPlan::sequential(vec![
            UnitSlice::new("a", 30, 0.3),
            UnitSlice::new("b", 30, 0.6),
        ]);
        // sp=40: packet 0 = 30 bytes of a (0.3) + 10 bytes of b (0.2).
        let pc = plan.packet_contents(40);
        assert_eq!(pc.len(), 2);
        assert!((pc[0] - 0.5).abs() < 1e-12);
        assert!((pc[1] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn raw_packets_matches_table2() {
        let plan = TransmissionPlan::sequential(vec![UnitSlice::new("doc", 10240, 1.0)]);
        assert_eq!(plan.raw_packets(256), 40);
    }

    #[test]
    fn empty_plan_is_one_packet() {
        let plan = TransmissionPlan::sequential(Vec::new());
        assert_eq!(plan.raw_packets(256), 1);
        assert_eq!(plan.packet_contents(256), vec![0.0]);
    }

    #[test]
    fn zero_byte_slices_are_skipped() {
        let plan = TransmissionPlan::sequential(vec![
            UnitSlice::new("empty", 0, 0.0),
            UnitSlice::new("real", 10, 1.0),
        ]);
        let pc = plan.packet_contents(10);
        assert!((pc[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slice_ranges_are_contiguous() {
        let plan = TransmissionPlan::sequential(vec![
            UnitSlice::new("a", 5, 0.5),
            UnitSlice::new("b", 7, 0.5),
        ]);
        let r = plan.slice_ranges();
        assert_eq!(r, vec![0..5, 5..12]);
    }

    fn real_doc() -> (Document, StructuralCharacteristic) {
        let doc = Document::parse_xml(
            "<document>\
             <section><title>Hot</title><paragraph>mobile web mobile web mobile</paragraph></section>\
             <section><title>Cold</title><paragraph>miscellaneous filler prose</paragraph></section>\
             </document>",
        )
        .unwrap();
        let pipeline = ScPipeline::default();
        let idx = pipeline.run(&doc);
        let q = Query::parse("mobile web", &pipeline);
        let sc = StructuralCharacteristic::from_index(&idx, Some(&q));
        (doc, sc)
    }

    #[test]
    fn plan_document_at_document_lod_is_sequential() {
        let (doc, sc) = real_doc();
        let (plan, payload) = plan_document(&doc, &sc, Lod::Document, Measure::Qic);
        assert_eq!(plan.slices().len(), 1);
        assert_eq!(payload.len(), plan.total_bytes());
        assert!(String::from_utf8(payload).unwrap().contains("Hot"));
    }

    #[test]
    fn plan_document_at_section_lod_ranks_by_qic() {
        let (doc, sc) = real_doc();
        let (plan, payload) = plan_document(&doc, &sc, Lod::Section, Measure::Qic);
        // The query-matching "Hot" section must come first.
        assert_eq!(plan.slices()[0].label, "0");
        let text = String::from_utf8(payload).unwrap();
        assert!(text.find("Hot").unwrap() < text.find("Cold").unwrap());
        // Separator newlines may add a few bytes over the raw content.
        assert!(plan.total_bytes() >= doc.content_len());
        assert!(plan.total_bytes() <= doc.content_len() + doc.unit_count() * 2);
    }

    #[test]
    fn plan_document_content_sums_to_sc_total() {
        let (doc, sc) = real_doc();
        for lod in [Lod::Document, Lod::Section, Lod::Subsection, Lod::Paragraph] {
            let (plan, payload) = plan_document(&doc, &sc, lod, Measure::Qic);
            assert!((plan.total_content() - 1.0).abs() < 1e-9, "lod {lod}");
            assert_eq!(payload.len(), plan.total_bytes(), "lod {lod}");
        }
    }

    #[test]
    fn payload_bytes_identical_across_lods_as_multiset() {
        // The permutation must not lose or duplicate document text.
        let (doc, sc) = real_doc();
        let (_, seq) = plan_document(&doc, &sc, Lod::Document, Measure::Ic);
        let (_, ranked) = plan_document(&doc, &sc, Lod::Paragraph, Measure::Ic);
        let a = seq.clone();
        let b = ranked.clone();
        // Same byte multiset modulo the newline separators; compare
        // non-whitespace content.
        let clean = |v: &[u8]| {
            let mut c: Vec<u8> = v
                .iter()
                .copied()
                .filter(|b| !b.is_ascii_whitespace())
                .collect();
            c.sort_unstable();
            c
        };
        assert_eq!(clean(&a), clean(&b));
    }
}
