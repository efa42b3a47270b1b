//! Organizational units — the nodes of a document's LOD tree.
//!
//! A document "is partitioned into multiple organizational units at
//! various levels of detail according to its XML structure" (§1). Units
//! form a tree: the document contains sections, sections contain
//! subsections, and so on down to paragraphs, which carry the actual
//! text as [`Inline`] runs (a run may be *emphasized* — boldface or
//! italics — which the keyword extractor treats as keyword-qualifying,
//! §3.3).
//!
//! [`UnitPath`] reproduces the `3.2.1`-style labels of the paper's
//! Table 1, and [`Unit::partition_at`] computes the disjoint cover of a
//! document at a chosen LOD that the transmitter ranks and sends.

use std::fmt;

use crate::lod::Lod;

/// A run of text within a unit, possibly specially formatted.
///
/// The paper's keyword extractor gives specially formatted words
/// (boldfaced, italicized) automatic keyword status; the parser
/// preserves that signal here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inline {
    /// The text of the run.
    pub text: String,
    /// Whether the run was specially formatted (bold/italic/emphasis).
    pub emphasized: bool,
}

impl Inline {
    /// A plain (non-emphasized) run.
    pub fn plain(text: impl Into<String>) -> Self {
        Inline {
            text: text.into(),
            emphasized: false,
        }
    }

    /// An emphasized run.
    pub fn emphasized(text: impl Into<String>) -> Self {
        Inline {
            text: text.into(),
            emphasized: true,
        }
    }
}

/// An organizational unit: a node of the document tree.
///
/// # Example
///
/// ```
/// use mrtweb_docmodel::unit::{Inline, Unit};
/// use mrtweb_docmodel::lod::Lod;
///
/// let mut section = Unit::new(Lod::Section).with_title("Introduction");
/// let mut para = Unit::new(Lod::Paragraph);
/// para.push_run(Inline::plain("Mobile environments are weakly connected."));
/// section.push_child(para);
/// assert_eq!(section.units_at(Lod::Paragraph).len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unit {
    kind: Lod,
    title: Option<String>,
    runs: Vec<Inline>,
    children: Vec<Unit>,
    synthetic: bool,
}

impl Unit {
    /// Creates an empty unit of the given kind.
    pub fn new(kind: Lod) -> Self {
        Unit {
            kind,
            title: None,
            runs: Vec::new(),
            children: Vec::new(),
            synthetic: false,
        }
    }

    /// Builder-style title setter.
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Marks the unit as synthetic (a "virtual subsection" grouping
    /// stray paragraphs, per the paper's Table 1 `x.0` rows).
    pub fn with_synthetic(mut self, synthetic: bool) -> Self {
        self.synthetic = synthetic;
        self
    }

    /// The unit's level of detail.
    pub fn kind(&self) -> Lod {
        self.kind
    }

    /// The unit's title, if any.
    pub fn title(&self) -> Option<&str> {
        self.title.as_deref()
    }

    /// Sets or clears the title.
    pub fn set_title(&mut self, title: Option<String>) {
        self.title = title;
    }

    /// Whether this unit was synthesized during normalization rather
    /// than present in the source markup.
    pub fn is_synthetic(&self) -> bool {
        self.synthetic
    }

    /// The unit's own text runs (excluding children).
    pub fn runs(&self) -> &[Inline] {
        &self.runs
    }

    /// Appends a text run to this unit.
    pub fn push_run(&mut self, run: Inline) {
        self.runs.push(run);
    }

    /// Child units.
    pub fn children(&self) -> &[Unit] {
        &self.children
    }

    /// Appends a child unit.
    pub fn push_child(&mut self, child: Unit) {
        self.children.push(child);
    }

    /// `true` if the unit has neither runs nor children nor a title.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty() && self.children.is_empty() && self.title.is_none()
    }

    /// The unit's own text (runs only, no children), space-joined.
    pub fn own_text(&self) -> String {
        let mut out = String::new();
        for run in &self.runs {
            if !out.is_empty() && !out.ends_with(char::is_whitespace) {
                out.push(' ');
            }
            out.push_str(&run.text);
        }
        out
    }

    /// Full text of the subtree: title, own runs, then children,
    /// newline-separated.
    pub fn full_text(&self) -> String {
        let mut out = String::new();
        self.collect_text(&mut out);
        out
    }

    fn collect_text(&self, out: &mut String) {
        if let Some(t) = &self.title {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(t);
        }
        let own = self.own_text();
        if !own.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&own);
        }
        for c in &self.children {
            c.collect_text(out);
        }
    }

    /// Number of content bytes in the subtree (title + runs of every
    /// descendant). This is the unit's transmission size.
    pub fn content_len(&self) -> usize {
        let own: usize = self.title.as_ref().map_or(0, std::string::String::len)
            + self.runs.iter().map(|r| r.text.len()).sum::<usize>();
        own + self.children.iter().map(Unit::content_len).sum::<usize>()
    }

    /// Total number of units in the subtree, including `self`.
    pub fn count(&self) -> usize {
        1 + self.children.iter().map(Unit::count).sum::<usize>()
    }

    /// All descendant units (including `self`) whose kind equals `lod`,
    /// with their paths relative to `self`.
    pub fn units_at(&self, lod: Lod) -> Vec<UnitRef<'_>> {
        let mut out = Vec::new();
        self.walk(&mut UnitPath::root(), &mut |path, unit| {
            if unit.kind == lod {
                out.push(UnitRef {
                    path: path.clone(),
                    unit,
                });
            }
        });
        out
    }

    /// Disjoint cover of the subtree at `lod`: descends the tree and
    /// emits each node that *is* at `lod`, or a leaf coarser than `lod`
    /// (a section with no subsections is its own partition when
    /// partitioning at subsection level). The emitted subtrees cover
    /// every byte of the document exactly once.
    pub fn partition_at(&self, lod: Lod) -> Vec<UnitRef<'_>> {
        let mut out = Vec::new();
        self.partition_walk(&mut UnitPath::root(), lod, &mut out);
        out
    }

    fn partition_walk<'a>(&'a self, path: &mut UnitPath, lod: Lod, out: &mut Vec<UnitRef<'a>>) {
        if self.kind >= lod || self.children.is_empty() {
            out.push(UnitRef {
                path: path.clone(),
                unit: self,
            });
            return;
        }
        // Titles and stray runs of an interior node ride with its first
        // partition child conceptually; partitioning treats the node's
        // own bytes as belonging to a zero-length pseudo-unit only if it
        // has no children, which cannot happen on this branch. To avoid
        // losing the coarser node's own text, emit it as its own slice
        // when nonempty.
        if self.title.is_some() || !self.runs.is_empty() {
            out.push(UnitRef {
                path: path.clone(),
                unit: self,
            });
        }
        for (i, c) in self.children.iter().enumerate() {
            path.push(i);
            c.partition_walk(path, lod, out);
            path.pop();
        }
    }

    /// Depth-first walk with paths; `f` is called for every unit
    /// including `self` (whose path is the empty root path).
    pub fn walk<'a>(&'a self, path: &mut UnitPath, f: &mut impl FnMut(&UnitPath, &'a Unit)) {
        f(path, self);
        for (i, c) in self.children.iter().enumerate() {
            path.push(i);
            c.walk(path, f);
            path.pop();
        }
    }

    /// Looks up a descendant by path; the empty path returns `self`.
    pub fn at_path(&self, path: &UnitPath) -> Option<&Unit> {
        let mut cur = self;
        for &i in &path.0 {
            cur = cur.children.get(i)?;
        }
        Some(cur)
    }

    /// Normalizes the tree so every paragraph sits under a unit exactly
    /// one level coarser, inserting *virtual* (synthetic) units where
    /// the source skipped levels — the paper's "paragraphs not belonging
    /// to any subsection are grouped under a virtual subsection".
    ///
    /// Each maximal run of too-fine children is wrapped in one synthetic
    /// unit of the expected child level; nesting applies recursively, so
    /// a paragraph directly under a section ends up inside a synthetic
    /// subsection (not a synthetic subsubsection chain): partitioning at
    /// any LOD still terminates at the paragraph itself.
    pub fn normalize(&mut self) {
        self.merge_runs();
        if self.children.is_empty() {
            return;
        }
        // Documents must contain sections and sections must contain
        // subsections (Table 1 shows a lone virtual subsection `4.0`
        // even when section 4 has no real subsections). Subsubsections
        // are optional: paragraphs may sit directly under a subsection
        // unless real subsubsections are present alongside them.
        let expected = match self.kind {
            Lod::Document => Some(Lod::Section),
            Lod::Section => Some(Lod::Subsection),
            Lod::Subsection => {
                if self.children.iter().any(|c| c.kind == Lod::Subsubsection) {
                    Some(Lod::Subsubsection)
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some(expected) = expected {
            let mut new_children: Vec<Unit> = Vec::with_capacity(self.children.len());
            let mut pending: Vec<Unit> = Vec::new();
            for child in self.children.drain(..) {
                if child.kind > expected {
                    pending.push(child);
                } else {
                    if !pending.is_empty() {
                        new_children
                            .push(Self::wrap_synthetic(expected, std::mem::take(&mut pending)));
                    }
                    new_children.push(child);
                }
            }
            if !pending.is_empty() {
                new_children.push(Self::wrap_synthetic(expected, pending));
            }
            self.children = new_children;
        }
        for c in &mut self.children {
            c.normalize();
        }
    }

    /// Merges adjacent runs with equal emphasis (space-joined) and drops
    /// empty runs, putting the run list in canonical form so that
    /// serialize→parse is the identity.
    fn merge_runs(&mut self) {
        let mut merged: Vec<Inline> = Vec::with_capacity(self.runs.len());
        for run in self.runs.drain(..) {
            if run.text.is_empty() {
                continue;
            }
            match merged.last_mut() {
                Some(prev) if prev.emphasized == run.emphasized => {
                    prev.text.push(' ');
                    prev.text.push_str(&run.text);
                }
                _ => merged.push(run),
            }
        }
        self.runs = merged;
    }

    fn wrap_synthetic(kind: Lod, children: Vec<Unit>) -> Unit {
        // Deeper strays (a paragraph directly under the document) are
        // handled by the recursive normalize() pass on the wrapper.
        let mut wrapper = Unit::new(kind).with_synthetic(true);
        wrapper.children = children;
        wrapper
    }
}

/// A path of child indices from the document root to a unit.
///
/// Rendered in the paper's Table 1 style: section 3, subsection 2,
/// paragraph 1 displays as `3.2.1`; the root displays as `*`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct UnitPath(Vec<usize>);

impl UnitPath {
    /// The empty path (the document root).
    pub fn root() -> Self {
        UnitPath(Vec::new())
    }

    /// Builds a path from indices.
    pub fn from_indices(indices: impl IntoIterator<Item = usize>) -> Self {
        UnitPath(indices.into_iter().collect())
    }

    /// The child indices.
    pub fn indices(&self) -> &[usize] {
        &self.0
    }

    /// Path depth (0 for the root).
    pub fn depth(&self) -> usize {
        self.0.len()
    }

    /// Whether this is the root path.
    pub fn is_root(&self) -> bool {
        self.0.is_empty()
    }

    /// Appends a child index.
    pub fn push(&mut self, i: usize) {
        self.0.push(i);
    }

    /// Removes the last index.
    pub fn pop(&mut self) -> Option<usize> {
        self.0.pop()
    }

    /// Whether `self` is an ancestor of (or equal to) `other`.
    pub fn is_prefix_of(&self, other: &UnitPath) -> bool {
        other.0.len() >= self.0.len() && other.0[..self.0.len()] == self.0[..]
    }
}

impl fmt::Display for UnitPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_empty() {
            return f.write_str("*");
        }
        for (i, idx) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            write!(f, "{idx}")?;
        }
        Ok(())
    }
}

/// A borrowed unit together with its path from the root.
#[derive(Debug, Clone)]
pub struct UnitRef<'a> {
    /// Path from the root to the unit.
    pub path: UnitPath,
    /// The unit itself.
    pub unit: &'a Unit,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> Unit {
        // document
        // ├── section "Abstract" (para)
        // └── section "Body"
        //     ├── paragraph (stray)
        //     └── subsection "Sub"
        //         └── paragraph
        let mut doc = Unit::new(Lod::Document).with_title("Paper");
        let mut s0 = Unit::new(Lod::Section).with_title("Abstract");
        let mut p0 = Unit::new(Lod::Paragraph);
        p0.push_run(Inline::plain("summary text"));
        s0.push_child(p0);
        let mut s1 = Unit::new(Lod::Section).with_title("Body");
        let mut stray = Unit::new(Lod::Paragraph);
        stray.push_run(Inline::plain("lead-in"));
        s1.push_child(stray);
        let mut sub = Unit::new(Lod::Subsection).with_title("Sub");
        let mut p1 = Unit::new(Lod::Paragraph);
        p1.push_run(Inline::emphasized("important"));
        p1.push_run(Inline::plain("detail"));
        sub.push_child(p1);
        s1.push_child(sub);
        doc.push_child(s0);
        doc.push_child(s1);
        doc
    }

    #[test]
    fn units_at_counts() {
        let doc = sample_doc();
        assert_eq!(doc.units_at(Lod::Document).len(), 1);
        assert_eq!(doc.units_at(Lod::Section).len(), 2);
        assert_eq!(doc.units_at(Lod::Subsection).len(), 1);
        assert_eq!(doc.units_at(Lod::Paragraph).len(), 3);
    }

    #[test]
    fn paths_render_like_table1() {
        let doc = sample_doc();
        let paras = doc.units_at(Lod::Paragraph);
        let labels: Vec<String> = paras.iter().map(|r| r.path.to_string()).collect();
        assert_eq!(labels, vec!["0.0", "1.0", "1.1.0"]);
        assert_eq!(UnitPath::root().to_string(), "*");
    }

    #[test]
    fn at_path_round_trips_walk() {
        let doc = sample_doc();
        doc.clone().walk(&mut UnitPath::root(), &mut |path, unit| {
            let found = doc.at_path(path).expect("path must resolve");
            assert_eq!(found.kind(), unit.kind());
            assert_eq!(found.title(), unit.title());
        });
    }

    #[test]
    fn full_text_concatenates_in_order() {
        let doc = sample_doc();
        let text = doc.full_text();
        let i1 = text.find("summary text").unwrap();
        let i2 = text.find("lead-in").unwrap();
        let i3 = text.find("important detail").unwrap();
        assert!(i1 < i2 && i2 < i3);
        assert!(text.starts_with("Paper"));
    }

    #[test]
    fn content_len_is_additive() {
        let doc = sample_doc();
        let children_sum: usize = doc.children().iter().map(Unit::content_len).sum();
        assert_eq!(doc.content_len(), children_sum + "Paper".len());
    }

    #[test]
    fn partition_at_section_covers_document() {
        let doc = sample_doc();
        let parts = doc.partition_at(Lod::Section);
        // Document has a title so it contributes its own slice too.
        let total: usize = parts
            .iter()
            .map(|r| {
                if r.path.is_root() {
                    // Root emitted for its own title only.
                    "Paper".len()
                } else {
                    r.unit.content_len()
                }
            })
            .sum();
        assert_eq!(total, doc.content_len());
    }

    #[test]
    fn partition_at_paragraph_hits_leaves() {
        let doc = sample_doc();
        let parts = doc.partition_at(Lod::Paragraph);
        let para_parts: Vec<_> = parts
            .iter()
            .filter(|r| r.unit.kind() == Lod::Paragraph)
            .collect();
        assert_eq!(para_parts.len(), 3);
    }

    #[test]
    fn partition_of_childless_section_emits_section() {
        let mut doc = Unit::new(Lod::Document);
        doc.push_child(Unit::new(Lod::Section).with_title("Empty"));
        let parts = doc.partition_at(Lod::Paragraph);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].unit.kind(), Lod::Section);
    }

    #[test]
    fn normalize_wraps_stray_paragraphs() {
        let mut doc = sample_doc();
        doc.normalize();
        // The stray paragraph under section 1 now sits in a synthetic
        // subsection at index 0 (Table 1's "x.0" convention).
        let s1 = &doc.children()[1];
        assert_eq!(s1.children()[0].kind(), Lod::Subsection);
        assert!(s1.children()[0].is_synthetic());
        assert_eq!(s1.children()[1].kind(), Lod::Subsection);
        assert!(!s1.children()[1].is_synthetic());
        // Content is preserved.
        assert_eq!(doc.full_text(), sample_doc().full_text());
    }

    #[test]
    fn normalize_handles_paragraph_under_document() {
        let mut doc = Unit::new(Lod::Document);
        let mut p = Unit::new(Lod::Paragraph);
        p.push_run(Inline::plain("floating"));
        doc.push_child(p);
        doc.normalize();
        // paragraph -> synthetic section -> synthetic subsection -> paragraph
        let sec = &doc.children()[0];
        assert_eq!(sec.kind(), Lod::Section);
        assert!(sec.is_synthetic());
        let sub = &sec.children()[0];
        assert_eq!(sub.kind(), Lod::Subsection);
        assert!(sub.is_synthetic());
        assert_eq!(sub.children()[0].kind(), Lod::Paragraph);
        assert_eq!(doc.full_text(), "floating");
    }

    #[test]
    fn normalize_groups_runs_not_single_units() {
        // Two stray paragraphs then a real subsection then another stray:
        // strays group into synthetic units per maximal run.
        let mut sec = Unit::new(Lod::Section);
        for text in ["a", "b"] {
            let mut p = Unit::new(Lod::Paragraph);
            p.push_run(Inline::plain(text));
            sec.push_child(p);
        }
        sec.push_child(Unit::new(Lod::Subsection).with_title("Real"));
        let mut p = Unit::new(Lod::Paragraph);
        p.push_run(Inline::plain("c"));
        sec.push_child(p);
        sec.normalize();
        assert_eq!(sec.children().len(), 3);
        assert!(sec.children()[0].is_synthetic());
        assert_eq!(sec.children()[0].children().len(), 2);
        assert!(!sec.children()[1].is_synthetic());
        assert!(sec.children()[2].is_synthetic());
    }

    #[test]
    fn unit_path_prefix() {
        let a = UnitPath::from_indices([1, 2]);
        let b = UnitPath::from_indices([1, 2, 3]);
        assert!(a.is_prefix_of(&b));
        assert!(!b.is_prefix_of(&a));
        assert!(UnitPath::root().is_prefix_of(&a));
    }

    #[test]
    fn empty_unit_reports_empty() {
        assert!(Unit::new(Lod::Paragraph).is_empty());
        assert!(!Unit::new(Lod::Paragraph).with_title("t").is_empty());
    }
}
