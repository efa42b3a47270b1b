//! Structural validation — a DTD-lite for the `research-paper` type.
//!
//! The paper assumes documents conform to "an XML DTD for document type
//! research-paper" (§3). Full DTD grammars are out of scope (as they are
//! in the paper's prototype), but a publisher-side gateway still wants
//! to *lint* incoming documents before indexing them. [`validate`]
//! checks the structural conventions the rest of the stack relies on and
//! reports every violation with the unit's path.

use crate::document::Document;
use crate::lod::Lod;
use crate::unit::{Unit, UnitPath};

/// A single structural complaint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Path of the offending unit.
    pub path: String,
    /// What is wrong.
    pub kind: ViolationKind,
}

/// The kinds of structural problems the validator reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    /// A child is at the same or a coarser LOD than its parent
    /// (e.g. a section inside a paragraph).
    NonDescendingLevel {
        /// Parent LOD.
        parent: Lod,
        /// Child LOD.
        child: Lod,
    },
    /// A structural level was skipped without normalization (e.g. a
    /// paragraph directly under the document root).
    SkippedLevel {
        /// Parent LOD.
        parent: Lod,
        /// Child LOD.
        child: Lod,
    },
    /// A paragraph has child units.
    ParagraphWithChildren,
    /// A non-paragraph unit carries body text of its own (titles are
    /// fine; body text should live in paragraphs for clean LOD slicing).
    InteriorBodyText,
    /// A unit is completely empty (no title, no text, no children).
    EmptyUnit,
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViolationKind::NonDescendingLevel { parent, child } => {
                write!(f, "{child} nested inside {parent}")
            }
            ViolationKind::SkippedLevel { parent, child } => {
                write!(f, "{child} directly under {parent} (level skipped)")
            }
            ViolationKind::ParagraphWithChildren => write!(f, "paragraph has child units"),
            ViolationKind::InteriorBodyText => {
                write!(f, "interior unit carries body text outside any paragraph")
            }
            ViolationKind::EmptyUnit => write!(f, "unit is completely empty"),
        }
    }
}

/// Severity the caller may choose to enforce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strictness {
    /// Report only violations that break LOD semantics
    /// (non-descending levels, paragraphs with children).
    Lenient,
    /// Additionally report skipped levels, interior body text and empty
    /// units — everything [`crate::unit::Unit::normalize`] papers over.
    Strict,
}

fn is_hard(kind: &ViolationKind) -> bool {
    matches!(
        kind,
        ViolationKind::NonDescendingLevel { .. } | ViolationKind::ParagraphWithChildren
    )
}

/// Validates a document's unit structure.
///
/// Documents produced by the parser (which normalizes) pass `Strict`;
/// hand-built trees may not.
///
/// # Example
///
/// ```
/// use mrtweb_docmodel::document::Document;
/// use mrtweb_docmodel::validate::{validate, Strictness};
///
/// # fn main() -> Result<(), mrtweb_docmodel::xml::ParseError> {
/// let doc = Document::parse_xml(
///     "<document><section><title>S</title>\
///      <paragraph>text</paragraph></section></document>")?;
/// assert!(validate(&doc, Strictness::Strict).is_empty());
/// # Ok(())
/// # }
/// ```
pub fn validate(doc: &Document, strictness: Strictness) -> Vec<Violation> {
    let mut out = Vec::new();
    walk(doc.root(), &mut UnitPath::root(), &mut out);
    if strictness == Strictness::Lenient {
        out.retain(|v| is_hard(&v.kind));
    }
    out
}

fn walk(unit: &Unit, path: &mut UnitPath, out: &mut Vec<Violation>) {
    let mut push = |kind: ViolationKind, p: &UnitPath| {
        out.push(Violation {
            path: p.to_string(),
            kind,
        });
    };
    if unit.kind() == Lod::Paragraph && !unit.children().is_empty() {
        push(ViolationKind::ParagraphWithChildren, path);
    }
    if unit.kind() != Lod::Paragraph && !unit.runs().is_empty() {
        push(ViolationKind::InteriorBodyText, path);
    }
    if unit.is_empty() && !path.is_root() {
        push(ViolationKind::EmptyUnit, path);
    }
    for (i, child) in unit.children().iter().enumerate() {
        path.push(i);
        if child.kind() <= unit.kind() {
            out.push(Violation {
                path: path.to_string(),
                kind: ViolationKind::NonDescendingLevel {
                    parent: unit.kind(),
                    child: child.kind(),
                },
            });
        } else if child.kind().depth() > unit.kind().depth() + 1
            && !(unit.kind() == Lod::Subsection && child.kind() == Lod::Paragraph)
        {
            // Subsection → paragraph is the conventional shape
            // (subsubsections are optional); anything else that skips a
            // level is suspicious.
            out.push(Violation {
                path: path.to_string(),
                kind: ViolationKind::SkippedLevel {
                    parent: unit.kind(),
                    child: child.kind(),
                },
            });
        }
        walk(child, path, out);
        path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::Inline;

    fn p(text: &str) -> Unit {
        let mut u = Unit::new(Lod::Paragraph);
        u.push_run(Inline::plain(text));
        u
    }

    #[test]
    fn parsed_documents_validate_strictly() {
        let doc = Document::parse_xml(
            "<document><title>T</title>\
             <section><title>S</title><subsection>\
             <paragraph>body</paragraph></subsection></section></document>",
        )
        .unwrap();
        assert!(validate(&doc, Strictness::Strict).is_empty());
    }

    #[test]
    fn normalized_stray_paragraphs_also_validate() {
        // The parser wraps strays in virtual units, so even odd input
        // ends up strictly valid.
        let doc = Document::parse_xml(
            "<document><section><paragraph>stray</paragraph></section></document>",
        )
        .unwrap();
        assert!(validate(&doc, Strictness::Strict).is_empty());
    }

    #[test]
    fn paragraph_with_children_is_hard_violation() {
        let mut para = p("parent text");
        para.push_child(p("child"));
        let mut sec = Unit::new(Lod::Section);
        let mut sub = Unit::new(Lod::Subsection);
        sub.push_child(para);
        sec.push_child(sub);
        let mut root = Unit::new(Lod::Document);
        root.push_child(sec);
        // Build without Document::from_root to dodge normalization.
        let doc = Document::from_root(root);
        // from_root normalizes, but normalization never removes a
        // paragraph's children — the violation survives.
        let v = validate(&doc, Strictness::Lenient);
        assert!(
            v.iter()
                .any(|v| v.kind == ViolationKind::ParagraphWithChildren),
            "violations: {v:?}"
        );
    }

    #[test]
    fn interior_body_text_is_strict_only() {
        let mut sec = Unit::new(Lod::Section).with_title("S");
        sec.push_run(Inline::plain("text sitting directly in the section"));
        let mut sub = Unit::new(Lod::Subsection);
        sub.push_child(p("fine"));
        sec.push_child(sub);
        let mut root = Unit::new(Lod::Document);
        root.push_child(sec);
        let doc = Document::from_root(root);
        assert!(validate(&doc, Strictness::Lenient).is_empty());
        let strict = validate(&doc, Strictness::Strict);
        assert!(strict
            .iter()
            .any(|v| v.kind == ViolationKind::InteriorBodyText));
    }

    #[test]
    fn empty_units_reported_strictly() {
        let mut root = Unit::new(Lod::Document);
        root.push_child(Unit::new(Lod::Section));
        let doc = Document::from_root(root);
        let strict = validate(&doc, Strictness::Strict);
        assert!(strict.iter().any(|v| v.kind == ViolationKind::EmptyUnit));
    }

    #[test]
    fn violation_paths_locate_the_offender() {
        let mut sub = Unit::new(Lod::Subsection);
        let mut bad_para = p("x");
        bad_para.push_child(p("nested"));
        sub.push_child(bad_para);
        let mut sec = Unit::new(Lod::Section);
        sec.push_child(sub);
        let mut root = Unit::new(Lod::Document);
        root.push_child(sec);
        let doc = Document::from_root(root);
        let v = validate(&doc, Strictness::Lenient);
        let hit = v
            .iter()
            .find(|v| v.kind == ViolationKind::ParagraphWithChildren)
            .unwrap();
        assert_eq!(hit.path, "0.0.0");
    }

    #[test]
    fn display_is_informative() {
        let k = ViolationKind::NonDescendingLevel {
            parent: Lod::Paragraph,
            child: Lod::Section,
        };
        assert_eq!(k.to_string(), "section nested inside paragraph");
    }
}
