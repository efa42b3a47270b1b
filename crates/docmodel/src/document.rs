//! The document type: a unit tree plus identity metadata.

use crate::lod::Lod;
use crate::unit::{Unit, UnitRef};
use crate::xml::{self, ParseError, Schema};

/// A web document modeled as a tree of organizational units.
///
/// # Example
///
/// ```
/// use mrtweb_docmodel::document::Document;
/// use mrtweb_docmodel::lod::Lod;
///
/// # fn main() -> Result<(), mrtweb_docmodel::xml::ParseError> {
/// let doc = Document::parse_xml(
///     "<document><title>Paper</title>\
///      <abstract><paragraph>We study weakly-connected browsing.</paragraph></abstract>\
///      <section><title>Intro</title><paragraph>Details follow.</paragraph></section>\
///      </document>",
/// )?;
/// assert_eq!(doc.title(), Some("Paper"));
/// assert_eq!(doc.units_at(Lod::Section).len(), 2); // abstract counts
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    root: Unit,
}

impl Document {
    /// Wraps a unit tree as a document, normalizing its structure.
    ///
    /// # Panics
    ///
    /// Panics if `root` is not at the document LOD; use the parser or
    /// build the root with [`Unit::new`]`(Lod::Document)`.
    pub fn from_root(mut root: Unit) -> Self {
        assert_eq!(
            root.kind(),
            Lod::Document,
            "document root must be at the document LOD"
        );
        root.normalize();
        Document { root }
    }

    /// Parses an XML document with the default `research-paper` schema.
    ///
    /// # Errors
    ///
    /// [`ParseError`] on malformed markup; see [`xml::parse_with_schema`].
    pub fn parse_xml(input: &str) -> Result<Self, ParseError> {
        Self::parse_xml_with_schema(input, &Schema::research_paper())
    }

    /// Parses an XML document with a custom element schema.
    ///
    /// # Errors
    ///
    /// [`ParseError`] on malformed markup.
    pub fn parse_xml_with_schema(input: &str, schema: &Schema) -> Result<Self, ParseError> {
        Ok(Document {
            root: xml::parse_with_schema(input, schema)?,
        })
    }

    /// The document's root unit.
    pub fn root(&self) -> &Unit {
        &self.root
    }

    /// The document title, if present.
    pub fn title(&self) -> Option<&str> {
        self.root.title()
    }

    /// All units at exactly the given LOD.
    pub fn units_at(&self, lod: Lod) -> Vec<UnitRef<'_>> {
        self.root.units_at(lod)
    }

    /// Disjoint partition of the document at the given LOD (see
    /// [`Unit::partition_at`]).
    pub fn partition_at(&self, lod: Lod) -> Vec<UnitRef<'_>> {
        self.root.partition_at(lod)
    }

    /// Total content bytes (the paper's `s_D` for this document).
    pub fn content_len(&self) -> usize {
        self.root.content_len()
    }

    /// Total number of organizational units.
    pub fn unit_count(&self) -> usize {
        self.root.count()
    }

    /// Full plain text, titles included.
    pub fn full_text(&self) -> String {
        self.root.full_text()
    }

    /// Serializes back to canonical XML.
    pub fn to_xml(&self) -> String {
        xml::to_xml(&self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::Inline;

    #[test]
    fn from_root_normalizes() {
        let mut root = Unit::new(Lod::Document);
        let mut p = Unit::new(Lod::Paragraph);
        p.push_run(Inline::plain("stray"));
        root.push_child(p);
        let doc = Document::from_root(root);
        assert_eq!(doc.units_at(Lod::Section).len(), 1);
        assert!(doc.units_at(Lod::Section)[0].unit.is_synthetic());
    }

    #[test]
    #[should_panic(expected = "document root must be")]
    fn from_root_rejects_non_document() {
        let _ = Document::from_root(Unit::new(Lod::Section));
    }

    #[test]
    fn xml_round_trip_preserves_structure() {
        let doc = Document::parse_xml(
            "<document><title>T</title><section><title>S</title>\
             <paragraph>body text</paragraph></section></document>",
        )
        .unwrap();
        let again = Document::parse_xml(&doc.to_xml()).unwrap();
        assert_eq!(doc, again);
    }

    #[test]
    fn content_len_counts_all_text() {
        let doc = Document::parse_xml(
            "<document><title>ab</title><section><paragraph>cde</paragraph></section></document>",
        )
        .unwrap();
        assert_eq!(doc.content_len(), 5);
    }
}
