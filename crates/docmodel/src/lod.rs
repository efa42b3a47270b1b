//! Levels of detail (LOD).
//!
//! The paper defines five LODs — document, section, subsection,
//! subsubsection, paragraph — "providing different degrees of detail
//! with which a user can navigate a document" (§3). The LOD is an
//! abstraction over the actual markup tags; the [`crate::xml::Schema`]
//! maps element names onto these levels.

use std::fmt;
use std::str::FromStr;

/// A level of detail in the organizational hierarchy.
///
/// `Lod` is ordered from coarsest ([`Lod::Document`]) to finest
/// ([`Lod::Paragraph`]): `Lod::Document < Lod::Paragraph`.
///
/// # Example
///
/// ```
/// use mrtweb_docmodel::lod::Lod;
///
/// assert!(Lod::Document < Lod::Section);
/// assert_eq!(Lod::Section.finer(), Some(Lod::Subsection));
/// assert_eq!(Lod::Document.coarser(), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lod {
    /// The whole document — transmitting at this LOD is the conventional
    /// sequential paradigm.
    Document,
    /// Top-level sections (the abstract counts as section 0 in the
    /// paper's Table 1).
    Section,
    /// Subsections within a section.
    Subsection,
    /// Subsubsections within a subsection.
    Subsubsection,
    /// Paragraphs, the finest organizational unit.
    Paragraph,
}

impl Lod {
    /// All levels, coarsest to finest.
    pub const ALL: [Lod; 5] = [
        Lod::Document,
        Lod::Section,
        Lod::Subsection,
        Lod::Subsubsection,
        Lod::Paragraph,
    ];

    /// Tree depth of units at this LOD (document root is depth 0).
    pub const fn depth(self) -> usize {
        match self {
            Lod::Document => 0,
            Lod::Section => 1,
            Lod::Subsection => 2,
            Lod::Subsubsection => 3,
            Lod::Paragraph => 4,
        }
    }

    /// Constructs an LOD from a tree depth, saturating at paragraph.
    pub const fn from_depth(depth: usize) -> Lod {
        match depth {
            0 => Lod::Document,
            1 => Lod::Section,
            2 => Lod::Subsection,
            3 => Lod::Subsubsection,
            _ => Lod::Paragraph,
        }
    }

    /// The next finer level, if any.
    pub const fn finer(self) -> Option<Lod> {
        match self {
            Lod::Document => Some(Lod::Section),
            Lod::Section => Some(Lod::Subsection),
            Lod::Subsection => Some(Lod::Subsubsection),
            Lod::Subsubsection => Some(Lod::Paragraph),
            Lod::Paragraph => None,
        }
    }

    /// The next coarser level, if any.
    pub const fn coarser(self) -> Option<Lod> {
        match self {
            Lod::Document => None,
            Lod::Section => Some(Lod::Document),
            Lod::Subsection => Some(Lod::Section),
            Lod::Subsubsection => Some(Lod::Subsection),
            Lod::Paragraph => Some(Lod::Subsubsection),
        }
    }

    /// Canonical lowercase name, matching the default XML schema.
    pub const fn name(self) -> &'static str {
        match self {
            Lod::Document => "document",
            Lod::Section => "section",
            Lod::Subsection => "subsection",
            Lod::Subsubsection => "subsubsection",
            Lod::Paragraph => "paragraph",
        }
    }
}

impl Default for Lod {
    /// The conventional transmission level: the whole document.
    fn default() -> Self {
        Lod::Document
    }
}

impl fmt::Display for Lod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an [`Lod`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLodError(pub String);

impl fmt::Display for ParseLodError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown level of detail: {:?}", self.0)
    }
}

impl std::error::Error for ParseLodError {}

impl FromStr for Lod {
    type Err = ParseLodError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "document" | "doc" => Ok(Lod::Document),
            "section" | "sect" => Ok(Lod::Section),
            "subsection" | "subsect" => Ok(Lod::Subsection),
            "subsubsection" | "subsubsect" => Ok(Lod::Subsubsection),
            "paragraph" | "para" | "p" => Ok(Lod::Paragraph),
            other => Err(ParseLodError(other.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_coarse_to_fine() {
        for w in Lod::ALL.windows(2) {
            assert!(w[0] < w[1], "{} should be coarser than {}", w[0], w[1]);
        }
    }

    #[test]
    fn depth_round_trips() {
        for lod in Lod::ALL {
            assert_eq!(Lod::from_depth(lod.depth()), lod);
        }
        assert_eq!(Lod::from_depth(99), Lod::Paragraph);
    }

    #[test]
    fn finer_coarser_are_inverse() {
        for lod in Lod::ALL {
            if let Some(f) = lod.finer() {
                assert_eq!(f.coarser(), Some(lod));
            }
            if let Some(c) = lod.coarser() {
                assert_eq!(c.finer(), Some(lod));
            }
        }
        assert_eq!(Lod::Paragraph.finer(), None);
        assert_eq!(Lod::Document.coarser(), None);
    }

    #[test]
    fn from_str_accepts_aliases() {
        assert_eq!("PARAGRAPH".parse::<Lod>().unwrap(), Lod::Paragraph);
        assert_eq!("p".parse::<Lod>().unwrap(), Lod::Paragraph);
        assert_eq!("doc".parse::<Lod>().unwrap(), Lod::Document);
        assert!("chapter".parse::<Lod>().is_err());
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Lod::Subsubsection.to_string(), "subsubsection");
    }

    #[test]
    fn default_is_document() {
        assert_eq!(Lod::default(), Lod::Document);
    }
}
