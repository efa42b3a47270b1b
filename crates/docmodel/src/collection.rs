//! Multi-page document collections.
//!
//! "By a document, it is not only referred to as simply a single web
//! page, but it may also include a collection of hierarchically linked
//! related pages, composing a larger document" (§1). A [`Collection`]
//! is that cluster: named pages plus directed hyperlinks, with the
//! traversal order and reachability queries a prefetcher needs
//! ("with respect to a collection of related pages in the form of a
//! cluster, we are also investigating intelligent prefetching", §6).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::document::Document;

/// A hyperlink between two pages of a collection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HyperLink {
    /// Key of the page containing the anchor.
    pub from: String,
    /// Key of the linked page.
    pub to: String,
}

/// A cluster of hierarchically linked pages.
///
/// # Example
///
/// ```
/// use mrtweb_docmodel::collection::Collection;
/// use mrtweb_docmodel::document::Document;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let index = Document::parse_xml("<document><title>Index</title></document>")?;
/// let ch1 = Document::parse_xml("<document><title>Ch 1</title></document>")?;
/// let mut c = Collection::new("index");
/// c.insert("index", index);
/// c.insert("ch1", ch1);
/// c.link("index", "ch1")?;
/// assert_eq!(c.reading_order(), vec!["index", "ch1"]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Collection {
    root: String,
    pages: BTreeMap<String, Document>,
    links: Vec<HyperLink>,
}

/// Error for links referencing unknown pages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownPageError(pub String);

impl std::fmt::Display for UnknownPageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown page in collection: {:?}", self.0)
    }
}

impl std::error::Error for UnknownPageError {}

impl Collection {
    /// Creates an empty collection whose entry page will be `root`.
    pub fn new(root: impl Into<String>) -> Self {
        Collection {
            root: root.into(),
            pages: BTreeMap::new(),
            links: Vec::new(),
        }
    }

    /// The entry page key.
    pub fn root(&self) -> &str {
        &self.root
    }

    /// Adds (or replaces) a page.
    pub fn insert(&mut self, key: impl Into<String>, page: Document) -> Option<Document> {
        self.pages.insert(key.into(), page)
    }

    /// Looks up a page.
    pub fn page(&self, key: &str) -> Option<&Document> {
        self.pages.get(key)
    }

    /// Number of pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the collection has no pages.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Iterates `(key, page)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Document)> {
        self.pages.iter().map(|(k, d)| (k.as_str(), d))
    }

    /// Adds a hyperlink. Both endpoints must already be pages.
    ///
    /// # Errors
    ///
    /// [`UnknownPageError`] if either endpoint is missing.
    pub fn link(&mut self, from: &str, to: &str) -> Result<(), UnknownPageError> {
        for k in [from, to] {
            if !self.pages.contains_key(k) {
                return Err(UnknownPageError(k.to_owned()));
            }
        }
        self.links.push(HyperLink {
            from: from.to_owned(),
            to: to.to_owned(),
        });
        Ok(())
    }

    /// Outgoing link targets of a page, in insertion order.
    pub fn links_from(&self, key: &str) -> Vec<&str> {
        self.links
            .iter()
            .filter(|l| l.from == key)
            .map(|l| l.to.as_str())
            .collect()
    }

    /// Breadth-first reading order from the root — the order a reader
    /// (or prefetcher) would encounter pages.
    pub fn reading_order(&self) -> Vec<&str> {
        let mut order = Vec::new();
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut queue: VecDeque<&str> = VecDeque::new();
        if self.pages.contains_key(&self.root) {
            queue.push_back(self.root.as_str());
            seen.insert(self.root.as_str());
        }
        while let Some(k) = queue.pop_front() {
            order.push(k);
            for t in self.links_from(k) {
                if seen.insert(t) {
                    queue.push_back(t);
                }
            }
        }
        order
    }

    /// Pages unreachable from the root (orphans the prefetcher would
    /// never discover by following links).
    pub fn orphans(&self) -> Vec<&str> {
        let reachable: BTreeSet<&str> = self.reading_order().into_iter().collect();
        self.pages
            .keys()
            .map(String::as_str)
            .filter(|k| !reachable.contains(k))
            .collect()
    }

    /// Total content bytes across all pages.
    pub fn total_bytes(&self) -> usize {
        self.pages.values().map(Document::content_len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(title: &str) -> Document {
        Document::parse_xml(&format!(
            "<document><title>{title}</title><paragraph>{title} body text</paragraph></document>"
        ))
        .unwrap()
    }

    fn sample() -> Collection {
        let mut c = Collection::new("index");
        for k in ["index", "ch1", "ch2", "appendix", "orphan"] {
            c.insert(k, page(k));
        }
        c.link("index", "ch1").unwrap();
        c.link("index", "ch2").unwrap();
        c.link("ch1", "appendix").unwrap();
        c
    }

    #[test]
    fn reading_order_is_breadth_first() {
        let c = sample();
        assert_eq!(c.reading_order(), vec!["index", "ch1", "ch2", "appendix"]);
    }

    #[test]
    fn orphans_are_detected() {
        let c = sample();
        assert_eq!(c.orphans(), vec!["orphan"]);
    }

    #[test]
    fn links_require_existing_pages() {
        let mut c = sample();
        assert_eq!(
            c.link("index", "nowhere"),
            Err(UnknownPageError("nowhere".into()))
        );
        assert!(c.link("ch2", "appendix").is_ok());
    }

    #[test]
    fn cycles_terminate() {
        let mut c = Collection::new("a");
        c.insert("a", page("a"));
        c.insert("b", page("b"));
        c.link("a", "b").unwrap();
        c.link("b", "a").unwrap();
        assert_eq!(c.reading_order(), vec!["a", "b"]);
    }

    #[test]
    fn missing_root_yields_empty_order() {
        let mut c = Collection::new("ghost");
        c.insert("real", page("real"));
        assert!(c.reading_order().is_empty());
        assert_eq!(c.orphans(), vec!["real"]);
    }

    #[test]
    fn accessors() {
        let c = sample();
        assert_eq!(c.len(), 5);
        assert!(!c.is_empty());
        assert!(c.page("ch1").is_some());
        assert!(c.page("nope").is_none());
        assert_eq!(c.links_from("index"), vec!["ch1", "ch2"]);
        assert!(c.total_bytes() > 0);
        assert_eq!(c.iter().count(), 5);
    }
}
