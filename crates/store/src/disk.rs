//! Directory-backed persistence for the document store.
//!
//! One file per document (URL-hashed filename, binary codec payload),
//! written via a temp-file-and-rename so readers never observe a
//! half-written entry — the durability discipline a production gateway
//! would want on a flaky mobile server host too.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use mrtweb_docmodel::document::Document;

use crate::codec::{decode_document, encode_document, CodecError};
use crate::store::DocumentStore;

/// Errors from disk persistence.
#[derive(Debug)]
pub enum DiskError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A stored file failed to decode.
    Codec(CodecError),
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::Io(e) => write!(f, "i/o error: {e}"),
            DiskError::Codec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DiskError {}

impl From<io::Error> for DiskError {
    fn from(e: io::Error) -> Self {
        DiskError::Io(e)
    }
}

impl From<CodecError> for DiskError {
    fn from(e: CodecError) -> Self {
        DiskError::Codec(e)
    }
}

/// FNV-1a hash for stable, filesystem-safe filenames.
pub(crate) fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn entry_path(dir: &Path, url: &str) -> PathBuf {
    dir.join(format!("{:016x}.mrtd", fnv1a(url)))
}

fn meta_path(dir: &Path, url: &str) -> PathBuf {
    dir.join(format!("{:016x}.url", fnv1a(url)))
}

/// Writes one document durably (temp file + rename).
///
/// # Errors
///
/// I/O failures only; encoding is infallible.
pub fn save_document(dir: &Path, url: &str, doc: &Document) -> Result<(), DiskError> {
    fs::create_dir_all(dir)?;
    let bytes = encode_document(doc);
    let path = entry_path(dir, url);
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, &path)?;
    // Store the URL beside the payload so a directory scan can rebuild
    // the key space.
    fs::write(meta_path(dir, url), url.as_bytes())?;
    Ok(())
}

/// Loads one document.
///
/// # Errors
///
/// I/O failures or a corrupt payload.
pub fn load_document(dir: &Path, url: &str) -> Result<Document, DiskError> {
    let bytes = fs::read(entry_path(dir, url))?;
    Ok(decode_document(&bytes)?)
}

/// Persists every document of a store into `dir`.
///
/// # Errors
///
/// The first I/O failure aborts the dump.
pub fn save_store(dir: &Path, store: &DocumentStore) -> Result<usize, DiskError> {
    let mut saved = 0usize;
    for url in store.urls() {
        if let Some(doc) = store.document(&url) {
            save_document(dir, &url, &doc)?;
            saved += 1;
        }
    }
    Ok(saved)
}

/// Loads every document found in `dir` into a fresh store.
///
/// Corrupt entries are skipped and reported in the result's second
/// element rather than aborting the whole load — a gateway restarting
/// after a crash should serve what survives.
///
/// # Errors
///
/// Only directory-level I/O failures abort.
pub fn load_store(dir: &Path) -> Result<(DocumentStore, Vec<String>), DiskError> {
    let store = DocumentStore::new(0);
    let mut corrupt = Vec::new();
    if !dir.exists() {
        return Ok((store, corrupt));
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("url") {
            continue;
        }
        let url = fs::read_to_string(&path)?;
        match load_document(dir, &url) {
            Ok(doc) => {
                store.put(url, doc);
            }
            Err(_) => corrupt.push(url),
        }
    }
    Ok((store, corrupt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{SystemTime, UNIX_EPOCH};

    fn temp_dir(tag: &str) -> PathBuf {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let dir = std::env::temp_dir().join(format!("mrtweb-store-{tag}-{nanos}"));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn doc(text: &str) -> Document {
        Document::parse_xml(&format!(
            "<document><title>T</title><paragraph>{text}</paragraph></document>"
        ))
        .unwrap()
    }

    #[test]
    fn save_load_single_document() {
        let dir = temp_dir("single");
        let d = doc("mobile web content");
        save_document(&dir, "http://x/page", &d).unwrap();
        let back = load_document(&dir, "http://x/page").unwrap();
        assert_eq!(back, d);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_round_trip() {
        let dir = temp_dir("store");
        let store = DocumentStore::new(4);
        store.put("a", doc("alpha words"));
        store.put("b", doc("beta words"));
        assert_eq!(save_store(&dir, &store).unwrap(), 2);
        let (loaded, corrupt) = load_store(&dir).unwrap();
        assert!(corrupt.is_empty());
        assert_eq!(loaded.len(), 2);
        assert_eq!(
            loaded.document("a").unwrap().as_ref(),
            store.document("a").unwrap().as_ref()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_entries_are_skipped_not_fatal() {
        let dir = temp_dir("corrupt");
        save_document(&dir, "good", &doc("fine")).unwrap();
        save_document(&dir, "bad", &doc("doomed")).unwrap();
        // Corrupt the "bad" payload.
        let path = entry_path(&dir, "bad");
        let mut bytes = fs::read(&path).unwrap();
        let end = bytes.len() - 1;
        bytes.truncate(end);
        fs::write(&path, bytes).unwrap();
        let (loaded, corrupt) = load_store(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(corrupt, vec!["bad".to_string()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_loads_empty() {
        let dir = temp_dir("ghost").join("nested-never-created");
        let (loaded, corrupt) = load_store(&dir).unwrap();
        assert!(loaded.is_empty());
        assert!(corrupt.is_empty());
    }

    #[test]
    fn overwrite_is_atomic_replace() {
        let dir = temp_dir("atomic");
        save_document(&dir, "u", &doc("version one")).unwrap();
        save_document(&dir, "u", &doc("version two")).unwrap();
        let back = load_document(&dir, "u").unwrap();
        assert!(back.full_text().contains("version two"));
        // No stray temp files.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("tmp"))
            .collect();
        assert!(leftovers.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn distinct_urls_do_not_collide() {
        let dir = temp_dir("collide");
        save_document(&dir, "u1", &doc("one")).unwrap();
        save_document(&dir, "u2", &doc("two")).unwrap();
        assert!(load_document(&dir, "u1")
            .unwrap()
            .full_text()
            .contains("one"));
        assert!(load_document(&dir, "u2")
            .unwrap()
            .full_text()
            .contains("two"));
        fs::remove_dir_all(&dir).unwrap();
    }
}
