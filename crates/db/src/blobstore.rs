//! Content-addressed blob storage — the GridFS analogue.
//!
//! The paper stores every artifact's file bytes in the database "unless
//! it already exists there": content addressing gives that dedup for
//! free. Keys are MD5 fingerprints of the content.

use crate::journal::{self, JournalCell, JournalOp};
use parking_lot::RwLock;
use simart_artifact::hash::{Digest, Md5};
use simart_observe as observe;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Key identifying a stored blob (its content hash).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlobKey(Digest);

impl BlobKey {
    /// The key for the given content (without storing it).
    pub fn for_content(data: &[u8]) -> BlobKey {
        BlobKey(Md5::digest(data))
    }

    /// Hex form of the key.
    pub fn to_hex(self) -> String {
        self.0.to_hex()
    }

    /// Parses a hex key.
    pub fn from_hex(hex: &str) -> Option<BlobKey> {
        Digest::from_hex(hex).map(BlobKey)
    }
}

impl fmt::Display for BlobKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Deduplicating, content-addressed byte store.
///
/// Cheap to clone (handles share storage); thread-safe.
///
/// ```
/// use simart_db::BlobStore;
///
/// let store = BlobStore::new();
/// let key = store.put(b"kernel image bytes".to_vec());
/// assert_eq!(store.get(key).unwrap().as_ref(), b"kernel image bytes");
/// // Identical content stores once.
/// let again = store.put(b"kernel image bytes".to_vec());
/// assert_eq!(key, again);
/// assert_eq!(store.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BlobStore {
    inner: Arc<RwLock<HashMap<BlobKey, Arc<[u8]>>>>,
    journal: JournalCell,
}

impl BlobStore {
    /// Creates an empty store.
    pub fn new() -> BlobStore {
        BlobStore::default()
    }

    /// An empty store sharing the owning database's journal slot, so
    /// blob puts on an attached database append as they happen.
    pub(crate) fn with_journal(journal: JournalCell) -> BlobStore {
        BlobStore {
            inner: Arc::default(),
            journal,
        }
    }

    /// Stores content, returning its key. Identical content is stored
    /// only once; only first-time content is journaled (dedup hits
    /// change nothing).
    pub fn put(&self, data: Vec<u8>) -> BlobKey {
        let key = BlobKey::for_content(&data);
        observe::count("db.blob_puts", 1);
        match self.inner.write().entry(key) {
            std::collections::hash_map::Entry::Occupied(_) => {
                observe::count("db.blob_dedup_hits", 1);
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                let stored: Arc<[u8]> = data.as_slice().into();
                journal::append_best_effort(&self.journal, &JournalOp::BlobPut { data });
                slot.insert(stored);
            }
        }
        key
    }

    /// Fetches content by key.
    pub fn get(&self, key: BlobKey) -> Option<Arc<[u8]>> {
        self.inner.read().get(&key).cloned()
    }

    /// Whether the store holds content for `key`.
    pub fn contains(&self, key: BlobKey) -> bool {
        self.inner.read().contains_key(&key)
    }

    /// Removes content by key, returning it.
    pub fn remove(&self, key: BlobKey) -> Option<Arc<[u8]>> {
        let mut inner = self.inner.write();
        if inner.contains_key(&key) {
            journal::append_best_effort(
                &self.journal,
                &JournalOp::BlobRemove { key: key.to_hex() },
            );
        }
        inner.remove(&key)
    }

    /// Number of distinct blobs.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    /// Snapshot of all keys, sorted for determinism.
    pub fn keys(&self) -> Vec<BlobKey> {
        let mut keys: Vec<BlobKey> = self.inner.read().keys().copied().collect();
        keys.sort();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip() {
        let store = BlobStore::new();
        let key = store.put(b"hello".to_vec());
        assert_eq!(store.get(key).unwrap().as_ref(), b"hello");
        assert!(store.contains(key));
    }

    #[test]
    fn content_addressing_dedupes() {
        let store = BlobStore::new();
        let k1 = store.put(b"same".to_vec());
        let k2 = store.put(b"same".to_vec());
        let k3 = store.put(b"different".to_vec());
        assert_eq!(k1, k2);
        assert_ne!(k1, k3);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn key_matches_precomputed_hash() {
        let store = BlobStore::new();
        let precomputed = BlobKey::for_content(b"abc");
        let stored = store.put(b"abc".to_vec());
        assert_eq!(precomputed, stored);
        assert_eq!(stored.to_hex(), "900150983cd24fb0d6963f7d28e17f72");
        assert_eq!(BlobKey::from_hex(&stored.to_hex()), Some(stored));
    }

    #[test]
    fn remove_frees_key() {
        let store = BlobStore::new();
        let key = store.put(b"x".to_vec());
        assert!(store.remove(key).is_some());
        assert!(!store.contains(key));
        assert!(store.is_empty());
    }

    #[test]
    fn keys_are_sorted() {
        let store = BlobStore::new();
        for i in 0..20u8 {
            store.put(vec![i]);
        }
        let keys = store.keys();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), 20);
    }
}
