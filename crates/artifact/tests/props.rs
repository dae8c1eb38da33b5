//! Property-based tests for hashing, identity, and provenance-graph validation.

use proptest::prelude::*;
use simart_artifact::dag::{DependencyGraph, GraphIssue};
use simart_artifact::hash::{Digest, Md5};
use simart_artifact::{Artifact, ArtifactKind, ArtifactRegistry, ContentSource, Uuid};
use std::collections::{BTreeMap, BTreeSet};

type Cycles = BTreeSet<BTreeSet<u64>>;
type Orphans = BTreeMap<u64, BTreeSet<u64>>;

/// The reference: a depth-first reachability set per node; a node is on
/// a cycle when it reaches itself, and its cycle is every node it
/// reaches that reaches it back. Orphans are the undeclared endpoints.
fn reference(edges: &[(u64, u64)], declared: impl Fn(u64) -> bool) -> (Cycles, Orphans) {
    let reach = |from: u64| {
        let (mut seen, mut stack) = (BTreeSet::new(), vec![from]);
        while let Some(node) = stack.pop() {
            for &(_, to) in edges.iter().filter(|(f, _)| *f == node) {
                if seen.insert(to) {
                    stack.push(to);
                }
            }
        }
        seen
    };
    let reaches: BTreeMap<u64, BTreeSet<u64>> = (0..12).map(|n| (n, reach(n))).collect();
    let cycles = (0..12)
        .filter(|n| reaches[n].contains(n))
        .map(|n| {
            reaches[&n]
                .iter()
                .copied()
                .filter(|m| reaches[m].contains(&n))
                .collect()
        })
        .collect();
    let mut orphans = Orphans::new();
    for &(from, to) in edges {
        for (end, other) in [(from, to), (to, from)] {
            if !declared(end) {
                orphans.entry(end).or_default().insert(other);
            }
        }
    }
    (cycles, orphans)
}

proptest! {
    /// Streaming MD5 over any chunking equals the one-shot digest
    /// (exercises every padding/boundary path of RFC 1321).
    #[test]
    fn md5_chunking_invariance(data in proptest::collection::vec(any::<u8>(), 0..4096),
                               chunk in 1usize..512) {
        let oneshot = Md5::digest(&data);
        let mut hasher = Md5::new();
        for piece in data.chunks(chunk) {
            hasher.update(piece);
        }
        prop_assert_eq!(hasher.finalize(), oneshot);
    }

    /// Hex encoding of digests round-trips.
    #[test]
    fn md5_hex_round_trip(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let digest = Md5::digest(&data);
        prop_assert_eq!(Digest::from_hex(&digest.to_hex()), Some(digest));
    }

    /// Appending a byte always changes the digest (MD5 is
    /// length-extension-distinct for our fingerprint use).
    #[test]
    fn md5_extension_changes_digest(data in proptest::collection::vec(any::<u8>(), 0..512),
                                    extra in any::<u8>()) {
        let base = Md5::digest(&data);
        let mut extended = data.clone();
        extended.push(extra);
        prop_assert_ne!(Md5::digest(&extended), base);
    }

    /// UUID display/parse round-trips for arbitrary bytes.
    #[test]
    fn uuid_round_trip(bytes in any::<[u8; 16]>()) {
        let uuid = Uuid::from_bytes(bytes);
        prop_assert_eq!(uuid.to_string().parse::<Uuid>().unwrap(), uuid);
    }

    /// Name-based UUIDs are injective over (namespace, name) pairs in
    /// practice: distinct names never collide in a small sample.
    #[test]
    fn uuid_v3_distinct_names(a in "[a-z]{1,12}", b in "[a-z]{1,12}") {
        prop_assume!(a != b);
        prop_assert_ne!(Uuid::new_v3("ns", &a), Uuid::new_v3("ns", &b));
    }

    /// `validate` over arbitrary edges, some with undeclared endpoints,
    /// reports exactly the cycles the reference finds — one per set of
    /// mutually reachable nodes, self-loops included — and exactly the
    /// undeclared endpoints as orphans, each with its neighbours.
    #[test]
    fn validate_matches_reference(edges in proptest::collection::vec((0u64..12, 0u64..12), 0..40),
                                  declared in any::<u16>()) {
        let id = |n: u64| Uuid::new_v3("props-dag", &n.to_string());
        let is_declared = |n: u64| declared & (1 << n) != 0;
        let mut graph = DependencyGraph::new();
        for n in (0..12).filter(|&n| is_declared(n)) {
            graph.add_node(id(n));
        }
        for &(from, to) in &edges {
            graph.add_edge_unchecked(id(from), id(to));
        }
        let number: BTreeMap<Uuid, u64> = (0..12).map(|n| (id(n), n)).collect();
        let (mut cycles, mut orphans) = (BTreeSet::new(), BTreeMap::new());
        for issue in graph.validate() {
            match issue {
                GraphIssue::Cycle { members } => {
                    cycles.insert(members.iter().map(|m| number[m]).collect::<BTreeSet<_>>());
                }
                GraphIssue::Orphan { node, referenced_by } => {
                    orphans.insert(number[&node], referenced_by.iter().map(|m| number[m]).collect());
                }
            }
        }
        let (ref_cycles, ref_orphans) = reference(&edges, is_declared);
        prop_assert_eq!(cycles, ref_cycles);
        prop_assert_eq!(orphans, ref_orphans);
    }

    /// Registering arbitrary content: identical content+metadata always
    /// dedupes, distinct content always yields distinct identity.
    #[test]
    fn registry_identity(contents in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..64), 1..20)) {
        let mut registry = ArtifactRegistry::new();
        let mut seen: Vec<(Vec<u8>, Uuid)> = Vec::new();
        for content in contents {
            let artifact = registry.register(
                Artifact::builder("blob", ArtifactKind::Binary)
                    .documentation("property test blob")
                    .content(ContentSource::bytes(content.clone())),
            );
            match artifact {
                Ok(artifact) => {
                    if let Some((_, prior)) = seen.iter().find(|(c, _)| *c == content) {
                        prop_assert_eq!(artifact.id(), *prior, "same content same identity");
                    } else {
                        for (_, other) in &seen {
                            prop_assert_ne!(artifact.id(), *other);
                        }
                        seen.push((content, artifact.id()));
                    }
                }
                Err(e) => prop_assert!(false, "registration failed: {e}"),
            }
        }
        prop_assert_eq!(registry.len(), seen.len());
    }
}
