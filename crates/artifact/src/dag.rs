//! Dependency graph over artifact ids, for checking stored provenance.
//!
//! Artifacts reference the artifacts they were built from. Registration
//! cannot close a cycle — an input must be registered before its
//! dependent — but a database can be edited by hand, so the linter
//! mirrors the stored `inputs` edges into a [`DependencyGraph`] and asks
//! [`DependencyGraph::validate`] for every cycle and dangling reference.

use crate::uuid::Uuid;
use std::collections::{HashMap, HashSet};

/// A structural problem found by [`DependencyGraph::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphIssue {
    /// A dependency cycle; `members` lists every node on it, sorted.
    Cycle {
        /// The nodes forming the cycle.
        members: Vec<Uuid>,
    },
    /// A node referenced by an edge but never declared with
    /// [`DependencyGraph::add_node`] — a dangling reference.
    Orphan {
        /// The undeclared node.
        node: Uuid,
        /// Declared nodes whose edges reference it, sorted.
        referenced_by: Vec<Uuid>,
    },
}

/// A directed graph keyed by [`Uuid`].
#[derive(Debug, Default)]
pub struct DependencyGraph {
    edges_out: HashMap<Uuid, Vec<Uuid>>,
    edges_in: HashMap<Uuid, Vec<Uuid>>,
    /// Nodes explicitly declared (as opposed to merely referenced by an
    /// unchecked edge). [`DependencyGraph::validate`] reports the
    /// difference as orphans.
    declared: HashSet<Uuid>,
}

impl DependencyGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node (idempotent).
    pub fn add_node(&mut self, node: Uuid) {
        self.declared.insert(node);
        self.edges_out.entry(node).or_default();
        self.edges_in.entry(node).or_default();
    }

    /// Records a `from -> to` edge ("`to` was built from `from`")
    /// without declaring the endpoints.
    ///
    /// The data mirrored here (artifact documents read back from a
    /// database) may be inconsistent: cycles and references to
    /// never-declared nodes are accepted and reported by
    /// [`DependencyGraph::validate`] instead of refused.
    pub fn add_edge_unchecked(&mut self, from: Uuid, to: Uuid) {
        self.edges_in.entry(from).or_default();
        self.edges_out.entry(to).or_default();
        self.edges_out.entry(from).or_default().push(to);
        self.edges_in.entry(to).or_default().push(from);
    }

    /// Checks the whole graph, reporting *all* structural issues: every
    /// dependency cycle (as a sorted member list per strongly connected
    /// component, including self-loops) and every orphan node (present
    /// in an edge but never declared). Issues are returned in a
    /// deterministic order: cycles first, then orphans, each sorted.
    pub fn validate(&self) -> Vec<GraphIssue> {
        let mut issues = Vec::new();
        let mut cycles: Vec<Vec<Uuid>> = self
            .strongly_connected_components()
            .into_iter()
            .filter(|scc| {
                scc.len() > 1 || scc.first().is_some_and(|n| self.successors(*n).contains(n))
            })
            .map(|mut scc| {
                scc.sort_by_key(Uuid::to_string);
                scc
            })
            .collect();
        cycles.sort_by_key(|scc| scc.first().map(Uuid::to_string));
        issues.extend(
            cycles
                .into_iter()
                .map(|members| GraphIssue::Cycle { members }),
        );

        let mut orphans: Vec<Uuid> = self
            .edges_out
            .keys()
            .filter(|node| !self.declared.contains(node))
            .copied()
            .collect();
        orphans.sort_by_key(Uuid::to_string);
        for node in orphans {
            let mut referenced_by: Vec<Uuid> = self
                .successors(node)
                .iter()
                .chain(self.predecessors(node))
                .copied()
                .collect();
            referenced_by.sort_by_key(Uuid::to_string);
            referenced_by.dedup();
            issues.push(GraphIssue::Orphan {
                node,
                referenced_by,
            });
        }
        issues
    }

    /// Strongly connected components (iterative Tarjan), in an
    /// arbitrary order.
    fn strongly_connected_components(&self) -> Vec<Vec<Uuid>> {
        struct State {
            index: HashMap<Uuid, usize>,
            lowlink: HashMap<Uuid, usize>,
            on_stack: HashSet<Uuid>,
            stack: Vec<Uuid>,
            next_index: usize,
            components: Vec<Vec<Uuid>>,
        }
        let mut st = State {
            index: HashMap::new(),
            lowlink: HashMap::new(),
            on_stack: HashSet::new(),
            stack: Vec::new(),
            next_index: 0,
            components: Vec::new(),
        };
        let mut nodes: Vec<Uuid> = self.edges_out.keys().copied().collect();
        nodes.sort_by_key(Uuid::to_string);
        for root in nodes {
            if st.index.contains_key(&root) {
                continue;
            }
            // Explicit DFS frames: (node, next successor position).
            let mut frames: Vec<(Uuid, usize)> = vec![(root, 0)];
            while let Some(&mut (node, ref mut pos)) = frames.last_mut() {
                if *pos == 0 {
                    st.index.insert(node, st.next_index);
                    st.lowlink.insert(node, st.next_index);
                    st.next_index += 1;
                    st.stack.push(node);
                    st.on_stack.insert(node);
                }
                if let Some(&next) = self.successors(node).get(*pos) {
                    *pos += 1;
                    if !st.index.contains_key(&next) {
                        frames.push((next, 0));
                    } else if st.on_stack.contains(&next) {
                        let low = st.lowlink[&node].min(st.index[&next]);
                        st.lowlink.insert(node, low);
                    }
                } else {
                    frames.pop();
                    if let Some(&(parent, _)) = frames.last() {
                        let low = st.lowlink[&parent].min(st.lowlink[&node]);
                        st.lowlink.insert(parent, low);
                    }
                    if st.lowlink[&node] == st.index[&node] {
                        let mut component = Vec::new();
                        while let Some(member) = st.stack.pop() {
                            st.on_stack.remove(&member);
                            component.push(member);
                            if member == node {
                                break;
                            }
                        }
                        st.components.push(component);
                    }
                }
            }
        }
        st.components
    }

    /// Direct successors (dependents) of `node`.
    fn successors(&self, node: Uuid) -> &[Uuid] {
        self.edges_out.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Direct predecessors (inputs) of `node`.
    fn predecessors(&self, node: Uuid) -> &[Uuid] {
        self.edges_in.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> Uuid {
        Uuid::new_v3("dag-test", &n.to_string())
    }

    /// Declares both endpoints of every edge.
    fn declared(edges: &[(u64, u64)]) -> DependencyGraph {
        let mut g = DependencyGraph::new();
        for &(a, b) in edges {
            g.add_node(id(a));
            g.add_node(id(b));
            g.add_edge_unchecked(id(a), id(b));
        }
        g
    }

    #[test]
    fn validate_accepts_clean_graphs() {
        let mut g = declared(&[(1, 2), (2, 3), (1, 3)]);
        g.add_node(id(9));
        assert!(g.validate().is_empty());
    }

    #[test]
    fn validate_reports_every_cycle() {
        // Two disjoint cycles plus a self-loop.
        let g = declared(&[(1, 2), (2, 1), (3, 4), (4, 5), (5, 3), (6, 6)]);
        let cycles: Vec<_> = g
            .validate()
            .into_iter()
            .filter_map(|issue| match issue {
                GraphIssue::Cycle { members } => Some(members),
                GraphIssue::Orphan { .. } => None,
            })
            .collect();
        assert_eq!(cycles.len(), 3);
        let mut sizes: Vec<usize> = cycles.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 2, 3]);
        assert!(cycles.iter().any(|c| c.contains(&id(6)) && c.len() == 1));
    }

    #[test]
    fn validate_reports_orphans_with_referrers() {
        let mut g = DependencyGraph::new();
        g.add_node(id(1));
        g.add_edge_unchecked(id(1), id(99)); // 99 never declared
        let issues = g.validate();
        assert_eq!(
            issues,
            vec![GraphIssue::Orphan {
                node: id(99),
                referenced_by: vec![id(1)]
            }]
        );
    }
}
