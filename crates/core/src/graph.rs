//! Cell graphs (Definition 5.8).
//!
//! Vertices are cells (identified by their dictionary index), typed core /
//! non-core / undetermined; edges run from core cells to reachable cells.
//! An edge's type is *derived* from its endpoint types — full when both
//! ends are core, partial when the successor is non-core, undetermined
//! when the successor's type is not yet known — so progressive edge-type
//! detection (§6.1.3) is simply re-reading edges after vertex types merge.

/// Vertex type of a cell in a cell (sub)graph.
///
/// Ordered so that `max` implements Definition 6.2's promotion: a
/// determined type always wins over [`CellType::Undetermined`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CellType {
    /// The cell lives in a partition this graph has not seen yet.
    Undetermined,
    /// Determined: the cell has no core point.
    NonCore,
    /// Determined: the cell has at least one core point (Definition 3.2).
    Core,
}

/// Edge type derived from endpoint cell types (Definition 5.8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeType {
    /// Fully directly reachable: both cells core (Definition 3.3).
    Full,
    /// Partially directly reachable: successor non-core (Definition 3.4).
    Partial,
    /// Successor type unknown in this graph.
    Undetermined,
}

/// A cell (sub)graph stored as a *sorted run*: typed cells plus directed
/// reachability edges, both in ascending order. The order is what lets
/// Phase III-1 merge two graphs in one streaming pass
/// ([`crate::merge::merge_runs`]), whether they live in memory or in
/// spill files.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellSubgraph {
    /// Determined vertex types, ascending by cell, one entry per cell;
    /// absent cells are `Undetermined`.
    types: Vec<(u32, CellType)>,
    /// Directed edges `(from, to)`, ascending and unique. `from` is
    /// always a core cell of the originating partition. Full edges are
    /// normalised to `(min, max)` once both endpoints are known core
    /// (direction is irrelevant for them, §6.1.3).
    edges: Vec<(u32, u32)>,
}

impl CellSubgraph {
    /// Builds a graph from types and edges in any order.
    ///
    /// Repeated cells are promoted following Definition 6.2:
    /// `Undetermined` never overwrites a determined type. Conflicting
    /// determined types cannot arise under pseudo random partitioning
    /// (cells are partition-disjoint); under the true-random ablation a
    /// cell may be marked core by one partition and non-core by another,
    /// and core wins because core-ness is an existential property of the
    /// whole data set. Repeated edges collapse; self edges are never
    /// stored.
    pub fn new(mut types: Vec<(u32, CellType)>, mut edges: Vec<(u32, u32)>) -> Self {
        types.retain(|&(_, t)| t != CellType::Undetermined);
        // Strongest type first within a cell, so the dedup keeps it.
        types.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        types.dedup_by_key(|&mut (c, _)| c);
        debug_assert!(edges.iter().all(|&(a, b)| a != b), "self edges");
        edges.sort_unstable();
        edges.dedup();
        Self { types, edges }
    }

    /// Wraps parts that are already a sorted run (merge output, decoded
    /// spill files).
    pub(crate) fn from_sorted(types: Vec<(u32, CellType)>, edges: Vec<(u32, u32)>) -> Self {
        debug_assert!(types.windows(2).all(|w| w[0].0 < w[1].0), "types unsorted");
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]), "edges unsorted");
        Self { types, edges }
    }

    /// The type of a cell (`Undetermined` when unknown).
    pub fn cell_type(&self, cell: u32) -> CellType {
        match self.types.binary_search_by_key(&cell, |&(c, _)| c) {
            Ok(i) => self.types[i].1,
            Err(_) => CellType::Undetermined,
        }
    }

    /// The edges, ascending.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Determined vertex types, ascending by cell.
    pub fn types(&self) -> &[(u32, CellType)] {
        &self.types
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Derives an edge's current type (§6.1.3).
    pub fn edge_type(&self, from: u32, to: u32) -> EdgeType {
        debug_assert_ne!(
            self.cell_type(from),
            CellType::NonCore,
            "edges must originate from core cells"
        );
        match (self.cell_type(from), self.cell_type(to)) {
            (CellType::Core, CellType::Core) => EdgeType::Full,
            (CellType::Core, CellType::NonCore) => EdgeType::Partial,
            _ => EdgeType::Undetermined,
        }
    }

    /// Counts edges by current type — `(full, partial, undetermined)`.
    pub fn edge_type_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for &(a, b) in &self.edges {
            match self.edge_type(a, b) {
                EdgeType::Full => counts.0 += 1,
                EdgeType::Partial => counts.1 += 1,
                EdgeType::Undetermined => counts.2 += 1,
            }
        }
        counts
    }

    /// `true` when every vertex type is determined (a *global* cell graph
    /// in the sense of Definition 6.1 — no undetermined cells or edges).
    pub fn is_global(&self) -> bool {
        self.edges.iter().all(|&(a, b)| {
            self.cell_type(a) != CellType::Undetermined
                && self.cell_type(b) != CellType::Undetermined
        })
    }

    /// Estimated wire size in bytes when shuffled between workers: one
    /// `(u32, u8)` per typed vertex and two `u32` per edge.
    pub fn wire_bytes(&self) -> u64 {
        (self.types.len() * 5 + self.edges.len() * 8) as u64
    }
}

/// A weighted quick-union disjoint-set over dense `u32` ids, used for
/// both redundant-edge reduction (§6.1.4) and final cluster extraction
/// (spanning trees of Figure 10b).
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
        }
    }

    /// Representative of `x`'s set (path halving).
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Unions the sets of `a` and `b`; returns `true` when they were
    /// previously distinct (i.e. the edge is part of the spanning forest).
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (ra, rb) = if self.rank[ra as usize] < self.rank[rb as usize] {
            (rb, ra)
        } else {
            (ra, rb)
        };
        self.parent[rb as usize] = ra;
        if self.rank[ra as usize] == self.rank[rb as usize] {
            self.rank[ra as usize] += 1;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use CellType::{Core, NonCore, Undetermined};

    #[test]
    fn type_promotion_follows_definition_6_2() {
        let g = CellSubgraph::new(vec![(1, Undetermined)], vec![]);
        assert_eq!(g.cell_type(1), Undetermined);
        assert!(g.types().is_empty(), "undetermined cells are never stored");
        // Never demotes, whatever the input order.
        let g = CellSubgraph::new(vec![(1, NonCore), (1, Undetermined)], vec![]);
        assert_eq!(g.cell_type(1), NonCore);
        let g = CellSubgraph::new(vec![(1, Undetermined), (1, NonCore)], vec![]);
        assert_eq!(g.cell_type(1), NonCore);
        // Ablation promotion path.
        let g = CellSubgraph::new(vec![(1, NonCore), (1, Core), (1, NonCore)], vec![]);
        assert_eq!(g.types(), &[(1, Core)]);
    }

    #[test]
    fn runs_are_sorted() {
        let g = CellSubgraph::new(
            vec![(9, Core), (2, NonCore), (5, Core)],
            vec![(9, 2), (5, 9), (5, 2)],
        );
        assert_eq!(g.types(), &[(2, NonCore), (5, Core), (9, Core)]);
        assert_eq!(g.edges(), &[(5, 2), (5, 9), (9, 2)]);
    }

    #[test]
    fn edge_types_derive_from_endpoints() {
        let types = vec![(0, Core), (1, Core), (2, NonCore)];
        // 3 unknown
        let edges = vec![(0, 1), (0, 2), (0, 3)];
        let g = CellSubgraph::new(types.clone(), edges.clone());
        assert_eq!(g.edge_type(0, 1), EdgeType::Full);
        assert_eq!(g.edge_type(0, 2), EdgeType::Partial);
        assert_eq!(g.edge_type(0, 3), EdgeType::Undetermined);
        assert_eq!(g.edge_type_counts(), (1, 1, 1));
        assert!(!g.is_global());
        let mut types = types;
        types.push((3, NonCore));
        assert!(CellSubgraph::new(types, edges).is_global());
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = CellSubgraph::new(vec![(0, Core)], vec![(0, 1), (0, 1)]);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn union_find_spanning_forest() {
        let mut uf = UnionFind::new(5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2), "cycle edge must be rejected");
        assert!(uf.union(3, 4));
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(3));
    }

    #[test]
    fn union_find_many_elements() {
        let mut uf = UnionFind::new(1000);
        for i in 0..999u32 {
            assert!(uf.union(i, i + 1));
        }
        assert_eq!(uf.find(0), uf.find(999));
    }

    #[test]
    fn wire_bytes_scale_with_content() {
        assert_eq!(CellSubgraph::default().wire_bytes(), 0);
        let g = CellSubgraph::new(vec![(0, Core)], vec![(0, 1)]);
        assert_eq!(g.wire_bytes(), 5 + 8);
    }
}
