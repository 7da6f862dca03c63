//! Phase III-1: progressive graph merging (Algorithm 4, first part).
//!
//! Cell subgraphs merge pairwise in a tournament (Figure 9a). Each match
//! (1) unions the two graphs (Definition 6.2, promoting undetermined
//! vertices), (2) re-derives edge types from the enlarged type knowledge
//! (§6.1.3), and (3) removes redundant full edges by keeping only a
//! spanning forest over core cells (§6.1.4) — full-edge direction is
//! irrelevant, and one path between core cells preserves the graph's
//! expressive power while shrinking shuffle volume round over round
//! (Figure 17).
//!
//! Every graph is a sorted run ([`CellSubgraph`]), and [`merge_runs`] is
//! the only match: a two-way merge of the type tables, then a walk over
//! the union of the edges in ascending order that feeds the union-find.
//! A run is read either from memory or from a spill file (whose byte
//! layout is the run's encoding, written and read only here), so the
//! resident and out-of-core pipelines take identical unions and produce
//! bit-identical graphs because they run the same code, not because two
//! implementations agree on an order. [`tournament`] is the one round
//! loop both pipelines drive through the engine; they differ only in
//! where a match's output is kept.

use crate::graph::{CellSubgraph, CellType, UnionFind};
use crate::{task_err, CoreError};
use rpdbscan_engine::Engine;
use rpdbscan_grid::FxHashMap;
use rpdbscan_store::{SpillDir, SpillHandle, SpillReader, StoreError};
use std::cmp::Ordering;

/// Spill-file layout: a `u64` type count, `(u32 cell, u8 type)` entries,
/// a `u64` edge count, then `(u32, u32)` edges — all little-endian.
const TYPE_BYTES: u64 = 5;
const EDGE_BYTES: u64 = 8;
const COUNT_BYTES: u64 = 8;

/// A sorted run as [`merge_runs`] consumes it: all types, then all
/// edges, read from memory or streamed from a spill file.
#[derive(Debug)]
pub struct RunReader<'a>(Source<'a>);

#[derive(Debug)]
enum Source<'a> {
    Memory {
        types: std::slice::Iter<'a, (u32, CellType)>,
        edges: std::slice::Iter<'a, (u32, u32)>,
    },
    Spill(SpillDecoder),
}

/// Streaming decoder over one spill file. Every count and ordering the
/// file claims is checked before it is trusted: a hostile or corrupt
/// file is a [`StoreError`], never a panic or an oversized allocation.
#[derive(Debug)]
struct SpillDecoder {
    r: SpillReader,
    file_bytes: u64,
    type_count: u64,
    types_left: u64,
    /// `None` until the edge section's header has been read.
    edges_left: Option<u64>,
    last_type: Option<u32>,
    last_edge: Option<(u32, u32)>,
}

fn corrupt(what: &'static str, detail: String) -> StoreError {
    StoreError::Corrupt { what, detail }
}

impl<'a> RunReader<'a> {
    /// A cursor over an in-memory run.
    pub fn memory(g: &'a CellSubgraph) -> Self {
        RunReader(Source::Memory {
            types: g.types().iter(),
            edges: g.edges().iter(),
        })
    }

    /// Opens a spill file for streaming, validating its type count
    /// against the file size.
    pub fn open(spill: &SpillDir, handle: &SpillHandle) -> Result<Self, StoreError> {
        let mut r = spill.open(handle)?;
        let file_bytes = handle.bytes();
        let type_count = r.read_u64()?;
        let fits = type_count
            .checked_mul(TYPE_BYTES)
            .and_then(|b| b.checked_add(2 * COUNT_BYTES))
            .is_some_and(|need| need <= file_bytes);
        if !fits {
            return Err(corrupt(
                "spill type count",
                format!("{type_count} types do not fit a {file_bytes}-byte file"),
            ));
        }
        Ok(RunReader(Source::Spill(SpillDecoder {
            r,
            file_bytes,
            type_count,
            types_left: type_count,
            edges_left: None,
            last_type: None,
            last_edge: None,
        })))
    }

    /// The next `(cell, type)` in ascending cell order.
    fn next_type(&mut self) -> Result<Option<(u32, CellType)>, StoreError> {
        let d = match &mut self.0 {
            Source::Memory { types, .. } => return Ok(types.next().copied()),
            Source::Spill(d) => d,
        };
        if d.types_left == 0 {
            return Ok(None);
        }
        d.types_left -= 1;
        let cell = d.r.read_u32()?;
        let t = decode_type(d.r.read_u8()?)?;
        if d.last_type.is_some_and(|prev| prev >= cell) {
            return Err(corrupt("spill types", format!("cell {cell} out of order")));
        }
        d.last_type = Some(cell);
        Ok(Some((cell, t)))
    }

    /// The next edge in ascending order; called once the types are
    /// exhausted.
    fn next_edge(&mut self) -> Result<Option<(u32, u32)>, StoreError> {
        let d = match &mut self.0 {
            Source::Memory { edges, .. } => return Ok(edges.next().copied()),
            Source::Spill(d) => d,
        };
        debug_assert_eq!(d.types_left, 0, "edges read before types");
        let left = match d.edges_left {
            Some(left) => left,
            None => {
                let edge_count = d.r.read_u64()?;
                let exact = edge_count
                    .checked_mul(EDGE_BYTES)
                    .and_then(|b| b.checked_add(d.type_count * TYPE_BYTES + 2 * COUNT_BYTES))
                    .is_some_and(|need| need == d.file_bytes);
                if !exact {
                    return Err(corrupt(
                        "spill edge count",
                        format!(
                            "{edge_count} edges after {} types do not fill a {}-byte file",
                            d.type_count, d.file_bytes
                        ),
                    ));
                }
                edge_count
            }
        };
        if left == 0 {
            d.edges_left = Some(0);
            return Ok(None);
        }
        d.edges_left = Some(left - 1);
        let e = (d.r.read_u32()?, d.r.read_u32()?);
        if d.last_edge.is_some_and(|prev| prev >= e) {
            return Err(corrupt("spill edges", format!("edge {e:?} out of order")));
        }
        d.last_edge = Some(e);
        Ok(Some(e))
    }

    /// Reads the whole run into memory.
    pub fn read_all(mut self) -> Result<CellSubgraph, StoreError> {
        let mut types = Vec::new();
        while let Some(t) = self.next_type()? {
            types.push(t);
        }
        let mut edges = Vec::new();
        while let Some(e) = self.next_edge()? {
            edges.push(e);
        }
        Ok(CellSubgraph::from_sorted(types, edges))
    }
}

fn encode_type(t: CellType) -> u8 {
    match t {
        CellType::Undetermined => 0,
        CellType::NonCore => 1,
        CellType::Core => 2,
    }
}

fn decode_type(v: u8) -> Result<CellType, StoreError> {
    match v {
        0 => Ok(CellType::Undetermined),
        1 => Ok(CellType::NonCore),
        2 => Ok(CellType::Core),
        other => Err(corrupt("spill cell type", format!("unknown tag {other}"))),
    }
}

/// Writes a run to a new spill file.
pub fn write_run(spill: &SpillDir, g: &CellSubgraph) -> Result<SpillHandle, StoreError> {
    let mut w = spill.writer()?;
    w.write_u64(g.types().len() as u64)?;
    for &(c, t) in g.types() {
        w.write_u32(c)?;
        w.write_u8(encode_type(t))?;
    }
    w.write_u64(g.edges().len() as u64)?;
    for &(a, b) in g.edges() {
        w.write_u32(a)?;
        w.write_u32(b)?;
    }
    w.finish()
}

/// Two-way merge of two ascending streams: `emit(x, twin)` sees every
/// key once, in ascending order, with `twin` the other stream's entry
/// when both hold the key.
fn merge_sorted<T: Copy, K: Ord>(
    mut next_a: impl FnMut() -> Result<Option<T>, StoreError>,
    mut next_b: impl FnMut() -> Result<Option<T>, StoreError>,
    key: impl Fn(&T) -> K,
    mut emit: impl FnMut(T, Option<T>),
) -> Result<(), StoreError> {
    let (mut x, mut y) = (next_a()?, next_b()?);
    loop {
        match (x, y) {
            (None, None) => return Ok(()),
            (Some(p), None) => {
                emit(p, None);
                x = next_a()?;
            }
            (None, Some(q)) => {
                emit(q, None);
                y = next_b()?;
            }
            (Some(p), Some(q)) => match key(&p).cmp(&key(&q)) {
                Ordering::Less => {
                    emit(p, None);
                    x = next_a()?;
                }
                Ordering::Greater => {
                    emit(q, None);
                    y = next_b()?;
                }
                Ordering::Equal => {
                    emit(p, Some(q));
                    x = next_a()?;
                    y = next_b()?;
                }
            },
        }
    }
}

/// One tournament match: merges two sorted runs and removes redundant
/// full edges.
///
/// Types merge with `max` promotion (Definition 6.2). Edges are walked in
/// globally sorted order against the merged types; full edges are
/// normalised to `(min, max)` and kept only when they join two
/// union-find components (one spanning forest over core cells, found in
/// linear time — equivalent to the DFS/BFS-with-hashing formulation the
/// paper cites). Partial and undetermined edges always survive.
///
/// Returns the merged run and the frontier high-water mark in bytes:
/// merged type table + union-find + survivor list, the only per-match
/// memory beyond the output itself when the inputs stream from disk.
pub fn merge_runs(
    mut a: RunReader<'_>,
    mut b: RunReader<'_>,
) -> Result<(CellSubgraph, u64), StoreError> {
    let mut types: Vec<(u32, CellType)> = Vec::new();
    merge_sorted(
        || a.next_type(),
        || b.next_type(),
        |&(c, _)| c,
        |(c, t), twin| types.push((c, twin.map_or(t, |(_, u)| t.max(u)))),
    )?;

    // The union-find spans core cells only: `cores` lists them in
    // ascending order and `slot` maps each to its union-find id. Which id
    // a cell gets cannot change whether a union joins two components.
    let cores: Vec<u32> = types
        .iter()
        .filter(|&&(_, t)| t == CellType::Core)
        .map(|&(c, _)| c)
        .collect();
    let slot: FxHashMap<u32, u32> = cores
        .iter()
        .enumerate()
        .map(|(i, &c)| (c, i as u32))
        .collect();
    let mut uf = UnionFind::new(cores.len());
    let mut kept: Vec<(u32, u32)> = Vec::new();
    merge_sorted(
        || a.next_edge(),
        || b.next_edge(),
        |&e| e,
        |(x, y), _| match (slot.get(&x), slot.get(&y)) {
            (Some(&i), Some(&j)) => {
                if uf.union(i, j) {
                    kept.push((x.min(y), x.max(y)));
                }
            }
            _ => kept.push((x, y)),
        },
    )?;
    // Direction normalisation can reorder; restore the run order. (No
    // duplicates arise: inputs are deduplicated and a pair is full in
    // either direction or in neither.)
    kept.sort_unstable();

    // Per core cell: its 4-byte id in `cores`, an 8-byte `slot` entry and
    // a 5-byte union-find node.
    let frontier_bytes = (types.len() * 5 + cores.len() * 17 + kept.len() * 8) as u64;
    Ok((CellSubgraph::from_sorted(types, kept), frontier_bytes))
}

/// A run as the tournament holds it between rounds.
#[derive(Debug, Clone)]
pub enum Run {
    /// Kept in memory (the resident pipeline).
    Memory(CellSubgraph),
    /// Kept in a spill file under the tournament's spill directory, with
    /// its edge count (the out-of-core pipeline).
    Spilled(SpillHandle, usize),
}

/// The directory spilled runs live under.
fn spill_dir(spill: Option<&SpillDir>) -> Result<&SpillDir, StoreError> {
    spill.ok_or(StoreError::InvalidConfig {
        what: "spilled run without a spill directory",
    })
}

impl Run {
    /// Keeps `g` in memory, or writes it to a spill file under `spill`.
    pub fn keep(g: CellSubgraph, spill: Option<&SpillDir>) -> Result<Self, StoreError> {
        Ok(match spill {
            None => Run::Memory(g),
            Some(dir) => Run::Spilled(write_run(dir, &g)?, g.num_edges()),
        })
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        match self {
            Run::Memory(g) => g.num_edges(),
            Run::Spilled(_, edges) => *edges,
        }
    }

    /// Bytes a shuffle moves when this run changes workers.
    fn shuffle_bytes(&self) -> u64 {
        match self {
            Run::Memory(g) => g.wire_bytes(),
            Run::Spilled(handle, _) => handle.bytes(),
        }
    }

    fn reader(&self, spill: Option<&SpillDir>) -> Result<RunReader<'_>, StoreError> {
        match self {
            Run::Memory(g) => Ok(RunReader::memory(g)),
            Run::Spilled(handle, _) => RunReader::open(spill_dir(spill)?, handle),
        }
    }

    /// Releases the run's file, if it has one.
    fn discard(self, spill: Option<&SpillDir>) -> Result<(), StoreError> {
        match self {
            Run::Memory(_) => Ok(()),
            Run::Spilled(handle, _) => spill_dir(spill)?.remove(&handle),
        }
    }

    /// The run as an in-memory graph (reading and removing its file).
    fn into_graph(self, spill: Option<&SpillDir>) -> Result<CellSubgraph, StoreError> {
        let g = self.reader(spill)?.read_all()?;
        self.discard(spill)?;
        Ok(g)
    }
}

/// One match: merges `a` and `b`, releases them, and keeps the output.
/// Returns it with the match's frontier bytes.
fn play_match(a: Run, b: Run, spill: Option<&SpillDir>) -> Result<(Run, u64), StoreError> {
    let (g, frontier) = merge_runs(a.reader(spill)?, b.reader(spill)?)?;
    a.discard(spill)?;
    b.discard(spill)?;
    Ok((Run::keep(g, spill)?, frontier))
}

/// What a finished tournament hands to Phase III-2.
#[derive(Debug, Clone)]
pub struct Tournament {
    /// The global cell graph (Definition 6.1).
    pub global: CellSubgraph,
    /// Edges after each round; index 0 is the pre-merge total
    /// (Figure 17 / Table 7).
    pub edges_per_round: Vec<usize>,
    /// Largest frontier any match held, in bytes.
    pub peak_frontier_bytes: u64,
}

/// Runs the pairwise tournament through `engine`: each round charges the
/// shuffle of every second run to its match's worker, then merges the
/// pairs as one stage. Match outputs stay in memory when `spill` is
/// `None` and are written under it otherwise; spilled input runs must
/// live under it too.
pub fn tournament(
    engine: &Engine,
    mut runs: Vec<Run>,
    spill: Option<&SpillDir>,
) -> Result<Tournament, CoreError> {
    let mut edges_per_round = vec![runs.iter().map(Run::num_edges).sum::<usize>()];
    let mut peak_frontier_bytes = 0u64;
    let mut round = 0;
    while runs.len() > 1 {
        round += 1;
        let moved_bytes: u64 = runs.iter().skip(1).step_by(2).map(Run::shuffle_bytes).sum();
        engine.shuffle_cost(&format!("phase3-1:shuffle-round-{round}"), moved_bytes);
        let mut pairs = Vec::with_capacity(runs.len().div_ceil(2));
        let mut it = runs.into_iter();
        while let Some(a) = it.next() {
            pairs.push((a, it.next()));
        }
        let merged = engine.run_stage(
            &format!("phase3-1:merge-round-{round}"),
            pairs,
            |_ctx, (a, b)| match b {
                None => Ok((a, 0)),
                Some(b) => play_match(a, b, spill).map_err(task_err),
            },
        )?;
        runs = Vec::with_capacity(merged.outputs.len());
        for (run, frontier) in merged.outputs {
            peak_frontier_bytes = peak_frontier_bytes.max(frontier);
            runs.push(run);
        }
        edges_per_round.push(runs.iter().map(Run::num_edges).sum());
    }
    let global = match runs.pop() {
        Some(run) => run.into_graph(spill)?,
        None => CellSubgraph::default(),
    };
    debug_assert!(global.is_global(), "undetermined cells after full merge");
    Ok(Tournament {
        global,
        edges_per_round,
        peak_frontier_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeType;
    use rpdbscan_engine::CostModel;
    use CellType::{Core, NonCore};

    fn core_chain(ids: &[u32]) -> CellSubgraph {
        CellSubgraph::new(
            ids.iter().map(|&c| (c, Core)).collect(),
            ids.windows(2).map(|w| (w[0], w[1])).collect(),
        )
    }

    fn merge(g1: &CellSubgraph, g2: &CellSubgraph) -> CellSubgraph {
        merge_runs(RunReader::memory(g1), RunReader::memory(g2))
            .unwrap()
            .0
    }

    /// Spanning-forest reduction of a single graph: a merge with the
    /// empty run.
    fn reduce(g: &CellSubgraph) -> CellSubgraph {
        merge(g, &CellSubgraph::default())
    }

    fn run_tournament(graphs: Vec<CellSubgraph>) -> Tournament {
        let engine = Engine::with_cost_model(2, CostModel::free());
        tournament(&engine, graphs.into_iter().map(Run::Memory).collect(), None).unwrap()
    }

    #[test]
    fn merge_promotes_undetermined_vertices() {
        let g1 = CellSubgraph::new(vec![(0, Core)], vec![(0, 1)]); // 1 unknown to g1
        let g2 = CellSubgraph::new(vec![(1, NonCore)], vec![]);
        let m = merge(&g1, &g2);
        assert_eq!(m.cell_type(1), NonCore);
        assert_eq!(m.edge_type(0, 1), EdgeType::Partial);
        assert!(m.is_global());
    }

    #[test]
    fn cycle_of_full_edges_is_reduced_to_spanning_tree() {
        // 4-cycle plus a chord: 5 full edges, spanning tree needs 3.
        let g = CellSubgraph::new(
            (0..4).map(|c| (c, Core)).collect(),
            vec![(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
        );
        let r = reduce(&g);
        assert_eq!(r.num_edges(), 3);
        // Connectivity preserved: all four cells in one component.
        let mut uf = UnionFind::new(4);
        for &(a, b) in r.edges() {
            uf.union(a, b);
        }
        let root = uf.find(0);
        for c in 1..4 {
            assert_eq!(uf.find(c), root);
        }
    }

    #[test]
    fn reverse_duplicate_full_edges_collapse() {
        let g = CellSubgraph::new(vec![(0, Core), (1, Core)], vec![(0, 1), (1, 0)]);
        let r = reduce(&g);
        assert_eq!(r.num_edges(), 1, "anti-parallel full edges are one path");
    }

    #[test]
    fn partial_and_undetermined_edges_survive_reduction() {
        // (0, 1) partial; (0, 7) undetermined (7 unknown).
        let g = CellSubgraph::new(vec![(0, Core), (1, NonCore)], vec![(0, 1), (0, 7)]);
        let r = reduce(&g);
        assert_eq!(r.num_edges(), 2);
    }

    #[test]
    fn tournament_merges_everything() {
        // Five chains over disjoint-but-overlapping id ranges.
        let graphs = vec![
            core_chain(&[0, 1, 2]),
            core_chain(&[2, 3]),
            core_chain(&[3, 4]),
            core_chain(&[4, 5]),
            core_chain(&[5, 0]),
        ];
        let t = run_tournament(graphs);
        // The pre-merge total, then ceil(log2(5)) = 3 rounds.
        assert_eq!(t.edges_per_round.len(), 4);
        assert!(t.global.is_global());
        // 6 distinct core cells in one component: spanning tree has 5 edges.
        assert_eq!(t.global.num_edges(), 5);
        // Edge counts must be non-increasing across rounds.
        for w in t.edges_per_round.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn tournament_single_graph_is_identity() {
        let g = core_chain(&[0, 1]);
        let t = run_tournament(vec![g.clone()]);
        assert_eq!(t.edges_per_round, vec![1], "no rounds expected");
        assert_eq!(t.global, g);
    }

    #[test]
    fn tournament_empty_input() {
        let t = run_tournament(vec![]);
        assert_eq!(t.global.num_edges(), 0);
    }

    #[test]
    fn merge_is_deterministic() {
        let make = || {
            let mut edges = Vec::new();
            for a in 0..6 {
                for b in 0..6 {
                    if a != b {
                        edges.push((a, b));
                    }
                }
            }
            let g1 = CellSubgraph::new((0..6).map(|c| (c, Core)).collect(), edges);
            merge(&g1, &core_chain(&[6, 0]))
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn merge_order_does_not_change_connectivity() {
        // Associativity at the clustering level: any merge order yields
        // the same core-cell components.
        let parts = vec![
            core_chain(&[0, 1]),
            core_chain(&[1, 2]),
            core_chain(&[3, 4]),
            core_chain(&[2, 3]),
        ];
        let components = |g: &CellSubgraph| {
            let mut uf = UnionFind::new(5);
            for &(a, b) in g.edges() {
                if g.cell_type(a) == Core && g.cell_type(b) == Core {
                    uf.union(a, b);
                }
            }
            (0..5u32).map(|c| uf.find(c)).collect::<Vec<_>>()
        };
        let fwd = run_tournament(parts.clone()).global;
        let rev = run_tournament(parts.into_iter().rev().collect()).global;
        // All five cells end up connected either way.
        let cf = components(&fwd);
        let cr = components(&rev);
        assert!(cf.iter().all(|&r| r == cf[0]));
        assert!(cr.iter().all(|&r| r == cr[0]));
    }

    /// Writes raw bytes as a spill file (forged headers).
    fn forge(spill: &SpillDir, words: &[u64], tail: &[u8]) -> SpillHandle {
        let mut w = spill.writer().unwrap();
        for &v in words {
            w.write_u64(v).unwrap();
        }
        for &v in tail {
            w.write_u8(v).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn hostile_spill_counts_are_typed_errors() {
        let spill = SpillDir::create(None).unwrap();
        let empty = CellSubgraph::default();
        let cases = [
            // A type count whose byte size overflows u64.
            (forge(&spill, &[u64::MAX / 2, 0], &[]), "spill type count"),
            // A type count larger than the file.
            (forge(&spill, &[1 << 40, 0], &[]), "spill type count"),
            // No types, then an edge count whose byte size overflows.
            (forge(&spill, &[0, u64::MAX / 4], &[]), "spill edge count"),
            // No types, then an edge count larger than the file.
            (forge(&spill, &[0, 1 << 40], &[]), "spill edge count"),
            // One type with an unknown tag.
            (
                forge(&spill, &[1], &[0, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0]),
                "spill cell type",
            ),
        ];
        for (handle, want) in cases {
            let err = RunReader::open(&spill, &handle)
                .and_then(|r| merge_runs(r, RunReader::memory(&empty)))
                .unwrap_err();
            match err {
                StoreError::Corrupt { what, .. } => assert_eq!(what, want),
                other => panic!("expected Corrupt({want}), got {other:?}"),
            }
        }
    }

    #[test]
    fn unsorted_spill_runs_are_typed_errors() {
        let spill = SpillDir::create(None).unwrap();
        // No types, then two edges in descending order.
        let mut w = spill.writer().unwrap();
        for v in [0u64, 2] {
            w.write_u64(v).unwrap();
        }
        for v in [5u32, 6, 1, 2] {
            w.write_u32(v).unwrap();
        }
        let handle = w.finish().unwrap();
        let err = RunReader::open(&spill, &handle)
            .unwrap()
            .read_all()
            .unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Corrupt {
                    what: "spill edges",
                    ..
                }
            ),
            "{err:?}"
        );
    }
}
