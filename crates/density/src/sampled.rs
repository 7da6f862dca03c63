//! The sampled-core backend (à la DBSCAN++, arXiv 1810.13105).

use crate::uf::UnionFind;
use crate::{DensityBackend, DensityError, DensityOutput, DensityStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpdbscan_core::{CoreError, DensityBackendKind, RpDbscanParams};
use rpdbscan_engine::Engine;
use rpdbscan_geom::{Dataset, KdTree};
use rpdbscan_grid::{CellDictionary, DictionaryIndex, GridSpec, QueryStats, RegionQueryResult};
use rpdbscan_metrics::Clustering;

/// Full `(ε,ρ)`-region queries on a uniform `s`-fraction sample only.
///
/// The cell dictionary is still built from **all** points — densities
/// stay exact; what is sampled is *which* points get the expensive
/// query:
///
/// * a seeded partial Fisher–Yates draw picks `m = ⌈s·n⌉` candidate
///   points (deterministic in `params.seed`, independent of workers);
/// * each candidate runs the ordinary region query (engine-parallel,
///   stats tagged `sampled`) and is core iff its density ≥ `minPts` —
///   exactly the batch rule, so sampled cores are *true* cores;
/// * discovered cores within ε of each other are linked into clusters;
/// * every remaining point joins its nearest core within ε (ties by
///   smallest core id) or is noise.
///
/// The estimate errs toward noise: a true core outside the sample is
/// never flagged, but no non-core point is ever promoted.
pub struct SampledCore {
    params: RpDbscanParams,
    sample_frac: f64,
}

struct Solved {
    core: Vec<bool>,
    labels: Vec<Option<u32>>,
    query: QueryStats,
    searches: u64,
}

impl SampledCore {
    /// Creates the backend; `sample_frac` is the sampled fraction `s`.
    pub fn new(params: RpDbscanParams, sample_frac: f64) -> Self {
        Self {
            params,
            sample_frac,
        }
    }

    /// Deterministic partial Fisher–Yates draw of `m` distinct indices
    /// out of `0..n`, returned sorted ascending.
    fn sample_indices(&self, n: usize, m: usize) -> Vec<u32> {
        let mut idx: Vec<u32> = (0..n as u32).collect();
        let mut rng = StdRng::seed_from_u64(self.params.seed.wrapping_add(0x5a5a_5a5a));
        for i in 0..m {
            let j = rng.gen_range(i..n);
            idx.swap(i, j);
        }
        idx.truncate(m);
        idx.sort_unstable();
        idx
    }

    fn solve(&self, data: &Dataset, engine: &Engine) -> Result<Solved, DensityError> {
        rpdbscan_core::validate_backend_config(&DensityBackendKind::SampledCore {
            sample_frac: self.sample_frac,
        })?;
        let p = &self.params;
        if p.min_pts == 0 {
            return Err(DensityError::Core(CoreError::InvalidMinPts(0)));
        }
        let n = data.len();
        let mut query = QueryStats::default();
        if n == 0 {
            return Ok(Solved {
                core: Vec::new(),
                labels: Vec::new(),
                query,
                searches: 0,
            });
        }

        let spec =
            GridSpec::new(data.dim(), p.eps, p.rho).map_err(rpdbscan_core::CoreError::from)?;
        let dict = CellDictionary::build_from_points(spec, data.iter().map(|(_, pt)| pt));
        let index = DictionaryIndex::new(dict, p.subdict_capacity);

        let m = ((self.sample_frac * n as f64).ceil() as usize).clamp(1, n);
        let sample = self.sample_indices(n, m);

        // Region queries on the sample only, parallel over sample
        // chunks; each task reports its discovered cores and counters.
        let min_pts = p.min_pts as u64;
        let chunks: Vec<Vec<u32>> = crate::point_ranges(m, p.num_partitions)
            .into_iter()
            .map(|(lo, hi)| sample[lo..hi].to_vec())
            .collect();
        let stage = engine.run_stage("density:sampled-cores", chunks, |_ctx, chunk| {
            let mut cores: Vec<u32> = Vec::new();
            let mut stats = QueryStats::default();
            let mut r = RegionQueryResult::default();
            for &i in &chunk {
                index.region_query_cells_into(data.point_at(i as usize), &mut r);
                stats.merge(&r.stats);
                if r.density >= min_pts {
                    cores.push(i);
                }
            }
            Ok((cores, stats))
        })?;
        let mut cores: Vec<u32> = Vec::new();
        for (chunk_cores, stats) in stage.outputs {
            cores.extend(chunk_cores); // chunks are sorted and disjoint
            query.merge(&stats);
        }

        let mut core = vec![false; n];
        for &c in &cores {
            core[c as usize] = true;
        }
        let mut labels: Vec<Option<u32>> = vec![None; n];
        if cores.is_empty() {
            return Ok(Solved {
                core,
                labels,
                query,
                searches: m as u64,
            });
        }

        // Link cores within ε of each other (DBSCAN++'s core graph).
        // Union by smallest position makes components order-free.
        let dim = data.dim();
        let mut core_coords = Vec::with_capacity(cores.len() * dim);
        for &c in &cores {
            core_coords.extend_from_slice(data.point_at(c as usize));
        }
        let core_tree = KdTree::build(dim, core_coords, (0..cores.len() as u32).collect());
        let mut uf = UnionFind::new(cores.len());
        for (pos, &c) in cores.iter().enumerate() {
            core_tree.for_each_within(data.point_at(c as usize), p.eps, |other, _| {
                uf.union(pos as u32, other);
            });
        }
        let root_of: Vec<u32> = (0..cores.len() as u32).map(|c| uf.find(c)).collect();

        // Assign every point to its nearest core within ε (engine-
        // parallel); ties break on the smaller core position, which is
        // the smaller point id because `cores` is sorted.
        let eps = p.eps;
        let ranges = crate::point_ranges(n, p.num_partitions);
        let stage = engine.run_stage("density:sampled-assign", ranges, |_ctx, (lo, hi)| {
            let mut out: Vec<Option<u32>> = Vec::with_capacity(hi - lo);
            for i in lo..hi {
                let mut best: Option<(f64, u32)> = None;
                core_tree.for_each_within(data.point_at(i), eps, |pos, d2| {
                    let better = match best {
                        None => true,
                        Some((bd2, bpos)) => match d2.total_cmp(&bd2) {
                            std::cmp::Ordering::Less => true,
                            std::cmp::Ordering::Equal => pos < bpos,
                            std::cmp::Ordering::Greater => false,
                        },
                    };
                    if better {
                        best = Some((d2, pos));
                    }
                });
                out.push(best.map(|(_, pos)| root_of[pos as usize]));
            }
            Ok(out)
        })?;
        labels = stage.outputs.into_iter().flatten().collect();
        crate::canonicalize(&mut labels);
        Ok(Solved {
            core,
            labels,
            query,
            searches: m as u64 + n as u64 + cores.len() as u64,
        })
    }
}

impl DensityBackend for SampledCore {
    fn name(&self) -> &'static str {
        "sampled"
    }

    fn core_flags(&self, data: &Dataset, engine: &Engine) -> Result<Vec<bool>, DensityError> {
        Ok(self.solve(data, engine)?.core)
    }

    fn cluster(&self, data: &Dataset, engine: &Engine) -> Result<DensityOutput, DensityError> {
        let solved = self.solve(data, engine)?;
        let clustering = Clustering::new(solved.labels);
        let mut stats = DensityStats::new("sampled");
        stats.core_points = Some(solved.core.iter().filter(|c| **c).count());
        stats.neighbor_searches = solved.searches;
        stats.num_clusters = clustering.num_clusters();
        stats.noise_points = clustering.noise_count();
        stats.query = solved.query;
        Ok(DensityOutput { clustering, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpdbscan_engine::CostModel;

    fn engine() -> Engine {
        Engine::with_cost_model(3, CostModel::free())
    }

    fn blobs_with_noise() -> Dataset {
        let mut rows = Vec::new();
        for i in 0..25 {
            rows.push(vec![(i % 5) as f64 * 0.1, (i / 5) as f64 * 0.1]);
        }
        for i in 0..25 {
            rows.push(vec![20.0 + (i % 5) as f64 * 0.1, (i / 5) as f64 * 0.1]);
        }
        rows.push(vec![100.0, 100.0]);
        Dataset::from_rows(2, &rows).unwrap()
    }

    #[test]
    fn full_sample_matches_exact_core_semantics() {
        let data = blobs_with_noise();
        let params = RpDbscanParams::new(0.5, 4);
        // s = 1: every point is queried, so cores are exactly DBSCAN's.
        let out = SampledCore::new(params, 1.0)
            .cluster(&data, &engine())
            .unwrap();
        assert_eq!(out.stats.backend, "sampled");
        assert!(out.stats.query.subdicts_visited > 0);
        assert_eq!(out.clustering.num_clusters(), 2);
        assert_eq!(out.clustering.labels()[50], None);
        assert_eq!(out.clustering.labels()[0], Some(0));
    }

    #[test]
    fn sampling_is_deterministic_and_worker_independent() {
        let data = blobs_with_noise();
        let params = RpDbscanParams::new(0.5, 4).with_seed(7);
        let reference = SampledCore::new(params.with_partitions(1), 0.4)
            .cluster(&data, &Engine::with_cost_model(1, CostModel::free()))
            .unwrap();
        for parts in [2, 5, 13] {
            let out = SampledCore::new(params.with_partitions(parts), 0.4)
                .cluster(&data, &Engine::with_cost_model(4, CostModel::free()))
                .unwrap();
            assert_eq!(out.clustering.labels(), reference.clustering.labels());
        }
    }

    #[test]
    fn different_seeds_draw_different_samples() {
        let a = SampledCore::new(RpDbscanParams::new(0.5, 4).with_seed(1), 0.3);
        let b = SampledCore::new(RpDbscanParams::new(0.5, 4).with_seed(2), 0.3);
        assert_ne!(a.sample_indices(100, 30), b.sample_indices(100, 30));
        // And each draw is sorted and distinct.
        let s = a.sample_indices(100, 30);
        for w in s.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn unsampled_cores_err_toward_noise_not_merges() {
        let data = blobs_with_noise();
        let params = RpDbscanParams::new(0.5, 4).with_seed(3);
        let out = SampledCore::new(params, 0.2)
            .cluster(&data, &engine())
            .unwrap();
        // At most the two true blobs can appear; sampling can split
        // nothing together that exact DBSCAN keeps apart.
        assert!(out.clustering.num_clusters() <= 2);
        assert_eq!(out.clustering.labels()[50], None);
        assert!(
            out.stats.core_points.unwrap() <= 11,
            "only sampled points flag core"
        );
    }

    #[test]
    fn empty_input() {
        let empty = Dataset::from_rows(2, &Vec::<Vec<f64>>::new()).unwrap();
        let out = SampledCore::new(RpDbscanParams::new(1.0, 2), 0.5)
            .cluster(&empty, &engine())
            .unwrap();
        assert_eq!(out.clustering.len(), 0);
        assert_eq!(out.stats.core_points, Some(0));
    }
}
