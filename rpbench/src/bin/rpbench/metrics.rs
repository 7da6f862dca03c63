//! The metric names the benchmark reports, and the collector a workload
//! fills. `BENCHMARK.json` at the repository root lists the same names;
//! the smoke test keeps the two in step.

/// End-to-end metrics: what a user of the workload sees. Every workload
/// reports every one; "op" is the workload's unit of work (see README).
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("op_p50_ms", "ms")];

/// Per-layer metrics, named after the repository's modules. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("process.peak_rss_mb", "MB"),
    ("data.csv_read_s", "s"),
    ("store.ingest_s", "s"),
    ("store.finish_s", "s"),
    ("store.open_s", "s"),
    ("store.pool.hits", "count"),
    ("store.pool.misses", "count"),
    ("store.pool.hit_rate", "ratio"),
    ("store.pool.evictions", "count"),
    ("store.pool.peak_bytes", "bytes"),
    ("store.spill.bytes_written", "bytes"),
    ("store.spill.bytes_read", "bytes"),
    ("store.merge.frontier_peak_bytes", "bytes"),
    ("engine.busy_s", "s"),
    ("engine.sim_s", "s"),
    ("engine.thread_util", "ratio"),
    ("engine.outside_stages_est_s", "s"),
    ("engine.phase2.imbalance", "ratio"),
    ("core.phase1_1.busy_s", "s"),
    ("core.phase1_1.span_s", "s"),
    ("core.phase1_2.busy_s", "s"),
    ("core.phase1_2.span_s", "s"),
    ("core.phase2.busy_s", "s"),
    ("core.phase2.span_s", "s"),
    ("core.phase3_1.busy_s", "s"),
    ("core.phase3_1.span_s", "s"),
    ("core.phase3_2.busy_s", "s"),
    ("core.phase3_2.span_s", "s"),
    ("core.phase1_2.dict_wire_bytes", "bytes"),
    ("core.phase3_1.rounds", "count"),
    ("core.phase3_1.edges_pre", "count"),
    ("core.phase3_1.edges_post", "count"),
    ("grid.dict_cells", "count"),
    ("grid.cells_routed_planned", "count"),
    ("grid.cells_routed_kd", "count"),
    ("grid.plan_hits", "count"),
    ("grid.cells_planned_full", "count"),
    ("grid.subdict_skip_ratio", "ratio"),
    ("stream.preload_s", "s"),
    ("stream.push_s", "s"),
    ("stream.dirty_cells", "count"),
    ("stream.expired", "count"),
    ("serve.index_build_s", "s"),
    ("serve.server_warm_s", "s"),
    ("serve.patch_s", "s"),
    ("serve.publish_s", "s"),
    ("serve.rebuilt_cells", "count"),
    ("serve.shared_shards", "count"),
    ("serve.plans_warmed_per_publish", "count"),
    ("serve.plan_carry_ratio", "ratio"),
    ("serve.freshness_s", "s"),
    ("serve.churn_read_tail_ms", "ms"),
    ("serve.drain_busy_s", "s"),
    ("serve.drains", "count"),
    ("serve.batch_mean", "count"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.rejected", "count"),
    ("serve.gen_late_p99_ms", "ms"),
    ("serve.read_tail_ms", "ms"),
    ("serve.max_read_qps", "qps"),
    ("trace.overhead_frac", "ratio"),
];

/// Metric values in the order they were put, each checked against a
/// list so a misspelt name fails loudly instead of printing a stray.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Sets `name` (which must be in [`END_TO_END`] or [`PER_LAYER`]).
    pub fn put(&mut self, name: &str, value: f64) {
        let (name, unit) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .copied()
            .unwrap_or_else(|| panic!("unlisted metric {name}"));
        let value = if value.is_finite() { value } else { 0.0 };
        match self.values.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value, unit)),
        }
    }

    /// The metrics of `list`, in its order; a name never put reads 0.
    pub fn select(
        &self,
        list: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, f64, &'static str)> {
        list.iter()
            .map(|&(name, unit)| {
                let value = self
                    .values
                    .iter()
                    .find(|(n, _, _)| *n == name)
                    .map_or(0.0, |v| v.1);
                (name, value, unit)
            })
            .collect()
    }
}
