//! What a run reports: named metrics with units, the operation count and
//! the failures, printed as text and as the driver's one-line JSON.

use crate::stats::{self, Summary};
use polymath::Json;
use std::collections::BTreeMap;

/// The end-to-end metrics, as `BENCHMARK.json` declares them: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("latency_ms", "ms"),
    ("execute_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// The per-layer metrics, as `BENCHMARK.json` declares them. A workload
/// that never enters a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 68] = [
    ("pmlang.frontend_ms", "ms"),
    ("pmlang.source_bytes", "bytes"),
    ("srdfg.build_ms", "ms"),
    ("srdfg.build_nodes", "count"),
    ("passes.midend_ms", "ms"),
    ("passes.midend_rewrites", "count"),
    ("passes.nodes_after", "count"),
    ("passes.post_lower_ms", "ms"),
    ("analyze.graph_ms", "ms"),
    ("analyze.hazards_ms", "ms"),
    ("analyze.diagnostics", "count"),
    ("lower.alg1_ms", "ms"),
    ("lower.alg1_warm_ms", "ms"),
    ("lower.alg1_nodes", "count"),
    ("lower.alg1_ns_per_node", "ns"),
    ("srdfg.template.hits", "count"),
    ("srdfg.template.misses", "count"),
    ("srdfg.template.bypassed", "count"),
    ("srdfg.template.evictions", "count"),
    ("srdfg.template.hit_ratio", "ratio"),
    ("lower.alg2_ms", "ms"),
    ("lower.alg2_fragments", "count"),
    ("lower.alg2_dma_fragments", "count"),
    ("lower.alg2_dma_bytes", "bytes"),
    ("lower.partitions", "count"),
    ("lower.progkey_us", "us"),
    ("lower.progcache.lookup_us", "us"),
    ("lower.progcache.insert_us", "us"),
    ("lower.progcache.hits", "count"),
    ("lower.progcache.misses", "count"),
    ("lower.progcache.evictions", "count"),
    ("lower.progcache.entries", "count"),
    ("lower.progcache.hit_ratio", "ratio"),
    ("srdfg.store.records", "count"),
    ("srdfg.store.bytes", "bytes"),
    ("srdfg.store.materialized_frac", "ratio"),
    ("srdfg.graph_clone_ms", "ms"),
    ("srdfg.interp_invoke_ms", "ms"),
    ("srdfg.interp_ns_per_node", "ns"),
    ("accel.dispatch_ms", "ms"),
    ("accel.trajectory_ms", "ms"),
    ("accel.trajectory_other_ms", "ms"),
    ("accel.sim_seconds", "s"),
    ("accel.sim_energy_j", "J"),
    ("accel.comm_fraction", "ratio"),
    ("accel.sim_speedup_geomean", "x"),
    ("accel.retries", "count"),
    ("accel.fallbacks", "count"),
    ("core.compile_fresh_ms", "ms"),
    ("core.compile_warm_ms", "ms"),
    ("core.execute_ms", "ms"),
    ("core.compile_first_ms", "ms"),
    ("core.compile_unattributed_frac", "ratio"),
    ("core.serve.requests", "count"),
    ("core.serve.parse_us", "us"),
    ("core.serve.compile_us", "us"),
    ("core.serve.handle_ms", "ms"),
    ("core.serve.other_us", "us"),
    ("core.serve.queue_wait_ms", "ms"),
    ("core.serve.p50_ms", "ms"),
    ("core.serve.p90_ms", "ms"),
    ("core.serve.p99_ms", "ms"),
    ("core.serve.request_bytes", "bytes"),
    ("core.serve.rejected", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
    ("env.nproc", "count"),
    ("env.threads", "count"),
];

/// Samples of named timings, kept apart per group — a program, a serve
/// entry or a program family — because groups differ in size by orders of
/// magnitude and one pooled median would sit between their modes.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<Vec<f64>>>);

impl Samples {
    pub fn add(&mut self, name: &'static str, group: usize, value: f64) {
        let groups = self.0.entry(name).or_default();
        if groups.len() <= group {
            groups.resize(group + 1, Vec::new());
        }
        groups[group].push(value);
    }

    /// Per-group sample sets of `name` (empty when never recorded).
    pub fn groups(&self, name: &str) -> &[Vec<f64>] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Medians of the groups that have samples.
    pub fn medians(&self, name: &str) -> Vec<f64> {
        self.groups(name).iter().filter(|g| !g.is_empty()).map(|g| stats::median(g)).collect()
    }

    /// Mean over groups of the group median: additive across stages, so a
    /// parent's value reconciles with the sum of its stages'.
    pub fn mean_of_medians(&self, name: &str) -> f64 {
        stats::mean(&self.medians(name))
    }

    /// Geometric mean over groups of the group median: scale-free, so no
    /// single large program decides it.
    pub fn geomean_of_medians(&self, name: &str) -> f64 {
        stats::geomean(&self.medians(name))
    }

    /// Every sample of `name`, groups pooled.
    pub fn pooled(&self, name: &str) -> Vec<f64> {
        self.groups(name).concat()
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Free-text detail for the printed row (sample count, quartiles, …).
    pub note: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the printed report.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.note(name, value, unit, String::new());
    }

    pub fn note(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric { name: name.to_string(), value, unit, note });
    }

    /// A timing with its spread: median, quartiles, the highest percentile
    /// that still has ten samples beyond it, and the sample count.
    pub fn timing(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        match Summary::of(samples) {
            None => self.note(name, 0.0, unit, "n=0".into()),
            Some(s) => {
                // The quartiles are printed anyway.
                let tail = s.tail.filter(|(p, _)| *p > 75.0);
                let tail = tail.map_or(String::new(), |(p, v)| format!(" p{p}={v:.4}"));
                let note = format!("n={} p25={:.4} p75={:.4}{tail}", s.n, s.p25, s.p75);
                self.note(name, s.p50, unit, note);
            }
        }
    }

    /// Counts one checked operation.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail(why);
        }
    }

    /// Records a failure that is not an operation of its own.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Whether every output was right; decides the exit code.
    pub fn passed(&self) -> bool {
        self.failed == 0
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The driver's result line over the `declared` metrics.
    ///
    /// # Errors
    ///
    /// Names an end-to-end metric the run did not produce (`required`);
    /// an absent per-layer metric reads 0 — the layer did no work.
    pub fn result_line(
        &self,
        declared: &[(&str, &'static str)],
        required: bool,
    ) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(declared.len());
        for &(name, unit) in declared {
            let value = match self.value(name) {
                Some(v) => v,
                None if required => return Err(format!("metric `{name}` was not measured")),
                None => 0.0,
            };
            let entry = vec![
                ("value".to_string(), Json::Num(value)),
                ("unit".to_string(), Json::Str(unit.into())),
            ];
            metrics.push((name.to_string(), Json::Obj(entry)));
        }
        Ok(Json::Obj(vec![
            ("correct".into(), Json::Bool(self.passed())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render())
    }
}

/// A field of `/proc/self/status` (`VmHWM` in kB, `Threads`); 0 where the
/// file does not exist.
pub fn proc_status(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with(field))?;
            line[field.len()..].trim_start_matches(':').split_whitespace().next()?.parse().ok()
        })
        .unwrap_or(0.0)
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM") / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            let text = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            let list = doc.get(key).and_then(Json::as_array).unwrap();
            list.iter().map(|m| (text(m, "name"), text(m, "unit"))).collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_has_exactly_the_declared_metrics() {
        let mut r = Report::default();
        r.check(Ok(()));
        r.check(Err("wrong".into()));
        r.metric("latency_ms", 1.25, "ms");
        assert!(r.result_line(&END_TO_END, true).unwrap_err().contains("execute_ms"));
        let line = r.result_line(&[("latency_ms", "ms"), ("absent", "count")], false).unwrap();
        assert_eq!(
            line,
            "{\"correct\":false,\"attempted\":2,\"failed\":1,\"metrics\":{\
             \"latency_ms\":{\"value\":1.25,\"unit\":\"ms\"},\
             \"absent\":{\"value\":0,\"unit\":\"count\"}}}"
        );
    }

    #[test]
    fn samples_aggregate_per_group() {
        let mut s = Samples::default();
        for v in [1.0, 2.0, 3.0] {
            s.add("t", 0, v);
        }
        s.add("t", 2, 50.0);
        assert_eq!(s.medians("t"), vec![2.0, 50.0]);
        assert_eq!(s.mean_of_medians("t"), 26.0);
        assert!((s.geomean_of_medians("t") - 10.0).abs() < 1e-12);
        assert_eq!(s.pooled("t").len(), 4);
        assert_eq!(s.mean_of_medians("never"), 0.0);
        assert!(peak_rss_mb() > 0.0 && proc_status("Threads") >= 1.0);
    }
}
