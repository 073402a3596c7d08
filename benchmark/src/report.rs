//! Metric tables, the run envelope, and the result line.
//!
//! The tables here are the single list of what the benchmark reports;
//! a unit test holds `BENCHMARK.json` to them.

use crate::workloads::Cx;
use serde_json::Value;
use std::collections::BTreeMap;

/// One reported metric: `(name, unit, better)`.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// End-to-end metrics, printed by `e2e` for every workload. What an
/// "operation" is on each workload is stated in `README.md`.
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("lat_p50_ms", "ms", "lower"),
    ("lat_tail_ms", "ms", "lower"),
    ("slo_share", "share", "higher"),
    ("rss_peak_mb", "MiB", "lower"),
];

/// Per-layer metrics, printed by `traced` for every workload. A layer
/// a workload does not exercise reports 0: that the workload bypasses
/// the layer is the point of having it.
pub const PER_LAYER: &[MetricDef] = &[
    // graph
    ("graph.gen_s", "s", "lower"),
    ("graph.delta_apply_us", "us", "lower"),
    ("graph.delta_compact_ms", "ms", "lower"),
    ("graph.rcm_compact_ms", "ms", "lower"),
    ("graph.publish_us", "us", "lower"),
    ("graph.csr_bytes_per_edge", "B/edge", "lower"),
    // local
    ("local.push_us_p50", "us", "lower"),
    ("local.push_us_p99", "us", "lower"),
    ("local.push_work_per_q", "count", "lower"),
    ("local.pushes_per_q", "count", "lower"),
    ("local.touched_per_q", "count", "lower"),
    ("local.push_support_per_q", "count", "lower"),
    ("local.push_size_ratio", "ratio", "lower"),
    ("local.sweep_us_p50", "us", "lower"),
    ("local.splice_us_p50", "us", "lower"),
    ("local.splice_support_per_q", "count", "lower"),
    ("local.splice_mass_ratio", "ratio", "higher"),
    ("local.sketch_build_s", "s", "lower"),
    ("local.sketch_mb", "MiB", "lower"),
    ("local.repair_us_p50", "us", "lower"),
    ("local.repair_pushes_per_delta", "count", "lower"),
    // serve
    ("serve.service_us_p50", "us", "lower"),
    ("serve.service_us_p99", "us", "lower"),
    ("serve.self_us_p50", "us", "lower"),
    ("serve.self_share", "share", "lower"),
    ("serve.cache_hit_us_p50", "us", "lower"),
    ("serve.full_share", "share", "higher"),
    ("serve.cached_share", "share", "higher"),
    ("serve.spliced_share", "share", "higher"),
    ("serve.degraded_share", "share", "lower"),
    ("serve.batch_mean", "count", "higher"),
    ("serve.delta_ms_p50", "ms", "lower"),
    ("serve.delta_ms_max", "ms", "lower"),
    ("serve.compact_ms_p50", "ms", "lower"),
    ("serve.writer_stall_share", "share", "lower"),
    ("serve.answers_repaired_per_delta", "count", "lower"),
    ("serve.answers_dropped_per_delta", "count", "lower"),
    ("serve.mutate_p99_ratio", "ratio", "lower"),
    ("serve.sketch_repair_ms_p50", "ms", "lower"),
    ("serve.trace_events_per_req", "count", "lower"),
    ("serve.diag_events_per_resp", "count", "lower"),
    ("serve.rss_kb_per_req", "KiB", "lower"),
    ("serve.backlog_max", "count", "lower"),
    ("serve.gen_lag_ms_p99", "ms", "lower"),
    // The ISSUE's workload-specific end-to-end readings. The driver's
    // contract wants every end-to-end metric from every workload, so
    // the ones only one workload has are reported here instead.
    ("serve.qps_sat", "1/s", "higher"),
    ("serve.size_ratio", "ratio", "lower"),
    ("serve.sketch_gain", "ratio", "higher"),
    ("serve.write_ms_p50", "ms", "lower"),
    ("serve.fail_share", "share", "lower"),
    // exec
    ("exec.region_us", "us", "lower"),
    ("exec.batch_speedup", "ratio", "higher"),
    // mem
    ("mem.allocs_per_req", "count", "lower"),
    ("mem.alloc_kb_per_req", "KiB", "lower"),
    ("mem.allocs_per_push", "count", "lower"),
    // linalg
    ("linalg.spmv_ms_p50", "ms", "lower"),
    ("linalg.spmv_gnnz_s", "Gnnz/s", "higher"),
    ("linalg.spmv_bytes_per_nnz", "B/nnz", "lower"),
    ("linalg.lanczos_s", "s", "lower"),
    ("linalg.lanczos_matvecs", "count", "lower"),
    ("linalg.lanczos_op_share", "share", "higher"),
    // spectral
    ("spectral.laplacian_ms", "ms", "lower"),
    ("spectral.fiedler_s", "s", "lower"),
    ("spectral.fiedler_residual", "norm", "lower"),
    ("spectral.lambda2", "value", "higher"),
    ("spectral.diffusion_s", "s", "lower"),
    ("spectral.pagerank_ms_per_sweep", "ms", "lower"),
    ("spectral.heat_kernel_ms", "ms", "lower"),
    // partition / flow
    ("partition.ncp_local_s", "s", "lower"),
    ("partition.ncp_local_runs", "count", "lower"),
    ("partition.ncp_local_ms_per_run", "ms", "lower"),
    ("partition.ncp_flow_s", "s", "lower"),
    ("partition.multilevel_ms", "ms", "lower"),
    ("flow.mqi_ms_p50", "ms", "lower"),
    ("flow.mqi_calls", "count", "lower"),
    ("partition.min_phi_local", "value", "lower"),
    ("partition.min_phi_flow", "value", "lower"),
    // trace
    ("trace.overhead_share", "share", "lower"),
];

/// What one run found.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (requests sent, writes, batch stage runs).
    pub attempted: usize,
    /// Operations that failed or whose output failed a check.
    pub failed: usize,
    /// `name → value` of the metrics measured so far.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Readings printed for the reader but not part of the result line
    /// (`(name, value, unit)`), e.g. the phase-by-phase numbers.
    pub detail: Vec<(String, f64, &'static str)>,
    /// Sample counts per phase, for the envelope.
    pub samples: Vec<(String, usize)>,
}

impl Report {
    /// Record a metric of the result line.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a reading for the human-readable table only.
    pub fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.detail.push((name.into(), value, unit));
    }

    /// Record how many samples a phase produced.
    pub fn count(&mut self, phase: impl Into<String>, n: usize) {
        self.samples.push((phase.into(), n));
    }

    /// Count `n` attempted operations of which `failed` failed.
    pub fn ops(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Count one output check as an operation.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("CHECK FAILED: {what}");
        }
    }

    /// The result line for `table`: every metric of the table, in
    /// table order of names (the JSON object itself is key-sorted).
    /// An end-to-end metric must have been measured; a per-layer one
    /// the workload never touched reads 0.
    pub fn result_line(&self, table: &[MetricDef], zero_fill: bool) -> String {
        let mut metrics = BTreeMap::new();
        for &(name, unit, _) in table {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if zero_fill => 0.0,
                None => panic!("metric {name} was not measured"),
            };
            let mut m = BTreeMap::new();
            m.insert("value".to_owned(), Value::from(value));
            m.insert("unit".to_owned(), Value::from(unit));
            metrics.insert(name.to_owned(), Value::Object(m));
        }
        let mut root = BTreeMap::new();
        root.insert("correct".to_owned(), Value::from(self.failed == 0));
        root.insert("attempted".to_owned(), Value::from(self.attempted.max(1)));
        root.insert("failed".to_owned(), Value::from(self.failed));
        root.insert("metrics".to_owned(), Value::Object(metrics));
        serde_json::to_string(&Value::Object(root))
    }

    /// Print the table a person reads: every metric by name with unit,
    /// then the detail readings.
    pub fn print_table(&self, table: &[MetricDef]) {
        for &(name, unit, _) in table {
            if let Some(v) = self.metrics.get(name) {
                println!("  {name:<34} {v:>16.6} {unit}");
            }
        }
        for (name, v, unit) in &self.detail {
            println!("  {name:<34} {v:>16.6} {unit}");
        }
        println!(
            "  operations attempted {} failed {}",
            self.attempted, self.failed
        );
    }
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_owned())
}

/// The git revision of the checkout the benchmark runs in, read from
/// `.git` without starting a process; "unknown" outside a repository.
fn git_rev() -> String {
    let head = match read_trimmed(".git/HEAD") {
        Some(h) => h,
        None => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => read_trimmed(&format!(".git/{r}")).unwrap_or_else(|| "unknown".into()),
        None => head,
    }
}

/// Peak resident set size of this process so far (`VmHWM`), MiB.
pub fn rss_peak_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

/// Current resident set size of this process (`VmRSS`), KiB.
pub fn rss_now_kb() -> f64 {
    proc_status_kb("VmRSS:")
}

fn proc_status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// The envelope every output carries: where and how the run was made.
pub fn envelope(binary: &str, workload: &str, cx: &Cx, samples: &[(String, usize)]) -> String {
    let mut e = BTreeMap::new();
    let mut put = |k: &str, v: Value| {
        e.insert(k.to_owned(), v);
    };
    put("binary", Value::from(binary));
    put("workload", Value::from(workload));
    put("seed", Value::from(cx.seed));
    put("seconds", Value::from(cx.seconds));
    put("smoke", Value::from(cx.smoke));
    put(
        "host",
        Value::from(read_trimmed("/proc/sys/kernel/hostname").unwrap_or_else(|| "unknown".into())),
    );
    put(
        "nproc",
        Value::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
    );
    put(
        "acir_threads",
        Value::from(std::env::var("ACIR_THREADS").unwrap_or_else(|_| "unset".into())),
    );
    put(
        "llc",
        Value::from(
            read_trimmed("/sys/devices/system/cpu/cpu0/cache/index3/size")
                .unwrap_or_else(|| "unknown".into()),
        ),
    );
    put("rustc", Value::from(env!("ACIR_BENCH_RUSTC")));
    put("git_rev", Value::from(git_rev()));
    let counts: BTreeMap<String, Value> = samples
        .iter()
        .map(|(k, n)| (k.clone(), Value::from(*n)))
        .collect();
    put("samples", Value::Object(counts));
    serde_json::to_string(&Value::Object(e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &Value, key: &str) -> Vec<(String, String, String)> {
        v.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Value::as_str).expect("field").to_owned();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let owned = |t: &[MetricDef]| -> Vec<(String, String, String)> {
            t.iter()
                .map(|&(n, u, b)| (n.to_owned(), u.to_owned(), b.to_owned()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(names(&doc, "per_layer"), owned(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::workloads::ALL.map(|w| w.0));
    }

    #[test]
    fn result_line_carries_every_metric_of_its_table() {
        let mut r = Report::default();
        for &(name, _, _) in END_TO_END {
            r.set(name, 1.5);
        }
        r.ops(10, 0);
        let line = r.result_line(END_TO_END, false);
        let doc = serde_json::from_str(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Value::as_u64), Some(10));
        let m = doc.get("metrics").and_then(Value::as_object).unwrap();
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(m["setup_s"].get("unit").and_then(Value::as_str), Some("s"));
        // Per-layer lines zero-fill the layers a workload bypasses.
        let line = Report::default().result_line(PER_LAYER, true);
        let doc = serde_json::from_str(&line).unwrap();
        let m = doc.get("metrics").and_then(Value::as_object).unwrap();
        assert_eq!(m.len(), PER_LAYER.len());
    }
}
