//! Metric names, statistics helpers and the result line.

use crate::trace::{SelfTimes, Span};
use kfuse_core::fuse::apply_plan;
use kfuse_core::pipeline;
use kfuse_core::plan::FusionPlan;
use kfuse_gpu::GpuSpec;
use kfuse_ir::{KernelId, Program};
use kfuse_sim::simulate_program;
use std::collections::BTreeMap;

/// End-to-end metrics, printed with `--trace 0` (BENCHMARK.json
/// `end_to_end`, same order).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("success_frac", "frac"),
    ("speedup_geomean", "x"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed with `--trace 1` (BENCHMARK.json
/// `per_layer`, same order). A metric a workload does not exercise
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ingest.parse.busy_s", "s"),
    ("ingest.parse.bytes", "bytes"),
    ("ingest.validate.busy_s", "s"),
    ("core.prepare.busy_s", "s"),
    ("core.fingerprint.busy_s", "s"),
    ("core.plan_validate.busy_s", "s"),
    ("core.fuse.busy_s", "s"),
    ("search.solve.busy_s", "s"),
    ("search.generations", "count"),
    ("search.evaluations", "count"),
    ("search.evals_per_s", "1/s"),
    ("search.memo_hit_frac", "frac"),
    ("search.cache_hit_frac", "frac"),
    ("search.warm_start_frac", "frac"),
    ("search.partition.busy_s", "s"),
    ("search.region_solve.busy_s", "s"),
    ("search.reorder_exact_frac", "frac"),
    ("verifier.check_plan.busy_s", "s"),
    ("verifier.hazards.busy_s", "s"),
    ("verifier.analyze.busy_s", "s"),
    ("verifier.errors", "count"),
    ("codegen.module.busy_s", "s"),
    ("codegen.emit.busy_s", "s"),
    ("codegen.cuda_bytes", "bytes"),
    ("sim.simulate.busy_s", "s"),
    ("serve.admit.busy_s", "s"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.worker_solve_ms_p50", "ms"),
    ("serve.rejected", "count"),
    ("serve.outcome_exact_frac", "frac"),
    ("serve.outcome_warm_frac", "frac"),
    ("serve.outcome_cold_frac", "frac"),
    ("traffic.kernels_per_op_p50", "count"),
    ("traffic.json_bytes_per_op_p50", "bytes"),
    ("ingest.share", "frac"),
    ("core.share", "frac"),
    ("search.share", "frac"),
    ("verifier.share", "frac"),
    ("codegen.share", "frac"),
    ("sim.share", "frac"),
    ("serve.share", "frac"),
    ("unattributed.share", "frac"),
    ("obs.trace_overhead_frac", "frac"),
];

/// Linear-interpolated quantile `q` in `[0, 1]` of `v` (sorted inside).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Quantile `q` of the latencies after each is replaced by the mean
/// latency of its class (the request an operation sends, or its kind).
/// The host's speed changes over seconds, and an operation of a few
/// milliseconds sees one moment of it: a quantile of single readings
/// jumps between the fast and the slow value as the slowed share of a run
/// crosses it, while a class mean moves in proportion to that share, as a
/// throughput does.
pub fn class_quantile(v: &[f64], class: &[u64], q: f64) -> f64 {
    let mut sums: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for (&x, &c) in v.iter().zip(class) {
        let e = sums.entry(c).or_default();
        e.0 += x;
        e.1 += 1.0;
    }
    let means: Vec<f64> = class.iter().map(|c| sums[c].0 / sums[c].1).collect();
    quantile(&means, q)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// `num / den`, 0 when `den` is 0.
pub fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Simulated unfused ÷ fused time of `program` under the plan `groups`
/// (kernel indices) on the K20X; an error when the groups are not a
/// partition of the kernels or the plan does not validate and apply.
pub fn simulated_speedup(program: &Program, groups: &[Vec<u32>]) -> Result<f64, String> {
    let mut all: Vec<u32> = groups.iter().flatten().copied().collect();
    all.sort_unstable();
    if !all.iter().copied().eq(0..program.kernels.len() as u32) {
        return Err("plan is not a partition of the kernels".into());
    }
    let gpu = GpuSpec::k20x();
    let prec = gpu.default_precision();
    let (relaxed, ctx) = pipeline::prepare(program, &gpu, prec);
    let plan = FusionPlan::new(
        groups
            .iter()
            .map(|g| g.iter().map(|&k| KernelId(k)).collect())
            .collect(),
    );
    let specs = ctx.validate(&plan).map_err(|e| e.to_string())?;
    let fused =
        apply_plan(&relaxed, &ctx.info, &ctx.exec, &plan, &specs).map_err(|e| e.to_string())?;
    Ok(simulate_program(&gpu, &relaxed, prec).total_s
        / simulate_program(&gpu, &fused, prec).total_s)
}

/// Whether to start another whole cycle of operations in a window of
/// `seconds` that began at `start`: yes while, judged by the mean cycle so
/// far, it would end nearer the window's end than stopping now would. The
/// first cycle always runs. Whole cycles keep the operation mix the same
/// in every run.
pub fn another_cycle(start: std::time::Instant, cycles: usize, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    cycles == 0 || elapsed + 0.5 * elapsed / cycles as f64 <= seconds
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restart the `VmHWM` peak from the current resident set, so a peak can
/// be taken over one stretch of the run. Where the kernel refuses, the
/// peak stays the whole process's.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Everything one workload run measured.
#[derive(Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    /// The first few correctness failures, for the log.
    pub problems: Vec<String>,
    /// Set-up durations (several set-ups per run).
    pub setup_s: Vec<f64>,
    /// Wall time of the measured window.
    pub window_s: f64,
    /// Completed operations in the window.
    pub ops: u64,
    /// Per-operation latency, seconds.
    pub latency_s: Vec<f64>,
    /// The class of each latency (see [`class_quantile`]).
    pub latency_class: Vec<u64>,
    /// Simulated unfused/fused time of the plans returned.
    pub speedups: Vec<f64>,
    /// Peak resident set of each measured stretch, MiB.
    pub rss_mib: Vec<f64>,
    /// Kernels and request/program JSON bytes per operation.
    pub kernels_per_op: Vec<f64>,
    pub bytes_per_op: Vec<f64>,
    /// Per-layer metrics (traced runs).
    pub layer: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Run {
    /// Count one attempted operation; `problem` marks it failed.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.problems.len() < 10 {
                self.problems.push(p);
            }
        }
    }

    /// A failure not tied to one operation (set-up, final checks).
    pub fn fail(&mut self, problem: String) {
        self.check(Some(problem));
    }

    /// Record the latency of one operation of `class`.
    pub fn latency(&mut self, seconds: f64, class: u64) {
        self.latency_s.push(seconds);
        self.latency_class.push(class);
    }

    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let ms = |q| class_quantile(&self.latency_s, &self.latency_class, q) * 1e3;
        vec![
            ("setup_s", median(&self.setup_s)),
            ("ops_per_s", frac(self.ops as f64, self.window_s)),
            ("latency_p50_ms", ms(0.5)),
            ("latency_p90_ms", ms(0.9)),
            ("latency_p99_ms", ms(0.99)),
            (
                "success_frac",
                1.0 - frac(self.failed as f64, self.attempted as f64),
            ),
            ("speedup_geomean", geomean(&self.speedups)),
            ("peak_rss_mb", median(&self.rss_mib)),
        ]
    }

    /// Fill the `<layer>.share` metrics and log the self-time table and
    /// collapsed stacks of `spans`.
    pub fn add_self_times(&mut self, label: &str, st: &SelfTimes) {
        for layer in [
            "ingest",
            "core",
            "search",
            "verifier",
            "codegen",
            "sim",
            "serve",
            "unattributed",
        ] {
            let v = frac(st.by_layer.get(layer).copied().unwrap_or(0.0), st.op_wall);
            let key: &'static str = PER_LAYER
                .iter()
                .map(|(n, _)| *n)
                .find(|n| n.strip_suffix(".share") == Some(layer))
                .expect("every layer has a share metric");
            self.layer.insert(key, v);
        }
        self.self_time_table(label, st);
    }

    /// Log a self-time table (without touching the share metrics).
    pub fn self_time_table(&mut self, label: &str, st: &SelfTimes) {
        self.notes
            .push(format!("self time [{label}]: op wall {:.6} s", st.op_wall));
        for (layer, s) in &st.by_layer {
            self.notes.push(format!(
                "  layer {layer:<14} {s:>12.6} s  {:>6.2}%",
                100.0 * frac(*s, st.op_wall)
            ));
        }
        for (name, s) in &st.by_name {
            self.notes.push(format!(
                "  span  {name:<28} {s:>12.6} s  {:>6.2}%",
                100.0 * frac(*s, st.op_wall)
            ));
        }
        for (stack, s) in &st.stacks {
            self.notes
                .push(format!("  collapsed {stack} {}", (s * 1e6).round() as u64));
        }
    }

    /// Log the latency of each kind of operation.
    pub fn kind_notes(&mut self, label: &str, by_kind: &[BTreeMap<String, Vec<f64>>]) {
        let mut all: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for m in by_kind {
            for (k, v) in m {
                all.entry(k).or_default().extend(v);
            }
        }
        for (k, v) in all {
            self.notes.push(format!(
                "{label} latency {k:<10} n {:>4}  p50 {:>10.3} ms  min {:>10.3}  max {:>10.3}",
                v.len(),
                quantile(&v, 0.5) * 1e3,
                quantile(&v, 0.0) * 1e3,
                quantile(&v, 1.0) * 1e3
            ));
        }
    }

    /// Log the traffic record: distribution of kernels and bytes per op.
    pub fn traffic_notes(&mut self) {
        let dist = |v: &[f64]| {
            format!(
                "min {:.0} p50 {:.0} p90 {:.0} max {:.0} (n={})",
                quantile(v, 0.0),
                quantile(v, 0.5),
                quantile(v, 0.9),
                quantile(v, 1.0),
                v.len()
            )
        };
        let k = dist(&self.kernels_per_op);
        let b = dist(&self.bytes_per_op);
        self.notes.push(format!("traffic: kernels/op {k}"));
        self.notes.push(format!("traffic: json bytes/op {b}"));
        self.layer.insert(
            "traffic.kernels_per_op_p50",
            quantile(&self.kernels_per_op, 0.5),
        );
        self.layer.insert(
            "traffic.json_bytes_per_op_p50",
            quantile(&self.bytes_per_op, 0.5),
        );
    }
}

/// Overhead of tracing: mean traced latency over mean untraced latency,
/// minus one, both taken per operation kind so the mix cancels.
pub fn trace_overhead(
    untraced: &BTreeMap<String, Vec<f64>>,
    traced: &BTreeMap<String, Vec<f64>>,
) -> f64 {
    let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    let (mut u, mut t) = (0.0, 0.0);
    for (kind, tv) in traced {
        if let Some(uv) = untraced.get(kind) {
            if !uv.is_empty() && !tv.is_empty() {
                u += mean(uv);
                t += mean(tv);
            }
        }
    }
    frac(t, u) - if u > 0.0 { 1.0 } else { 0.0 }
}

/// Sum of span durations by name, for `<name>.busy_s` metrics.
pub fn add_busy(run: &mut Run, spans: &[Span], names: &[&'static str]) {
    for &n in names {
        let key: &'static str = PER_LAYER
            .iter()
            .map(|(m, _)| *m)
            .find(|m| m.strip_suffix(".busy_s") == Some(n))
            .expect("span has a busy metric");
        *run.layer.entry(key).or_default() += crate::trace::busy(spans, n);
    }
}

/// Format a number for the result line: every digit, never NaN.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: the last line of standard output.
pub fn result_line(run: &Run, trace: bool) -> String {
    let metrics: Vec<String> = if trace {
        PER_LAYER
            .iter()
            .map(|(n, u)| {
                let v = run.layer.get(n).copied().unwrap_or(0.0);
                format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(v))
            })
            .collect()
    } else {
        let e2e = run.end_to_end();
        END_TO_END
            .iter()
            .map(|(n, u)| {
                let v = e2e.iter().find(|(m, _)| m == n).map_or(0.0, |(_, v)| *v);
                format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(v))
            })
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0 && run.attempted > 0,
        run.attempted.max(1),
        run.failed,
        metrics.join(", ")
    )
}
