//! `plan_cold`: Algorithm 1 plus code generation on programs built in
//! process, with no cache. Each operation takes one program through
//! prepare → search → plan validation → fusion → simulation (unfused and
//! fused) → module build → CUDA emission → module analysis → plan and
//! hazard verification.

use crate::gen::Rng;
use crate::report::{self, Run};
use crate::trace::{self, Tracer};
use kfuse_core::fuse::apply_plan;
use kfuse_core::model::ProposedModel;
use kfuse_core::pipeline::{self, Solver};
use kfuse_core::plan::FusionPlan;
use kfuse_gpu::GpuSpec;
use kfuse_ir::{ArrayId, Program};
use kfuse_obs::{Counter, InMemoryRecorder, ObsHandle, SpanId, TraceEvent};
use kfuse_search::HggaHierSolver;
use kfuse_sim::{run_block_mode, run_reference, simulate_program, DeviceState};
use std::collections::BTreeMap;
use std::time::Instant;

/// The fixed program set. `synth1000` is above the hierarchical solver's
/// flat threshold, the rest below it.
const PROGRAMS: [&str; 5] = ["rk3", "homme", "suite", "scale-les", "synth1000"];

/// Operations per cycle of each program. The middle program is sent
/// three times so the median latency is a mean of several searches.
const WEIGHTS: [usize; 5] = [1, 1, 3, 1, 1];

/// Programs small enough to interpret twice per run (after the window).
const INTERPRETED: [&str; 1] = ["synth1000"];

fn build_programs() -> Vec<Program> {
    PROGRAMS
        .iter()
        .map(|n| kfuse_workloads::by_name(n).expect("built-in example"))
        .collect()
}

/// One set-up sample: build the programs a few times and return the
/// time of one build, in seconds.
fn time_setup(programs: &mut Vec<Program>) -> f64 {
    const BATCH: u32 = 4;
    let t0 = Instant::now();
    for _ in 0..BATCH {
        *programs = build_programs();
    }
    t0.elapsed().as_secs_f64() / f64::from(BATCH)
}

/// What one operation produced, for the cross-cycle and semantic checks.
struct Planned {
    plan: FusionPlan,
    relaxed: Program,
    fused: Program,
    speedup: f64,
    cuda_bytes: usize,
}

/// Search counters summed over the traced operations.
#[derive(Default)]
struct SearchCounts {
    generations: u64,
    evaluations: u64,
    memo_probes: u64,
    partition_s: f64,
    region_solve_s: f64,
    verifier_errors: u64,
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Run {
    let mut run = Run::default();
    let gpu = GpuSpec::k20x();
    let prec = gpu.default_precision();
    let model = ProposedModel::default();

    // Building the programs takes a few milliseconds, and the host's speed
    // drifts over seconds, so a few samples at the start would catch one
    // moment of it. The set-up is timed 9 times here and once more after
    // every operation (outside the window), and the run reports the median.
    let mut programs = Vec::new();
    for _ in 0..9 {
        run.setup_s.push(time_setup(&mut programs));
    }
    // Every operation gets its own solver seed, drawn from the run seed,
    // so a run averages over as many searches as it makes.
    let mut rng = Rng::new(seed);

    // With tracing, the first cycle runs untraced to price the tracing.
    let tracer = Tracer::new(traced);
    let mut first: Vec<Option<(u64, Planned)>> = (0..programs.len()).map(|_| None).collect();
    let mut lat_by_kind: [BTreeMap<String, Vec<f64>>; 2] = Default::default();
    let mut counts = SearchCounts::default();
    let mut op = 0u64;
    let mut cycle = 0usize;
    report::reset_peak_rss();
    let mut start = Instant::now();
    let mut rebuilt = Vec::new();
    while report::another_cycle(start, cycle, seconds) {
        let trace_cycle = traced && cycle > 0;
        let mix = (0..programs.len()).flat_map(|i| std::iter::repeat_n(i, WEIGHTS[i]));
        for i in mix {
            let p = &programs[i];
            let solver_seed = rng.next_u64();
            let t0 = Instant::now();
            let res = plan_one(
                p,
                solver_seed,
                &gpu,
                &model,
                prec,
                if trace_cycle { Some(&tracer) } else { None },
                op,
                &mut counts,
            );
            let dt = t0.elapsed().as_secs_f64();
            run.latency(dt, i as u64);
            run.kernels_per_op.push(p.kernels.len() as f64);
            lat_by_kind[trace_cycle as usize]
                .entry(PROGRAMS[i].to_string())
                .or_default()
                .push(dt);
            run.ops += 1;
            op += 1;
            let problem = match res {
                Err(e) => Some(format!("{}: {e}", PROGRAMS[i])),
                Ok(planned) => {
                    if first[i].is_none() {
                        first[i] = Some((solver_seed, planned));
                    }
                    None
                }
            };
            run.check(problem);
            // A set-up sample; moving the start excludes it from the window.
            let t0 = Instant::now();
            run.setup_s.push(time_setup(&mut rebuilt));
            start += t0.elapsed();
        }
        // Peak memory per cycle; the run reports their median.
        run.rss_mib.push(report::peak_rss_mib());
        report::reset_peak_rss();
        cycle += 1;
    }
    run.window_s = start.elapsed().as_secs_f64();

    // Cycle 0 gives the plan quality (exact for a given seed), and its
    // smallest program is solved again: the same seed must give the same
    // plan.
    for (i, f) in first.iter().enumerate() {
        let Some((solver_seed, f)) = f else { continue };
        run.speedups.push(f.speedup);
        if i == 0 {
            let again = plan_one(
                &programs[0],
                *solver_seed,
                &gpu,
                &model,
                prec,
                None,
                op,
                &mut SearchCounts::default(),
            );
            run.check(match again {
                Ok(a) if a.plan == f.plan => None,
                Ok(_) => Some(format!("{}: same seed, different plan", PROGRAMS[0])),
                Err(e) => Some(format!("{}: {e}", PROGRAMS[0])),
            });
        }
        run.notes.push(format!(
            "plan_cold {}: {} kernels -> {} calls, simulated speedup {:.4}",
            PROGRAMS[i],
            f.relaxed.kernels.len(),
            f.fused.kernels.len(),
            f.speedup
        ));
        // Semantic check outside the window: the fused program, run block
        // by block, must bit-equal the relaxed program run kernel by kernel.
        if INTERPRETED.contains(&PROGRAMS[i]) {
            let mut reference = DeviceState::default_init(&f.relaxed);
            run_reference(&f.relaxed, &mut reference);
            let mut fused = DeviceState::default_init(&f.fused);
            run_block_mode(&f.fused, &mut fused);
            let diverged = (0..f.relaxed.arrays.len())
                .map(|a| ArrayId(a as u32))
                .find(|&a| !reference.array_eq(&fused, a));
            run.check(diverged.map(|a| {
                format!(
                    "{}: fused program diverges from the reference on array {a}",
                    PROGRAMS[i]
                )
            }));
        }
    }
    run.kind_notes("plan_cold", &lat_by_kind);
    run.traffic_notes();

    if traced {
        let spans = tracer.spans();
        report::add_busy(
            &mut run,
            &spans,
            &[
                "core.prepare",
                "core.plan_validate",
                "core.fuse",
                "search.solve",
                "verifier.check_plan",
                "verifier.hazards",
                "verifier.analyze",
                "codegen.module",
                "codegen.emit",
                "sim.simulate",
            ],
        );
        let solve_s = trace::busy(&spans, "search.solve");
        let l = &mut run.layer;
        l.insert("search.generations", counts.generations as f64);
        l.insert("search.evaluations", counts.evaluations as f64);
        l.insert(
            "search.evals_per_s",
            report::frac(counts.evaluations as f64, solve_s),
        );
        l.insert(
            "search.memo_hit_frac",
            1.0 - report::frac(counts.evaluations as f64, counts.memo_probes as f64),
        );
        l.insert("search.partition.busy_s", counts.partition_s);
        l.insert("search.region_solve.busy_s", counts.region_solve_s);
        // Emitted CUDA of cycle 0's plans: exact for a given seed.
        let cuda: usize = first.iter().flatten().map(|(_, f)| f.cuda_bytes).sum();
        l.insert("codegen.cuda_bytes", cuda as f64);
        l.insert("verifier.errors", counts.verifier_errors as f64);
        l.insert(
            "obs.trace_overhead_frac",
            report::trace_overhead(&lat_by_kind[0], &lat_by_kind[1]),
        );
        let st = trace::self_times(&spans, |_| true);
        run.add_self_times("plan_cold", &st);
    }
    run
}

/// One operation. Spans and counters are recorded only under `tracer`.
#[allow(clippy::too_many_arguments)]
fn plan_one(
    p: &Program,
    seed: u64,
    gpu: &GpuSpec,
    model: &ProposedModel,
    prec: kfuse_gpu::FpPrecision,
    tracer: Option<&Tracer>,
    op: u64,
    counts: &mut SearchCounts,
) -> Result<Planned, String> {
    let off = Tracer::new(false);
    let tr = tracer.unwrap_or(&off);
    let root = tr.open(op);
    let (relaxed, ctx) = tr.time("core.prepare", op, root, || pipeline::prepare(p, gpu, prec));
    let solver = HggaHierSolver::with_seed(seed);
    let recorder = tr.on().then(InMemoryRecorder::new);
    let obs = recorder
        .as_ref()
        .map_or_else(ObsHandle::disabled, |r| ObsHandle::new(r));
    let out = tr.time("search.solve", op, root, || {
        solver.solve_observed(&ctx, model, obs)
    });
    let specs = tr
        .time("core.plan_validate", op, root, || ctx.validate(&out.plan))
        .map_err(|e| format!("plan fails validation: {e}"))?;
    let fused = tr
        .time("core.fuse", op, root, || {
            apply_plan(&relaxed, &ctx.info, &ctx.exec, &out.plan, &specs)
        })
        .map_err(|e| format!("fusion failed: {e}"))?;
    let before = tr.time("sim.simulate", op, root, || {
        simulate_program(gpu, &relaxed, prec)
    });
    let after = tr.time("sim.simulate", op, root, || {
        simulate_program(gpu, &fused, prec)
    });
    let opts = kfuse_codegen::CodegenOptions::default();
    let module = tr.time("codegen.module", op, root, || {
        kfuse_codegen::build_module(&fused, &opts)
    });
    let cuda = tr.time("codegen.emit", op, root, || {
        kfuse_codegen::print_module(&module)
    });
    let analysis = tr.time("verifier.analyze", op, root, || {
        kfuse_verify::analyze_module(&module)
    });
    let plan_report = tr.time("verifier.check_plan", op, root, || {
        kfuse_verify::check_plan(&ctx.info, &out.plan, Some(model))
    });
    let hazards = tr.time("verifier.hazards", op, root, || {
        kfuse_verify::check_program(&fused)
    });
    tr.close(root, std::time::Instant::now());

    if let Some(rec) = &recorder {
        counts.generations += out.metrics.get(Counter::Generations);
        counts.evaluations += out.metrics.get(Counter::MemoMisses);
        counts.memo_probes += out.metrics.get(Counter::MemoProbes);
        for ev in rec.events() {
            if let TraceEvent::Span { id, dur, .. } = ev {
                match id {
                    SpanId::PartitionPass => counts.partition_s += dur.as_secs_f64(),
                    SpanId::RegionSolve => counts.region_solve_s += dur.as_secs_f64(),
                    _ => {}
                }
            }
        }
        counts.verifier_errors +=
            (analysis.error_count() + plan_report.error_count() + hazards.error_count()) as u64;
    }

    for (what, r) in [
        ("module analysis", &analysis),
        ("plan check", &plan_report),
        ("hazard check", &hazards),
    ] {
        if !r.is_clean() {
            return Err(format!("{what}: {} error(s)", r.error_count()));
        }
    }
    if cuda.is_empty() {
        return Err("empty CUDA output".into());
    }
    let speedup = before.total_s / after.total_s;
    if !speedup.is_finite() || speedup <= 0.0 {
        return Err(format!("simulated speedup {speedup} is not positive"));
    }
    Ok(Planned {
        plan: out.plan,
        relaxed,
        fused,
        speedup,
        cuda_bytes: cuda.len(),
    })
}
