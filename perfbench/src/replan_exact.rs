//! `replan_exact`: program JSON text → parse → validate → prepare →
//! `WarmSolver::solve_shared` against a plan cache filled during set-up.
//! Every text is the cached program itself or a copy with its arrays
//! renumbered and renamed, so every operation must be an exact hit with
//! zero generations.

use crate::gen::{self, Rng};
use crate::report::{self, Run};
use crate::trace::{self, Tracer};
use kfuse_core::fingerprint::{kernel_colors, kernel_signatures, program_fingerprint_with};
use kfuse_core::model::ProposedModel;
use kfuse_core::pipeline;
use kfuse_core::pipeline::SolveOutcome;
use kfuse_core::plan::{FusionPlan, PlanContext};
use kfuse_gpu::GpuSpec;
use kfuse_ir::Program;
use kfuse_obs::{Counter, InMemoryRecorder, ObsHandle, SpanId, TraceEvent};
use kfuse_search::{HggaHierSolver, PlanCache, WarmSolver};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// The programs, and how many renamed copies of each one cycle sends
/// besides the program itself. The 500-kernel program goes once per
/// cycle: its parse alone is most of a cycle at this commit. The two
/// small programs go eight times each, so the median operation is a
/// suite re-plan and its mean latency is taken over many readings.
const PROGRAMS: [(&str, usize); 5] = [
    ("homme", 7),
    ("suite", 7),
    ("scale-les", 1),
    ("synth250", 1),
    ("synth500", 0),
];

/// One request text and the program it encodes.
struct Text {
    base: usize,
    json: String,
}

struct Setup {
    bases: Vec<Program>,
    texts: Vec<Text>,
    cache: Mutex<PlanCache>,
    dir: PathBuf,
    /// The plan the cache holds for each base program.
    plans: Vec<FusionPlan>,
}

/// Build the texts and fill a fresh cache in `dir`. The cache is filled
/// by short searches (population 20, 20 generations): the workload
/// measures re-planning, not the quality of the plan being served.
fn setup(seed: u64, dir: &Path, gpu: &GpuSpec, model: &ProposedModel) -> Result<Setup, String> {
    let _ = std::fs::remove_dir_all(dir);
    let prec = gpu.default_precision();
    let cache = Mutex::new(PlanCache::open(dir, &gpu.name, &format!("{prec:?}")));
    let mut rng = Rng::new(seed);
    let (mut bases, mut texts, mut plans) = (Vec::new(), Vec::new(), Vec::new());
    for (b, &(name, copies)) in PROGRAMS.iter().enumerate() {
        let p = kfuse_workloads::by_name(name).ok_or(format!("no example {name}"))?;
        let (_, ctx) = pipeline::prepare(&p, gpu, prec);
        let mut inner = HggaHierSolver::with_seed(rng.next_u64());
        inner.config.population = 20;
        inner.config.max_generations = 20;
        let out = WarmSolver::new(inner, None, None).solve_shared(
            &ctx,
            model,
            ObsHandle::disabled(),
            Some(&cache),
        );
        plans.push(out.plan);
        let mut push = |q: &Program| -> Result<(), String> {
            let json = serde_json::to_string(q).map_err(|e| e.to_string())?;
            texts.push(Text { base: b, json });
            Ok(())
        };
        push(&p)?;
        for _ in 0..copies {
            push(&gen::rename_arrays(&p, &mut rng))?;
        }
        bases.push(p);
    }
    Ok(Setup {
        bases,
        texts,
        cache,
        dir: dir.to_path_buf(),
        plans,
    })
}

pub fn run(seed: u64, seconds: f64, traced: bool, state: &Path) -> Run {
    let mut run = Run::default();
    let gpu = GpuSpec::k20x();
    let model = ProposedModel::default();

    let mut set = None;
    for i in 0..3 {
        let t0 = Instant::now();
        match setup(seed, &state.join(format!("replan-{i}")), &gpu, &model) {
            Ok(s) => set = Some(s),
            Err(e) => {
                run.fail(format!("set-up: {e}"));
                return run;
            }
        }
        run.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let set = set.expect("set-up ran");
    let cached = set.cache.lock().expect("no panics under the lock").len();
    if cached != PROGRAMS.len() {
        run.fail(format!(
            "set-up cached {cached} plans for {} programs",
            PROGRAMS.len()
        ));
    }

    let tracer = Tracer::new(traced);
    let warm = WarmSolver::new(HggaHierSolver::with_seed(seed), None, None);
    let mut rng = Rng::new(seed ^ 0xA11CE);
    let mut order: Vec<usize> = (0..set.texts.len()).collect();
    let mut lat_by_kind: [BTreeMap<String, Vec<f64>>; 2] = Default::default();
    let (mut hits, mut probes, mut warms, mut gens) = (0u64, 0u64, 0u64, 0u64);
    let mut parse_bytes = 0usize;
    let mut op = 0u64;
    let mut cycle = 0usize;
    report::reset_peak_rss();
    let start = Instant::now();
    while report::another_cycle(start, cycle, seconds) {
        // Traced runs leave the first cycle untraced to price the tracing.
        let on = traced && cycle > 0;
        rng.shuffle(&mut order);
        for &ti in &order {
            let text = &set.texts[ti];
            let off = Tracer::new(false);
            let tr = if on { &tracer } else { &off };
            let recorder = on.then(InMemoryRecorder::new);

            let t0 = Instant::now();
            let root = tr.open(op);
            let result = replan(
                &text.json,
                &gpu,
                &model,
                &warm,
                &set.cache,
                tr,
                op,
                root,
                recorder.as_ref(),
            );
            let t1 = Instant::now();
            tr.close(root, t1);
            let dt = (t1 - t0).as_secs_f64();

            let name = PROGRAMS[text.base].0;
            run.latency(dt, text.base as u64);
            run.bytes_per_op.push(text.json.len() as f64);
            run.kernels_per_op
                .push(set.bases[text.base].kernels.len() as f64);
            lat_by_kind[on as usize]
                .entry(name.to_string())
                .or_default()
                .push(dt);
            run.ops += 1;
            let problem = match result {
                Err(e) => Some(format!("{name}: {e}")),
                Ok((ctx, out)) => {
                    let m = &out.metrics;
                    hits += m.get(Counter::CacheHits);
                    probes += m.get(Counter::CacheProbes);
                    warms += m.get(Counter::WarmStarts);
                    gens += m.get(Counter::Generations);
                    if on {
                        parse_bytes += text.json.len();
                        replay_layers(&tracer, &ctx, &out.plan, &model);
                    }
                    if m.get(Counter::CacheHits) != 1 || m.get(Counter::Generations) != 0 {
                        Some(format!(
                            "{name}: not an exact hit ({} hits, {} generations)",
                            m.get(Counter::CacheHits),
                            m.get(Counter::Generations)
                        ))
                    } else if out.plan != set.plans[text.base] {
                        Some(format!("{name}: served plan differs from the cached plan"))
                    } else {
                        None
                    }
                }
            };
            run.check(problem);
            op += 1;
        }
        cycle += 1;
    }
    run.window_s = start.elapsed().as_secs_f64();
    run.rss_mib.push(report::peak_rss_mib());
    run.notes.push(format!(
        "replan_exact: {} ops in {cycle} cycles of {} texts; {hits} exact hits, {warms} warm starts, {gens} generations",
        run.ops,
        set.texts.len()
    ));

    // Plan quality of what was served, outside the window.
    for (b, p) in set.bases.iter().enumerate() {
        let groups: Vec<Vec<u32>> = set.plans[b]
            .groups
            .iter()
            .map(|g| g.iter().map(|k| k.0).collect())
            .collect();
        match report::simulated_speedup(p, &groups) {
            Ok(x) => run.speedups.push(x),
            Err(e) => run.fail(format!("{}: cached plan: {e}", PROGRAMS[b].0)),
        }
    }
    run.kind_notes("replan_exact", &lat_by_kind);
    run.traffic_notes();

    if traced {
        let spans = tracer.spans();
        report::add_busy(
            &mut run,
            &spans,
            &[
                "ingest.parse",
                "ingest.validate",
                "core.prepare",
                "core.fingerprint",
                "core.plan_validate",
                "search.solve",
                "verifier.check_plan",
            ],
        );
        let l = &mut run.layer;
        l.insert("ingest.parse.bytes", parse_bytes as f64);
        l.insert("search.generations", gens as f64);
        l.insert(
            "search.cache_hit_frac",
            report::frac(hits as f64, probes as f64),
        );
        l.insert(
            "search.warm_start_frac",
            report::frac(warms as f64, probes as f64),
        );
        l.insert(
            "obs.trace_overhead_frac",
            report::trace_overhead(&lat_by_kind[0], &lat_by_kind[1]),
        );
        l.insert(
            "search.reorder_exact_frac",
            reorder_probe(&set, seed, &gpu, &model, &mut run.notes),
        );
        let st = trace::self_times(&spans, |op| op != REPLAY);
        run.add_self_times("replan_exact", &st);
    }
    run
}

/// Operation id of the spans [`replay_layers`] records: they are busy
/// time of layers `solve_shared` calls internally, not part of any op.
const REPLAY: u64 = u64::MAX;

/// One operation: parse, validate, prepare, and the cache-served solve.
#[allow(clippy::too_many_arguments)]
fn replan(
    json: &str,
    gpu: &GpuSpec,
    model: &ProposedModel,
    warm: &WarmSolver,
    cache: &Mutex<PlanCache>,
    tr: &Tracer,
    op: u64,
    root: Option<usize>,
    recorder: Option<&InMemoryRecorder>,
) -> Result<(PlanContext, SolveOutcome), String> {
    let p: Program = tr
        .time("ingest.parse", op, root, || serde_json::from_str(json))
        .map_err(|e| format!("parse: {e}"))?;
    tr.time("ingest.validate", op, root, || p.validate())
        .map_err(|e| format!("invalid program: {e}"))?;
    let (_, ctx) = tr.time("core.prepare", op, root, || {
        pipeline::prepare(&p, gpu, gpu.default_precision())
    });
    let obs = recorder.map_or_else(ObsHandle::disabled, |r| ObsHandle::new(r));
    let t0 = Instant::now();
    let out = warm.solve_shared(&ctx, model, obs, Some(cache));
    let solve = tr.record("search.solve", op, root, t0, Instant::now());
    // The cache probe (fingerprint, lookup, re-verification) is the
    // solver's own span; nest it under the solve.
    for ev in recorder.map(InMemoryRecorder::events).unwrap_or_default() {
        if let TraceEvent::Span {
            id: SpanId::CacheProbe,
            start,
            dur,
            ..
        } = ev
        {
            tr.record("search.cache_probe", op, solve, start, start + dur);
        }
    }
    Ok((ctx, out))
}

/// Time, outside any operation, the layers an exact hit runs inside
/// `solve_shared` — fingerprinting, plan validation and plan
/// verification — on the operation's own inputs.
fn replay_layers(tr: &Tracer, ctx: &PlanContext, plan: &FusionPlan, model: &ProposedModel) {
    tr.time("core.fingerprint", REPLAY, None, || {
        let colors = kernel_colors(&ctx.info);
        let _ = kernel_signatures(&ctx.info);
        program_fingerprint_with(&ctx.info, &colors)
    });
    let _ = tr.time("core.plan_validate", REPLAY, None, || ctx.validate(plan));
    tr.time("verifier.check_plan", REPLAY, None, || {
        kfuse_verify::check_plan(&ctx.info, plan, Some(model))
    });
}

/// Kernel reordering: same fingerprint as the cached program, but the
/// cached plan numbers kernels in the old order. Send one reordered copy
/// of each program (arrays renamed too) to a second handle on the cache
/// and return the share served as exact hits. Runs after the window;
/// the probe's own inserts go to that second handle only.
fn reorder_probe(
    set: &Setup,
    seed: u64,
    gpu: &GpuSpec,
    model: &ProposedModel,
    notes: &mut Vec<String>,
) -> f64 {
    let prec = gpu.default_precision();
    let cache = Mutex::new(PlanCache::open(&set.dir, &gpu.name, &format!("{prec:?}")));
    let warm = WarmSolver::new(HggaHierSolver::with_seed(seed), None, None);
    let mut rng = Rng::new(seed ^ 0x5EED);
    let mut exact = 0;
    for (b, p) in set.bases.iter().enumerate() {
        let q = gen::rename_arrays(&gen::reorder_kernels(p, 3, &mut rng), &mut rng);
        let (_, ctx) = pipeline::prepare(&q, gpu, prec);
        let out = warm.solve_shared(&ctx, model, ObsHandle::disabled(), Some(&cache));
        let hit = out.metrics.get(Counter::CacheHits) == 1;
        exact += hit as usize;
        notes.push(format!(
            "reorder probe {}: {} ({} generations)",
            PROGRAMS[b].0,
            if hit { "exact hit" } else { "not an exact hit" },
            out.metrics.get(Counter::Generations)
        ));
    }
    report::frac(exact as f64, set.bases.len() as f64)
}
