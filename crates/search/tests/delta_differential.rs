//! Differential property test for delta evaluation (ISSUE 3 satellite):
//! random sequences of crossover / mutate / local-search steps on random
//! synthetic workloads must yield objective values — and infeasibility
//! verdicts — bitwise identical to a from-scratch [`Evaluator::plan`] on
//! the converted [`FusionPlan`].
//!
//! The chromosome's condensation cache follows only exec-order edges
//! inside one host-sync epoch, while [`Evaluator::plan`] checks the dense
//! graph, so the multi-epoch contexts below pin the two together.

use kfuse_core::model::ProposedModel;
use kfuse_core::pipeline::prepare;
use kfuse_core::plan::PlanContext;
use kfuse_gpu::{FpPrecision, GpuSpec};
use kfuse_ir::KernelId;
use kfuse_search::chromo::{Chromosome, OpScratch};
use kfuse_search::eval::Evaluator;
use kfuse_search::hgga::{crossover, local_search, mutate, random_chromosome};
use kfuse_workloads::synth::{generate, SynthConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn context(kernels: usize, seed: u64) -> PlanContext {
    let cfg = SynthConfig {
        kernels,
        seed,
        ..Default::default()
    };
    let p = generate(&cfg);
    let (_, ctx) = prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
    ctx
}

/// A synthetic workload with a host sync every `interval` kernels.
fn synced_context(kernels: usize, seed: u64, interval: usize) -> PlanContext {
    let cfg = SynthConfig {
        kernels,
        seed,
        sync_interval: Some(interval),
        ..Default::default()
    };
    let (_, ctx) = prepare(&generate(&cfg), &GpuSpec::k20x(), FpPrecision::Double);
    ctx
}

/// The chromosome's incremental cost vs. a from-scratch plan evaluation.
/// `total_cmp` makes the comparison bitwise: INF == INF passes, NaN or any
/// ULP drift fails.
fn assert_delta_matches_full(ev: &Evaluator<'_>, ch: &Chromosome, what: &str) {
    let full = ev.plan(&ch.to_plan());
    assert!(
        full.total_cmp(&ch.cost()).is_eq(),
        "{what}: delta cost {} != full evaluation {full}",
        ch.cost()
    );
}

#[test]
fn delta_evaluation_matches_full_plan_eval_across_random_sequences() {
    let model = ProposedModel::default();
    let mut sequences = 0usize;
    for w in 0..32u64 {
        let ctx = context(12 + (w as usize % 5) * 4, 0xA11CE ^ (w * 7919));
        let ev = Evaluator::new(&ctx, &model);
        let mut scratch = OpScratch::new();
        for s in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(w * 1_000 + s);
            let mut a = random_chromosome(&ev, &mut rng, &mut scratch);
            let mut b = random_chromosome(&ev, &mut rng, &mut scratch);
            assert_delta_matches_full(&ev, &a, "random_chromosome a");
            assert_delta_matches_full(&ev, &b, "random_chromosome b");
            for step in 0..6 {
                let child = match rng.gen_range(0..3u8) {
                    0 => crossover(&ev, &a, &b, &mut rng, &mut scratch),
                    1 => mutate(&ev, a.clone(), &mut rng, &mut scratch),
                    _ => local_search(&ev, a.clone(), &mut rng, &mut scratch),
                };
                assert_delta_matches_full(
                    &ev,
                    &child,
                    &format!("workload {w} seq {s} step {step}"),
                );
                // Round-trip: importing the converted plan and rescoring it
                // must reproduce the same objective.
                let plan = child.to_plan();
                let mut back = Chromosome::from_plan(&plan, &ev);
                let got = back.rescore(&ev, &mut scratch);
                assert!(
                    got.total_cmp(&ev.plan(&plan)).is_eq(),
                    "workload {w} seq {s} step {step}: from_plan round-trip"
                );
                b = std::mem::replace(&mut a, child);
            }
            sequences += 1;
        }
    }
    assert!(sequences >= 256, "only {sequences} sequences exercised");
}

#[test]
fn rescore_matches_plan_eval_after_raw_structural_moves() {
    // The no-repair path: unconditional kernel moves can produce infeasible
    // groups and condensation cycles; rescore must return exactly what the
    // full evaluator says about the same (possibly broken) plan.
    let model = ProposedModel::default();
    for w in 0..8u64 {
        let ctx = context(16 + (w as usize % 3) * 8, 0xBADF00D ^ (w * 104_729));
        let n = ctx.n_kernels();
        let ev = Evaluator::new(&ctx, &model);
        let mut scratch = OpScratch::new();
        let mut rng = SmallRng::seed_from_u64(0x5EED ^ w);
        let mut ch = random_chromosome(&ev, &mut rng, &mut scratch);
        for step in 0..64 {
            let k = KernelId(rng.gen_range(0..n) as u32);
            let to = rng.gen_range(0..ch.group_count());
            ch.move_kernel(k, to);
            let got = ch.rescore(&ev, &mut scratch);
            let full = ev.plan(&ch.to_plan());
            assert!(
                got.total_cmp(&full).is_eq(),
                "workload {w} step {step}: rescore {got} != full {full}"
            );
        }
    }
}

#[test]
fn delta_evaluation_matches_full_plan_eval_across_host_syncs() {
    let model = ProposedModel::default();
    let mut contexts: Vec<(String, PlanContext)> = (0..6u64)
        .map(|w| {
            let (kernels, interval) = (24 + (w as usize % 3) * 8, 5 + w as usize % 4);
            let ctx = synced_context(kernels, 0x5_1C ^ (w * 7919), interval);
            (format!("synced synth {w}"), ctx)
        })
        .collect();
    for name in ["homme", "scale-les"] {
        let p = kfuse_workloads::by_name(name).unwrap();
        contexts.push((
            name.to_string(),
            prepare(&p, &GpuSpec::k20x(), FpPrecision::Double).1,
        ));
    }
    for (name, ctx) in &contexts {
        let epochs = &ctx.info.epochs;
        assert!(epochs.iter().max() > Some(&1), "{name} has several epochs");
        let n = ctx.n_kernels();
        let ev = Evaluator::new(ctx, &model);
        let mut scratch = OpScratch::new();
        for s in 0..4u64 {
            let mut rng = SmallRng::seed_from_u64(0xE90C ^ s);
            let mut a = random_chromosome(&ev, &mut rng, &mut scratch);
            let mut b = random_chromosome(&ev, &mut rng, &mut scratch);
            for step in 0..6 {
                let child = match rng.gen_range(0..3u8) {
                    0 => crossover(&ev, &a, &b, &mut rng, &mut scratch),
                    1 => mutate(&ev, a.clone(), &mut rng, &mut scratch),
                    _ => local_search(&ev, a.clone(), &mut rng, &mut scratch),
                };
                assert_delta_matches_full(&ev, &child, &format!("{name} seq {s} step {step}"));
                b = std::mem::replace(&mut a, child);
            }
            // Raw moves, mostly into a group of the kernel's own epoch so
            // the condensation check (not the sync split) decides.
            let mut ch = a;
            for step in 0..48 {
                let k = KernelId(rng.gen_range(0..n) as u32);
                let to = if rng.gen_bool(0.8) {
                    let same: Vec<usize> =
                        (0..n).filter(|&j| epochs[j] == epochs[k.index()]).collect();
                    let j = KernelId(same[rng.gen_range(0..same.len())] as u32);
                    ch.position_of_slot(ch.slot_of(j))
                } else {
                    rng.gen_range(0..ch.group_count())
                };
                ch.move_kernel(k, to);
                let got = ch.rescore(&ev, &mut scratch);
                let full = ev.plan(&ch.to_plan());
                assert!(
                    got.total_cmp(&full).is_eq(),
                    "{name} seq {s} move {step}: rescore {got} != full {full}"
                );
            }
        }
    }
}
