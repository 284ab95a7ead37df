//! Structural rejection before the memo: groups that span a host sync, two
//! CUDA streams or two sharing components are scored `+∞` by the
//! evaluator before any sort, fingerprint or memo probe. These properties
//! check that the early exit changes no evaluation and that the split
//! helper rejects exactly the groups the full structure check rejects on
//! those three tests.

use kfuse_core::model::ProposedModel;
use kfuse_core::pipeline::prepare;
use kfuse_core::plan::{PlanContext, PlanError};
use kfuse_core::synth::SynthScratch;
use kfuse_gpu::{FpPrecision, GpuSpec};
use kfuse_ir::builder::ProgramBuilder;
use kfuse_ir::stencil::Offset;
use kfuse_ir::{Expr, KernelId, Program};
use kfuse_obs::Counter;
use kfuse_search::eval::{BatchProbe, Evaluator};
use proptest::prelude::*;
use std::sync::OnceLock;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A chain-like program over shared arrays, issued into three streams in
/// runs of three kernels, with a host sync every `sync_every` kernels and
/// every tenth kernel on arrays no other kernel touches (a sharing
/// component of its own).
fn streamed_program(kernels: usize, sync_every: usize, seed: u64) -> Program {
    let mut pb = ProgramBuilder::new("streamed", [128, 64, 8]);
    let shared: Vec<_> = (0..6).map(|i| pb.array(format!("S{i}"))).collect();
    let mut outs = Vec::new();
    for i in 0..kernels {
        if i > 0 && i % sync_every == 0 {
            pb.host_sync();
        }
        pb.stream((splitmix64(seed ^ (i as u64 / 3)) % 3) as u32);
        let out = pb.array(format!("O{i}"));
        if i % 10 == 9 {
            let own = pb.array(format!("L{i}"));
            let expr = Expr::at(own) * Expr::lit(0.5);
            pb.kernel(format!("k{i}")).write(out, expr).build();
            continue;
        }
        let r = splitmix64(seed.wrapping_add(i as u64));
        let a = shared[r as usize % shared.len()];
        let mut expr = Expr::load(a, Offset::new(((r >> 8) % 2) as i8, 0, 0));
        if let Some(&prev) = outs.last() {
            expr = expr + Expr::at(prev);
        }
        pb.kernel(format!("k{i}")).write(out, expr).build();
        outs.push(out);
    }
    pb.build()
}

fn contexts() -> &'static [PlanContext] {
    static CTX: OnceLock<Vec<PlanContext>> = OnceLock::new();
    CTX.get_or_init(|| {
        let programs = [
            kfuse_workloads::by_name("homme").unwrap(),
            kfuse_workloads::by_name("scale-les").unwrap(),
            streamed_program(36, 7, 1),
            streamed_program(48, 12, 2),
        ];
        programs
            .iter()
            .map(|p| prepare(p, &GpuSpec::k20x(), FpPrecision::Double).1)
            .collect()
    })
}

/// 2–8 distinct kernels: half the time a window around a random kernel
/// (often feasible), otherwise drawn from the whole program (mostly
/// spanning a sync, a stream or two components).
fn random_group(n: usize, salt: u64) -> Vec<KernelId> {
    let len = 2 + splitmix64(salt) as usize % 7;
    let local = splitmix64(salt ^ 1) & 1 == 0;
    let base = splitmix64(salt ^ 2) as usize % n;
    let mut g: Vec<KernelId> = (0..len as u64)
        .map(|j| {
            let r = splitmix64(salt ^ (j + 3).wrapping_mul(0x9e37)) as usize;
            let k = if local { (base + r % 10) % n } else { r % n };
            KernelId(k as u32)
        })
        .collect();
    g.sort_unstable();
    g.dedup();
    if g.len() < 2 {
        g.push(KernelId(((g[0].0 as usize + 1) % n) as u32));
    }
    // Unsorted on purpose: the evaluator must not depend on member order.
    g.reverse();
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn early_rejection_changes_no_evaluation(which in 0usize..4, seed in 0u64..1_000_000) {
        let ctx = &contexts()[which];
        let model = ProposedModel::default();
        let n = ctx.n_kernels();
        let groups: Vec<Vec<KernelId>> =
            (0..16).map(|i| random_group(n, splitmix64(seed) ^ i)).collect();
        let mut ss = SynthScratch::new();
        let single = Evaluator::new(ctx, &model);
        let batched = Evaluator::new(ctx, &model);
        let reference = Evaluator::new(ctx, &model);
        let mut probe = BatchProbe::new();
        for g in &groups {
            probe.push(g);
        }
        let mut out = Vec::new();
        batched.group_batch(&mut probe, &mut out);
        let mut rejected = 0;
        for (i, g) in groups.iter().enumerate() {
            let want = reference.evaluate_uncached(g, &mut ss).time_s;
            // Twice: the second probe of a memoized group is a hit.
            for pass in 0..2 {
                let got = single.group(g).time_s;
                prop_assert!(
                    got.to_bits() == want.to_bits(),
                    "group {:?} pass {}: {} vs {}", g, pass, got, want
                );
            }
            let batch = out[i].time_s;
            prop_assert!(
                batch.to_bits() == want.to_bits(),
                "batched {:?}: {} vs {}", g, batch, want
            );

            let split = ctx.check_group_splits(g, 0).is_err();
            let structure = ctx.check_group_structure(g, 0, &mut ss);
            let by_split_test = matches!(
                structure,
                Err(PlanError::SyncSplit { .. }
                    | PlanError::StreamSplit { .. }
                    | PlanError::Kinship { .. })
            );
            prop_assert!(split == by_split_test, "group {:?}: {:?}", g, structure);
            if split {
                prop_assert!(want.is_infinite());
                rejected += 1;
            }
        }
        // Rejected groups are counted, never probed, and never stored.
        prop_assert_eq!(single.metrics().get(Counter::StructureRejects), 2 * rejected);
        prop_assert_eq!(single.probes(), 2 * (groups.len() as u64 - rejected));
        prop_assert_eq!(batched.metrics().get(Counter::StructureRejects), rejected);
        prop_assert_eq!(batched.probes(), groups.len() as u64 - rejected);
    }
}

#[test]
fn contexts_span_syncs_and_streams() {
    // The synthetic programs must exercise every early-rejection reason.
    let mut ss = SynthScratch::new();
    for ctx in &contexts()[2..] {
        let n = ctx.n_kernels();
        assert!(ctx.info.epochs.iter().any(|&e| e > 0), "host syncs");
        assert!(
            ctx.info.streams.iter().any(|&s| s != ctx.info.streams[0]),
            "streams"
        );
        let mut seen = [false; 3];
        for salt in 0..4000 {
            match ctx.check_group_structure(&random_group(n, salt), 0, &mut ss) {
                Err(PlanError::SyncSplit { .. }) => seen[0] = true,
                Err(PlanError::StreamSplit { .. }) => seen[1] = true,
                Err(PlanError::Kinship { .. }) => seen[2] = true,
                _ => {}
            }
        }
        assert_eq!(seen, [true; 3], "sync, stream and kinship rejections");
    }
}
