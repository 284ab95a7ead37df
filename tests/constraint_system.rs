//! Integration tests of the Fig. 4 constraint system across crates:
//! failure injection and precise diagnostics.

use kernel_fusion::prelude::*;
use kfuse_core::plan::PlanError;
use kfuse_ir::stencil::Offset;
use kfuse_workloads::scale_les;

/// A chain k0 → k1 → k2 plus an unrelated pair k3, k4 in another sharing
/// component, separated by a host sync before k3.
fn program_with_structure() -> Program {
    let mut pb = ProgramBuilder::new("structured", [96, 32, 4]);
    let [a, b, c, d] = pb.arrays(["A", "B", "C", "D"]);
    let [x, y, z] = pb.arrays(["X", "Y", "Z"]);
    pb.kernel("k0")
        .write(b, Expr::at(a) + Expr::lit(1.0))
        .build();
    pb.kernel("k1")
        .write(c, Expr::load(b, Offset::new(1, 0, 0)))
        .build();
    pb.kernel("k2")
        .write(d, Expr::at(c) * Expr::lit(2.0))
        .build();
    pb.host_sync();
    pb.kernel("k3")
        .write(y, Expr::at(x) + Expr::lit(3.0))
        .build();
    pb.kernel("k4")
        .write(z, Expr::at(x) - Expr::lit(1.0))
        .build();
    pb.build()
}

fn ctx() -> (Program, PlanContext) {
    pipeline::prepare(
        &program_with_structure(),
        &GpuSpec::k20x(),
        FpPrecision::Double,
    )
}

#[test]
fn path_closure_violation_names_the_sandwiched_kernel() {
    let (_, ctx) = ctx();
    let plan = FusionPlan::new(vec![
        vec![KernelId(0), KernelId(2)],
        vec![KernelId(1)],
        vec![KernelId(3)],
        vec![KernelId(4)],
    ]);
    match ctx.validate(&plan) {
        Err(PlanError::PathClosure { violator, .. }) => assert_eq!(violator, KernelId(1)),
        other => panic!("expected path-closure violation, got {other:?}"),
    }
}

#[test]
fn kinship_violation_rejects_cross_component_groups() {
    let (_, ctx) = ctx();
    // k2 (chain component) with k4 (x/y/z component): kinship zero.
    // Note both sit after... k2 is before the sync; sync check fires first.
    let plan = FusionPlan::new(vec![
        vec![KernelId(0)],
        vec![KernelId(1)],
        vec![KernelId(2), KernelId(4)],
        vec![KernelId(3)],
    ]);
    match ctx.validate(&plan) {
        Err(PlanError::SyncSplit { .. }) | Err(PlanError::Kinship { .. }) => {}
        other => panic!("expected kinship/sync violation, got {other:?}"),
    }
}

#[test]
fn host_sync_blocks_fusion_across_epochs() {
    let (_, ctx) = ctx();
    assert_eq!(ctx.info.epochs, vec![0, 0, 0, 1, 1]);
    // k3+k4 fuse fine (same epoch, share X)...
    let ok = FusionPlan::new(vec![
        vec![KernelId(0)],
        vec![KernelId(1)],
        vec![KernelId(2)],
        vec![KernelId(3), KernelId(4)],
    ]);
    assert!(ctx.validate(&ok).is_ok());
}

#[test]
fn smem_overflow_is_reported_with_sizes() {
    // Many wide-stencil kernels sharing many arrays: force a group whose
    // staging exceeds 48 KiB.
    let mut pb = ProgramBuilder::new("smem_heavy", [512, 256, 4]);
    pb.launch(32, 32); // 1024 threads → 8 KiB per DP pivot tile
    let inputs: Vec<ArrayId> = (0..8).map(|i| pb.array(format!("I{i}"))).collect();
    for i in 0..8 {
        let out = pb.array(format!("O{i}"));
        let mut e = Expr::lit(0.0);
        for &inp in &inputs {
            e = e + Expr::at(inp) + Expr::load(inp, Offset::new(-1, 0, 0));
        }
        pb.kernel(format!("k{i}")).write(out, e).build();
    }
    let p = pb.build();
    let (_, ctx) = pipeline::prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
    // 8 shared pivots × (34×34)×8B ≈ 72 KiB > 48 KiB.
    let plan = FusionPlan::new(vec![(0..8).map(|i| KernelId(i as u32)).collect()]);
    match ctx.validate(&plan) {
        Err(PlanError::SmemOverflow {
            bytes, capacity, ..
        }) => {
            assert!(bytes > capacity);
            assert_eq!(capacity, 48 * 1024);
        }
        other => panic!("expected SMEM overflow, got {other:?}"),
    }
    // The same group fits the hypothetical 128 KiB device.
    let (_, ctx128) = pipeline::prepare(&p, &GpuSpec::hypothetical_smem(128), FpPrecision::Double);
    let plan = FusionPlan::new(vec![(0..8).map(|i| KernelId(i as u32)).collect()]);
    assert!(
        ctx128.validate(&plan).is_ok(),
        "128 KiB device accepts the group"
    );
}

#[test]
fn readonly_cache_relaxes_smem_capacity() {
    // Same SMEM-heavy group as above; with the §II-C read-only-cache
    // relaxation enabled, clean pivots are demoted and the group fits.
    let mut pb = ProgramBuilder::new("smem_heavy", [512, 256, 4]);
    pb.launch(32, 32);
    let inputs: Vec<ArrayId> = (0..8).map(|i| pb.array(format!("I{i}"))).collect();
    for i in 0..8 {
        let out = pb.array(format!("O{i}"));
        let mut e = Expr::lit(0.0);
        for &inp in &inputs {
            e = e + Expr::at(inp) + Expr::load(inp, Offset::new(-1, 0, 0));
        }
        pb.kernel(format!("k{i}")).write(out, e).build();
    }
    let p = pb.build();
    let mut gpu = GpuSpec::k20x();
    gpu.use_readonly_cache = true;
    let (relaxed, ctx) = pipeline::prepare(&p, &gpu, FpPrecision::Double);
    let plan = FusionPlan::new(vec![(0..8).map(|i| KernelId(i as u32)).collect()]);
    let specs = ctx.validate(&plan).expect("RO cache must relax capacity");
    let spec = &specs[0];
    assert!(spec.ro_bytes > 0, "some pivots routed through the RO cache");
    assert!(spec.smem_bytes <= u64::from(gpu.smem_per_smx));
    assert!(spec.pivots.iter().any(|pv| pv.ro_cache));

    // The fused kernel still computes the right numbers.
    let fused =
        kfuse_core::fuse::apply_plan(&relaxed, &ctx.info, &ctx.exec, &plan, &specs).unwrap();
    assert!(fused.kernels[0]
        .staging
        .iter()
        .any(|s| s.medium == kfuse_ir::StagingMedium::ReadOnlyCache));
    let small = {
        let mut q = relaxed.clone();
        q.grid = kfuse_ir::GridDims::new(64, 64, 2);
        q
    };
    let small_fused = {
        let mut q = fused.clone();
        q.grid = kfuse_ir::GridDims::new(64, 64, 2);
        q
    };
    let mut reference = DeviceState::default_init(&small);
    run_reference(&small, &mut reference);
    let mut fused_state = DeviceState::default_init(&small_fused);
    run_block_mode(&small_fused, &mut fused_state);
    for a in 0..small.arrays.len() {
        let a = ArrayId(a as u32);
        assert_eq!(reference.max_abs_diff(&fused_state, a), 0.0);
    }
}

#[test]
fn profitability_constraint_rejects_bad_groups() {
    let (_, ctx) = ctx();
    let model = ProposedModel::default();
    // A profitable group: k3+k4 share X.
    let spec = ctx
        .check_group(&[KernelId(3), KernelId(4)], 0)
        .expect("structurally fine");
    assert!(ctx.check_profitable(&spec, &model, 0).is_ok());
}

#[test]
fn objective_of_identity_equals_measured_sum() {
    let (_, ctx) = ctx();
    let model = ProposedModel::default();
    let t = ctx.objective(&FusionPlan::identity(5), &model);
    let sum: f64 = ctx.info.kernels.iter().map(|k| k.runtime_s).sum();
    assert!((t - sum).abs() / sum < 1e-12);
}

#[test]
fn scale_les_epochs_follow_sync_cadence() {
    let p = scale_les::full_on_grid([96, 32, 2]);
    assert!(!p.host_syncs.is_empty(), "SCALE-LES model has sync points");
    let epochs = p.epochs();
    assert_eq!(epochs.len(), 142);
    assert!(*epochs.last().unwrap() > 0);
    // Epochs are monotone non-decreasing in invocation order.
    for w in epochs.windows(2) {
        assert!(w[0] <= w[1]);
    }
}

#[test]
fn stream_split_blocks_cross_stream_fusion() {
    let mut pb = ProgramBuilder::new("streams", [96, 32, 4]);
    let a = pb.array("A");
    let [b, c] = pb.arrays(["B", "C"]);
    pb.kernel("s0")
        .write(b, Expr::at(a) + Expr::lit(1.0))
        .build();
    pb.stream(1);
    pb.kernel("s1")
        .write(c, Expr::at(a) * Expr::lit(2.0))
        .build();
    let p = pb.build();
    assert_eq!(p.streams, vec![0, 1]);

    let (_, ctx) = pipeline::prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
    let plan = FusionPlan::new(vec![vec![KernelId(0), KernelId(1)]]);
    match ctx.validate(&plan) {
        Err(PlanError::StreamSplit { .. }) => {}
        other => panic!("expected stream-split rejection, got {other:?}"),
    }
    // Same-stream fusion of the same pair is fine.
    let mut p2 = p.clone();
    p2.streams = vec![0, 0];
    let (_, ctx2) = pipeline::prepare(&p2, &GpuSpec::k20x(), FpPrecision::Double);
    assert!(ctx2
        .validate(&FusionPlan::new(vec![vec![KernelId(0), KernelId(1)]]))
        .is_ok());
}

// ---------------------------------------------------------------------------
// Pinned plans: one known-feasible and one known-infeasible plan per
// workload, each cross-checked against the independent verifier with the
// exact KF code it must report.
// ---------------------------------------------------------------------------

#[test]
fn pinned_structured_feasible_plan_stays_feasible() {
    let (_, ctx) = ctx();
    let model = ProposedModel::default();
    // k3+k4 share X in the same epoch: profitable fusion (pinned).
    let plan = FusionPlan::new(vec![
        vec![KernelId(0)],
        vec![KernelId(1)],
        vec![KernelId(2)],
        vec![KernelId(3), KernelId(4)],
    ]);
    assert!(ctx.validate(&plan).is_ok());
    let report = kfuse_verify::check_plan(&ctx.info, &plan, Some(&model));
    assert!(report.is_clean(), "{}", report.render_human());
}

#[test]
fn pinned_structured_infeasible_plan_stays_infeasible() {
    let (_, ctx) = ctx();
    let model = ProposedModel::default();
    // k0+k2 sandwich k1 on the condensed DAG: path-closure violation.
    let plan = FusionPlan::new(vec![
        vec![KernelId(0), KernelId(2)],
        vec![KernelId(1)],
        vec![KernelId(3)],
        vec![KernelId(4)],
    ]);
    assert!(matches!(
        ctx.validate(&plan),
        Err(PlanError::PathClosure { .. })
    ));
    let report = kfuse_verify::check_plan(&ctx.info, &plan, Some(&model));
    assert!(report.has_code(kfuse_verify::diag::KF_PATH_CLOSURE));
}

#[test]
fn pinned_rk3_feasible_plan_stays_feasible() {
    let p = scale_les::rk_core([1280, 32, 32]);
    let (_, ctx) = pipeline::prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
    let model = ProposedModel::default();
    // HGGA output (seed 3) on the K20X, pinned 2026-08: six groups.
    let groups: Vec<Vec<KernelId>> = vec![
        vec![0, 1, 7, 11],
        vec![2, 3, 6, 8, 10, 17],
        vec![4, 5, 12],
        vec![9, 13],
        vec![14, 15],
        vec![16],
    ]
    .into_iter()
    .map(|g| g.into_iter().map(KernelId).collect())
    .collect();
    let plan = FusionPlan::new(groups);
    assert!(ctx.validate(&plan).is_ok());
    let report = kfuse_verify::check_plan(&ctx.info, &plan, Some(&model));
    assert!(report.is_clean(), "{}", report.render_human());
    assert!(kfuse_search::Evaluator::new(&ctx, &model)
        .plan(&plan)
        .is_finite());
}

#[test]
fn pinned_rk3_infeasible_plan_stays_infeasible() {
    let p = scale_les::rk_core([1280, 32, 32]);
    let (_, ctx) = pipeline::prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
    let model = ProposedModel::default();
    // K2+K4 is structurally legal but projects *slower* than unfused:
    // the profitability constraint (1.1) must reject it. Pinned.
    let mut groups = vec![vec![KernelId(2), KernelId(4)]];
    groups.extend(
        (0..18)
            .filter(|&k| k != 2 && k != 4)
            .map(|k| vec![KernelId(k)]),
    );
    let plan = FusionPlan::new(groups);
    assert!(ctx.validate(&plan).is_ok(), "structure itself is fine");
    let report = kfuse_verify::check_plan(&ctx.info, &plan, Some(&model));
    assert!(report.has_code(kfuse_verify::diag::KF_UNPROFITABLE));
    assert!(kfuse_search::Evaluator::new(&ctx, &model)
        .plan(&plan)
        .is_infinite());
}

/// All-pairs kinship by Floyd–Warshall over "shares an array", computed
/// straight from the program's reads and writes (`u32::MAX`: no chain).
fn floyd_warshall_kinship(p: &Program) -> Vec<Vec<u32>> {
    let n = p.kernels.len();
    let touched: Vec<std::collections::BTreeSet<_>> = p
        .kernels
        .iter()
        .map(|k| k.reads().into_keys().chain(k.writes()).collect())
        .collect();
    let mut d = vec![vec![u32::MAX; n]; n];
    for i in 0..n {
        d[i][i] = 0;
        for j in 0..n {
            if i != j && !touched[i].is_disjoint(&touched[j]) {
                d[i][j] = 1;
            }
        }
    }
    for m in 0..n {
        for i in 0..n {
            for j in 0..n {
                let via = d[i][m].saturating_add(d[m][j]);
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
        }
    }
    d
}

#[test]
fn kinship_matches_floyd_warshall_on_builtins() {
    for name in ["fig3", "homme", "synth60"] {
        let (relaxed, ctx) = pipeline::prepare(
            &kfuse_workloads::by_name(name).unwrap(),
            &GpuSpec::k20x(),
            FpPrecision::Double,
        );
        let oracle = floyd_warshall_kinship(&relaxed);
        for (a, row) in oracle.iter().enumerate() {
            let ka = KernelId(a as u32);
            let adjacent: Vec<u32> = (0..row.len() as u32)
                .filter(|&b| row[b as usize] == 1)
                .collect();
            assert_eq!(
                ctx.share.neighbors(ka),
                adjacent,
                "{name}: neighbors of {a}"
            );
            for (b, &d) in row.iter().enumerate() {
                let kb = KernelId(b as u32);
                let want = (d != u32::MAX).then_some(d as u8);
                assert_eq!(ctx.share.kinship(ka, kb), want, "{name}: kinship({a},{b})");
                assert_eq!(
                    ctx.share.group_connected([ka, kb]),
                    want.is_some(),
                    "{name}: constraint 1.5 on ({a},{b})"
                );
            }
        }
    }
}
