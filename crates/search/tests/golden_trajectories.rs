//! Golden trajectory digests: single-population HGGA runs on the built-in
//! workloads, pinned as data rather than against a frozen copy of the
//! solver.
//!
//! Each line of `golden_trajectories.txt` records, for one built-in
//! program and seed (islands = 1, a quick configuration on the K20X in
//! double precision): the objective's bits, the generation count, the
//! generation of the best individual, and an FNV-1a hash of the plan's
//! groups. Work counters (probes, misses, batch fill) are deliberately
//! left out: they measure how much the search scored, not what it found,
//! and may fall when an optimisation skips evaluations that decide
//! nothing.
//!
//! On a mismatch the assertion prints the whole computed block; a change
//! that is *meant* to alter trajectories pastes it into the file, where
//! the diff shows every digest that moved.

use kfuse_core::model::ProposedModel;
use kfuse_core::pipeline::{prepare, Solver};
use kfuse_core::plan::FusionPlan;
use kfuse_gpu::{FpPrecision, GpuSpec};
use kfuse_search::hgga::{HggaConfig, HggaSolver};
use std::fmt::Write as _;
use std::path::PathBuf;

const PROGRAMS: [&str; 6] = ["rk3", "fig3", "homme", "suite", "scale-les", "synth60"];
const SEEDS: [u64; 3] = [1, 2, 3];

fn quick_config(seed: u64) -> HggaConfig {
    HggaConfig {
        population: 30,
        max_generations: 60,
        stall_generations: 15,
        seed,
        ..HggaConfig::default()
    }
}

/// FNV-1a over every member id, with a separator after each group, so
/// `{0,1},{2}` and `{0},{1,2}` hash apart.
fn plan_hash(plan: &FusionPlan) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |w: u32| {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for g in &plan.groups {
        for k in g {
            eat(k.0);
        }
        eat(u32::MAX);
    }
    h
}

fn digest_line(name: &str, seed: u64) -> String {
    let p = kfuse_workloads::by_name(name).expect("built-in program");
    let (_, ctx) = prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
    let model = ProposedModel::default();
    let out = HggaSolver {
        config: quick_config(seed),
    }
    .solve(&ctx, &model);
    format!(
        "{name} {seed} {:016x} {} {} {:016x}",
        out.objective.to_bits(),
        out.stats.generations,
        out.stats.best_generation,
        plan_hash(&out.plan)
    )
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden_trajectories.txt")
}

#[test]
fn single_population_trajectories_match_golden_digests() {
    let mut got = String::new();
    for name in PROGRAMS {
        for seed in SEEDS {
            writeln!(got, "{}", digest_line(name, seed)).unwrap();
        }
    }
    let want = std::fs::read_to_string(golden_path()).expect("golden file is checked in");
    let want: Vec<&str> = want.lines().filter(|l| !l.starts_with('#')).collect();
    let got_lines: Vec<&str> = got.lines().collect();
    assert!(
        want == got_lines,
        "trajectory digests changed; computed block:\n\
         # program seed objective_bits generations best_generation plan_fnv1a\n{got}"
    );
}
