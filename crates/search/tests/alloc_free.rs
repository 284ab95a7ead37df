//! Zero-allocation guarantees of the steady-state evaluation paths.
//!
//! A counting global allocator wraps `System`. It counts per thread, so
//! each test measures only its own work while the harness runs the tests
//! on parallel threads. After warming the synthesis scratch once,
//! re-evaluating distinct groups through [`Evaluator::evaluate_uncached`] (structure checks + SoA synthesis +
//! view projection + profitability) must not allocate at all. Memo
//! insertion is deliberately outside this unit — it is amortized storage,
//! not per-evaluation work — and has its own test: each shard stores its
//! entries in one slot table and one member arena that grow by doubling,
//! so N distinct inserts cost O(log N) allocations, not one per entry.
//!
//! The observability rework adds a further guarantee: with tracing
//! disabled ([`ObsHandle::disabled`], or the `trace` feature off — both
//! land in the same no-op path), the memo *hit* path with its always-on
//! registry counters must also stay allocation-free.

use kfuse_core::batch::{BatchScratch, CandidateBatch};
use kfuse_core::model::{PerfModel, ProposedModel, RooflineModel, SimpleModel};
use kfuse_core::pipeline::prepare;
use kfuse_core::synth::SynthScratch;
use kfuse_gpu::{FpPrecision, GpuSpec};
use kfuse_ir::KernelId;
use kfuse_obs::ObsHandle;
use kfuse_search::Evaluator;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. `const`-initialised and
    /// without a destructor, so touching it never allocates itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator also runs while a thread tears down its
    // thread-locals.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Distinct member-sorted groups spanning singletons up to 32 members
/// (the stack-key bound), deterministic in `n`.
fn group_pool(n: usize) -> Vec<Vec<KernelId>> {
    (0..200u64)
        .map(|i| {
            let len = 1 + (i as usize % 32);
            let start = (i as usize * 7) % n;
            (0..len)
                .map(|j| KernelId(((start + j * 3) % n) as u32))
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect()
        })
        .collect()
}

#[test]
fn miss_path_is_allocation_free_once_warm() {
    // The 60-kernel scaling workload — the same program the miss-path
    // benchmark and `kfuse example synth60` use.
    let p = kfuse_workloads::synth::scaling(60);
    let (_, ctx) = prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
    let model = ProposedModel::default();
    let ev = Evaluator::new(&ctx, &model);
    let extra: [Box<dyn PerfModel>; 2] = [Box::new(RooflineModel), Box::new(SimpleModel)];

    // Distinct groups built BEFORE the measured region.
    let groups = group_pool(ctx.n_kernels());

    // Warm the scratch to the program's dimensions (first call sizes every
    // slot array and the pivot/touched buffers to their upper bounds).
    let mut scratch = SynthScratch::new();
    for g in &groups {
        std::hint::black_box(ev.evaluate_uncached(g, &mut scratch));
    }

    let before = allocations();
    for _ in 0..3 {
        for g in &groups {
            std::hint::black_box(ev.evaluate_uncached(g, &mut scratch));
        }
    }
    let delta = allocations() - before;
    assert_eq!(
        delta,
        0,
        "steady-state miss-path evaluation must not allocate ({delta} allocations over {} evals)",
        3 * groups.len()
    );

    // The other two models share the same guarantee through project_view.
    for m in &extra {
        let before = allocations();
        for g in &groups {
            if g.len() < 2 {
                continue;
            }
            let view = ctx.synth.synthesize_into(&ctx.info, g, &mut scratch);
            std::hint::black_box(m.project_view(&ctx.info, &view));
        }
        let delta = allocations() - before;
        assert_eq!(delta, 0, "{} project_view must not allocate", m.name());
    }
}

#[test]
fn batched_miss_path_is_allocation_free_once_warm() {
    // The lane-batched analogue of the scalar guarantee above: once the
    // candidate queue, lane scratch, and output vector have sized
    // themselves, re-scoring whole batches through
    // [`Evaluator::evaluate_uncached_batch`] must not allocate — under
    // the 8-lane `batch` feature and the scalar fallback alike.
    let p = kfuse_workloads::synth::scaling(60);
    let (_, ctx) = prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
    let model = ProposedModel::default();
    let ev = Evaluator::new(&ctx, &model);

    // Distinct candidates built BEFORE the measured region, spanning
    // every ragged final-sweep fill (203 % 8 == 3).
    let groups = group_pool(ctx.n_kernels());
    let mut batch = CandidateBatch::new();
    for g in groups.iter().take(203) {
        batch.push(g);
    }

    let mut scratch = BatchScratch::new();
    let mut times: Vec<f64> = Vec::new();
    std::hint::black_box(ev.evaluate_uncached_batch(&batch, &mut scratch, &mut times));

    let before = allocations();
    let mut stats = kfuse_core::batch::BatchStats::default();
    for _ in 0..3 {
        stats.merge(ev.evaluate_uncached_batch(&batch, &mut scratch, &mut times));
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "steady-state batched miss-path scoring must not allocate \
         ({delta} allocations over {} lanes in {} sweeps)",
        stats.lanes, stats.batches
    );
    // Lanes count only structure-passing candidates; the pool mixes in
    // infeasible groups on purpose, so this is a bound, not an equality.
    assert!(stats.lanes > 0 && stats.lanes <= 3 * batch.len() as u64);
}

#[test]
fn memo_hit_path_with_disabled_obs_is_allocation_free() {
    // The observability layer must cost nothing when disabled: probing a
    // warm memo through an evaluator built with `ObsHandle::disabled()`
    // (stack key + shard lookup + relaxed registry counters, no spans,
    // no timestamps) allocates nothing in steady state.
    let p = kfuse_workloads::synth::scaling(40);
    let (_, ctx) = prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
    let model = ProposedModel::default();
    let ev = Evaluator::observed(&ctx, &model, ObsHandle::disabled());
    let groups = group_pool(ctx.n_kernels());

    // Warm: every group pays its one miss (scratch sizing + memo insert).
    let mut scratch = SynthScratch::new();
    for g in &groups {
        std::hint::black_box(ev.group_with(g, &mut scratch));
    }

    let probes_before = ev.probes();
    let before = allocations();
    for _ in 0..3 {
        for g in &groups {
            std::hint::black_box(ev.group_with(g, &mut scratch));
        }
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "obs-disabled memo hit path must not allocate ({delta} allocations)"
    );
    // The registry still counted every multi-member probe.
    assert!(ev.probes() > probes_before);
    assert_eq!(
        ev.evaluations(),
        ev.snapshot().get(kfuse_obs::Counter::MemoMisses)
    );
}

#[test]
fn memo_inserts_allocate_only_when_storage_doubles() {
    // Distinct pairs of a 100-kernel program: every probe misses and
    // inserts. With a warm synthesis scratch the only allocations left
    // are the shards' table and arena doublings.
    let p = kfuse_workloads::synth::scaling(100);
    let (_, ctx) = prepare(&p, &GpuSpec::k20x(), FpPrecision::Double);
    let model = ProposedModel::default();
    let ev = Evaluator::observed(&ctx, &model, ObsHandle::disabled());
    let n = ctx.n_kernels() as u32;
    let pairs: Vec<[KernelId; 2]> = (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| [KernelId(i), KernelId(j)]))
        .collect();
    const N: usize = 2048;
    assert!(pairs.len() >= 2 * N);
    let mut scratch = SynthScratch::new();
    for g in &group_pool(ctx.n_kernels()) {
        std::hint::black_box(ev.evaluate_uncached(g, &mut scratch));
    }

    let insert = |batch: &[[KernelId; 2]], scratch: &mut SynthScratch| {
        let (misses, before) = (ev.evaluations(), allocations());
        for g in batch {
            std::hint::black_box(ev.group_with(g, scratch));
        }
        assert_eq!(ev.evaluations() - misses, batch.len() as u64);
        allocations() - before
    };
    // 16 shards, each with a table and an arena that double from empty:
    // at most 2 · 16 · (log2 N + 1) allocations for the first N entries.
    let first = insert(&pairs[..N], &mut scratch);
    let log_bound = 2 * 16 * (u64::from(N.ilog2()) + 1);
    assert!(
        first <= log_bound,
        "{first} allocations for {N} distinct inserts (bound {log_bound})"
    );
    // Doubling the entry count doubles each buffer about once more.
    let second = insert(&pairs[N..2 * N], &mut scratch);
    assert!(
        second <= 2 * 16 * 2,
        "{second} allocations for the next {N} inserts"
    );
}
