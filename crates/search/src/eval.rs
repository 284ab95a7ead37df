//! Memoized objective evaluation shared by all solvers.
//!
//! The paper's key scalability lever is a cheap objective (§IV): projecting
//! a candidate new kernel must not require code generation. On top of that
//! we memoize per-group results — HGGA populations re-evaluate the same
//! groups constantly (good groups survive crossover by design), so the
//! effective cost per *plan* evaluation collapses to a few hash lookups.
//!
//! The memo is engineered for the island-model solver, where many threads
//! hammer it concurrently:
//!
//! * **Sharding.** Groups hash to one of `SHARD_COUNT` independent
//!   `RwLock` shards by an order-insensitive 64-bit fingerprint, so
//!   writers on one shard never stall readers on another.
//! * **Flat shards.** Each shard is one open-addressing (linear probing)
//!   table of fixed-size slots — fingerprint, time, key offset, key
//!   length — over one member arena that holds every stored sorted key
//!   back to back. An entry costs no heap object of its own: both buffers
//!   grow by doubling, and the table rehashes from the stored
//!   fingerprints without touching the keys.
//! * **Allocation-free hit path.** The probe key is the group sorted into
//!   a stack buffer (heap fallback only beyond `STACK_KEY` members); a
//!   hit performs zero heap allocation. Entries are compared by their full
//!   sorted member list, so fingerprint collisions are correctness-neutral.
//! * **Singleton bypass.** Per-kernel baseline costs are precomputed into
//!   a dense array at construction; singleton groups never touch the memo
//!   or its locks at all.
//! * **Structural rejection before the memo.** A group spanning a host
//!   sync, two streams or two sharing components
//!   ([`PlanContext::check_group_splits`]) scores `+∞` on every scoring
//!   path, and those tests come first there, so it is rejected before the
//!   sort, fingerprint and memo probe, and never stored. It counts as a
//!   `StructureRejects`, not a memo probe.
//!
//! Active-constraint pruning (§III-C) falls out of
//! [`kfuse_core::plan::PlanContext::check_group`]: capacity checks run only
//! for groups that actually stage pivots, and the first violated constraint
//! short-circuits the rest. Plan evaluation likewise short-circuits: the
//! first infeasible group aborts before any condensation (acyclicity) work
//! is done, and the condensation check itself runs against thread-local
//! reusable scratch ([`kfuse_core::fuse::CondensationScratch`]).

use kfuse_core::batch::{score_into, score_scalar, BatchScratch, BatchStats, CandidateBatch};
use kfuse_core::fuse::{condensation_order_with, CondensationScratch};
use kfuse_core::model::PerfModel;
use kfuse_core::plan::{FusionPlan, PlanContext};
use kfuse_core::synth::SynthScratch;
use kfuse_ir::KernelId;
use kfuse_obs::{
    ratio, worker_track, Counter, MetricsRegistry, MetricsSnapshot, ObsHandle, SpanId,
};
use parking_lot::RwLock;
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// Number of memo shards. A power of two so the shard index is a mask of
/// the fingerprint; 16 keeps contention negligible for the island counts
/// that make sense on one host while wasting little memory on small runs.
const SHARD_COUNT: usize = 16;

/// Fingerprint bits consumed by the shard index; a shard's table indexes
/// with the bits above them.
const SHARD_BITS: u32 = SHARD_COUNT.trailing_zeros();

/// Table size of a shard's first allocation (a power of two).
const MIN_SLOTS: usize = 16;

/// Largest group whose probe key is sorted on the stack.
const STACK_KEY: usize = 32;

/// Result of evaluating one group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupEval {
    /// Projected runtime of the group's new kernel, or [`f64::INFINITY`]
    /// if any constraint is violated (incl. profitability 1.1).
    pub time_s: f64,
}

impl GroupEval {
    /// True if the group satisfies every constraint.
    pub fn feasible(&self) -> bool {
        self.time_s.is_finite()
    }
}

/// The evaluation of a group that violates a constraint.
const INFEASIBLE: GroupEval = GroupEval {
    time_s: f64::INFINITY,
};

/// One entry of a shard table: the group's fingerprint and evaluation,
/// and where its sorted key lives in the shard's member arena.
#[derive(Clone, Copy)]
struct MemoSlot {
    fp: u64,
    eval: GroupEval,
    /// Arena offset of the key; [`FREE`] marks an empty slot.
    key_start: u32,
    key_len: u32,
}

/// `key_start` of an empty slot.
const FREE: u32 = u32::MAX;

const EMPTY_SLOT: MemoSlot = MemoSlot {
    fp: 0,
    eval: GroupEval { time_s: 0.0 },
    key_start: FREE,
    key_len: 0,
};

/// One memo shard: a linear-probing table of [`MemoSlot`]s over a single
/// member arena. Entries are never removed, and the table is kept at
/// most three-quarters full, so every probe ends at a free slot.
#[derive(Default)]
struct MemoShard {
    slots: Vec<MemoSlot>,
    keys: Vec<KernelId>,
    len: usize,
}

impl MemoShard {
    /// The slot holding `key`, or else the free slot ending its probe
    /// sequence. The table must be non-empty.
    fn find(&self, fp: u64, key: &[KernelId]) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = (fp >> SHARD_BITS) as usize & mask;
        loop {
            let s = &self.slots[i];
            if s.key_start == FREE
                || (s.fp == fp
                    && self.keys[s.key_start as usize..(s.key_start + s.key_len) as usize] == *key)
            {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// The stored evaluation of `key` (sorted), if any.
    fn get(&self, fp: u64, key: &[KernelId]) -> Option<GroupEval> {
        if self.slots.is_empty() {
            return None;
        }
        let s = &self.slots[self.find(fp, key)];
        (s.key_start != FREE).then_some(s.eval)
    }

    /// Store `eval` for `key` (sorted), or return the evaluation already
    /// stored for it: the first entry wins.
    fn insert(&mut self, fp: u64, key: &[KernelId], eval: GroupEval) -> Option<GroupEval> {
        if let Some(hit) = self.get(fp, key) {
            return Some(hit);
        }
        if 4 * (self.len + 1) > 3 * self.slots.len() {
            self.grow();
        }
        let i = self.find(fp, key);
        let key_start = self.keys.len();
        // Checking the end offset keeps `key_start + key_len` in range too.
        u32::try_from(key_start + key.len()).expect("memo arena exceeds u32 offsets");
        self.keys.extend_from_slice(key);
        self.slots[i] = MemoSlot {
            fp,
            eval,
            key_start: key_start as u32,
            key_len: key.len() as u32,
        };
        self.len += 1;
        None
    }

    /// Double the table and re-seat every entry by its stored fingerprint.
    fn grow(&mut self) {
        let cap = (2 * self.slots.len()).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; cap]);
        let mask = cap - 1;
        for s in old.into_iter().filter(|s| s.key_start != FREE) {
            let mut i = (s.fp >> SHARD_BITS) as usize & mask;
            while self.slots[i].key_start != FREE {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
        }
    }

    /// Heap bytes held: the slot table plus the member arena.
    fn bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<MemoSlot>()
            + self.keys.capacity() * std::mem::size_of::<KernelId>()
    }
}

thread_local! {
    static CONDENSATION_SCRATCH: RefCell<CondensationScratch> =
        RefCell::new(CondensationScratch::new());
    /// Fallback synthesis scratch for callers without their own (tests,
    /// one-off probes). Solver hot loops pass per-thread scratch through
    /// [`Evaluator::group_with`] instead.
    static SYNTH_SCRATCH: RefCell<SynthScratch> = RefCell::new(SynthScratch::new());
}

/// Shared, thread-safe objective evaluator.
///
/// All counters live in an owned [`MetricsRegistry`] (the `kfuse-obs`
/// taxonomy); the accessor methods below are derived views over it, and
/// solvers snapshot it into their [`kfuse_core::pipeline::SolveOutcome`].
pub struct Evaluator<'a> {
    /// Planning context (metadata + graphs).
    pub ctx: &'a PlanContext,
    /// The projection model used as objective (Eq. 1).
    pub model: &'a dyn PerfModel,
    shards: Vec<RwLock<MemoShard>>,
    /// Dense per-kernel baseline: `baseline[k]` is the singleton eval of
    /// kernel `k`, precomputed so singleton groups bypass the memo.
    baseline: Vec<GroupEval>,
    metrics: MetricsRegistry,
    obs: ObsHandle<'a>,
}

impl<'a> Evaluator<'a> {
    /// Create an evaluator over `ctx` and `model` (tracing disabled).
    pub fn new(ctx: &'a PlanContext, model: &'a dyn PerfModel) -> Self {
        Self::observed(ctx, model, ObsHandle::disabled())
    }

    /// [`Self::new`] with a tracing handle: memo misses and synthesis emit
    /// spans on the calling worker's track. A disabled handle costs one
    /// branch on the miss path and nothing on the hit path.
    pub fn observed(ctx: &'a PlanContext, model: &'a dyn PerfModel, obs: ObsHandle<'a>) -> Self {
        let mut scratch = SynthScratch::new();
        let baseline = (0..ctx.n_kernels())
            .map(|i| compute_with(ctx, model, &[KernelId(i as u32)], &mut scratch).0)
            .collect();
        Evaluator {
            ctx,
            model,
            shards: (0..SHARD_COUNT)
                .map(|_| RwLock::new(MemoShard::default()))
                .collect(),
            baseline,
            metrics: MetricsRegistry::new(),
            obs,
        }
    }

    /// The metrics registry this evaluator accumulates into. Solvers add
    /// their own counters (generations, migrations, …) here so one
    /// snapshot captures the whole run.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The tracing handle this evaluator records through.
    pub fn obs(&self) -> ObsHandle<'a> {
        self.obs
    }

    /// Point-in-time copy of all accumulated metrics.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Number of *distinct* multi-member objective evaluations performed
    /// (memo misses). Singleton baselines are precomputed at construction
    /// and not counted.
    pub fn evaluations(&self) -> u64 {
        self.metrics.get(Counter::MemoMisses)
    }

    /// Number of multi-member memo probes (hits + misses). Singleton
    /// lookups resolve through the dense baseline and are not counted.
    pub fn probes(&self) -> u64 {
        self.metrics.get(Counter::MemoProbes)
    }

    /// Fraction of multi-member memo probes served from the memo,
    /// `(probes - misses) / probes`; 0 when nothing has been probed yet.
    pub fn hit_rate(&self) -> f64 {
        let probes = self.probes();
        ratio(probes.saturating_sub(self.evaluations()), probes)
    }

    /// Fraction of multi-member memo probes that missed and paid the
    /// synthesis + projection cost, `misses / probes`; 0 before any probe.
    pub fn miss_rate(&self) -> f64 {
        ratio(self.evaluations(), self.probes())
    }

    /// Average number of candidate lanes occupied per batched scoring
    /// sweep, `BatchLanesFilled / BatchesScored`: up to
    /// [`kfuse_core::batch::LANES`] with the `batch` feature, exactly 1
    /// under the scalar fallback, 0 while nothing has been batch-scored.
    pub fn avg_batch_fill(&self) -> f64 {
        ratio(
            self.metrics.get(Counter::BatchLanesFilled),
            self.metrics.get(Counter::BatchesScored),
        )
    }

    /// Total wall-clock nanoseconds spent on the memo-miss path (group
    /// synthesis + projection + insert), summed over all threads.
    pub fn miss_ns(&self) -> u64 {
        self.metrics.get(Counter::MissNs)
    }

    /// Nanoseconds of [`Self::miss_ns`] spent inside group synthesis
    /// proper (`synthesize_into`), summed over all threads.
    pub fn synth_ns(&self) -> u64 {
        self.metrics.get(Counter::SynthNs)
    }

    /// Number of plan-level condensation (acyclicity) checks performed.
    /// Plans rejected on an infeasible group never reach this check.
    pub fn condensation_checks(&self) -> u64 {
        self.metrics.get(Counter::CondensationChecks)
    }

    /// Record an acyclicity check performed outside [`Evaluator::plan`] —
    /// the chromosome's incremental Kahn pass and the reference repair's
    /// from-scratch condensation both report through this so the
    /// per-variant counts in the scaling study are comparable.
    pub(crate) fn count_condensation(&self) {
        self.metrics.incr(Counter::CondensationChecks);
    }

    /// Add `v` to a solver-side counter (generations, finalizes, …): the
    /// GA loops and chromosome machinery report through the evaluator so
    /// the whole run lands in one registry.
    pub(crate) fn count(&self, c: Counter, v: u64) {
        self.metrics.add(c, v);
    }

    /// The memo shard `fp` belongs to.
    fn shard(&self, fp: u64) -> &RwLock<MemoShard> {
        &self.shards[(fp & (SHARD_COUNT as u64 - 1)) as usize]
    }

    /// Heap bytes the memo holds: every shard's slot table plus member
    /// arena (reported as the `memo_bytes` gauge).
    pub(crate) fn memo_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.read().bytes()).sum()
    }

    /// The precomputed singleton eval of kernel `k` — the delta path's
    /// repair step resolves lone orphans through this without touching the
    /// memo or re-sorting a one-element key.
    pub fn singleton(&self, k: KernelId) -> GroupEval {
        self.baseline[k.index()]
    }

    /// Evaluate one group (memoized). `group` need not be sorted. Misses
    /// synthesize into a thread-local scratch; hot loops that already own
    /// scratch should call [`Self::group_with`].
    pub fn group(&self, group: &[KernelId]) -> GroupEval {
        self.group_inner(group, None)
    }

    /// [`Self::group`] with caller-owned synthesis scratch, skipping the
    /// thread-local borrow on the miss path.
    pub fn group_with(&self, group: &[KernelId], scratch: &mut SynthScratch) -> GroupEval {
        self.group_inner(group, Some(scratch))
    }

    /// The raw objective with no memo interaction and no stat counters:
    /// structure checks, SoA synthesis into `scratch`, view projection and
    /// the profitability gate. This is the allocation-free unit the
    /// `search_scaling` miss-path benchmark times.
    pub fn evaluate_uncached(&self, group: &[KernelId], scratch: &mut SynthScratch) -> GroupEval {
        compute_with(self.ctx, self.model, group, scratch).0
    }

    fn group_inner(&self, group: &[KernelId], scratch: Option<&mut SynthScratch>) -> GroupEval {
        if let [k] = group {
            return self.baseline[k.index()];
        }
        // The split tests open every scoring path and each failure scores
        // `+∞`, so rejecting here, before the sort, fingerprint and memo
        // probe, changes no evaluation.
        if self.ctx.check_group_splits(group, 0).is_err() {
            self.metrics.incr(Counter::StructureRejects);
            return INFEASIBLE;
        }
        self.metrics.incr(Counter::MemoProbes);
        with_sorted_key(group, |key| {
            let fp = fingerprint(key);
            let shard = self.shard(fp);
            if let Some(hit) = shard.read().get(fp, key) {
                return hit;
            }
            self.metrics.incr(Counter::MemoMisses);
            let t0 = Instant::now();
            let (eval, synth_ns) = match scratch {
                Some(s) => compute_with(self.ctx, self.model, key, s),
                None => SYNTH_SCRATCH
                    .with(|s| compute_with(self.ctx, self.model, key, &mut s.borrow_mut())),
            };
            self.metrics.add(Counter::SynthNs, synth_ns);
            // A racing thread may have inserted while we computed.
            if let Some(hit) = shard.write().insert(fp, key, eval) {
                return hit;
            }
            let miss = t0.elapsed();
            self.metrics.add(Counter::MissNs, miss.as_nanos() as u64);
            if self.obs.is_enabled() {
                // Reuse the timestamps the miss path measures anyway: the
                // synthesis span is nested at the front of the miss span.
                let track = worker_track();
                let len = key.len() as u64;
                self.obs
                    .record_span(SpanId::MemoMiss, track, t0, miss, [len, 0]);
                self.obs.record_span(
                    SpanId::Synthesis,
                    track,
                    t0,
                    Duration::from_nanos(synth_ns),
                    [len, 0],
                );
            }
            eval
        })
    }

    /// Evaluate a whole plan: sum of group times, or infinity if any group
    /// is infeasible or the plan's condensation has a cycle. Returns on the
    /// first infeasible group without touching the condensation machinery.
    pub fn plan(&self, plan: &FusionPlan) -> f64 {
        let mut total = 0.0;
        let mut any_multi = false;
        for g in &plan.groups {
            let e = self.group(g);
            if !e.feasible() {
                return f64::INFINITY;
            }
            any_multi |= g.len() >= 2;
            total += e.time_s;
        }
        if any_multi {
            self.metrics.incr(Counter::CondensationChecks);
            let acyclic = CONDENSATION_SCRATCH.with(|s| {
                condensation_order_with(plan, &self.ctx.exec, &mut s.borrow_mut()).is_ok()
            });
            if !acyclic {
                return f64::INFINITY;
            }
        }
        total
    }

    /// True if `group` satisfies every constraint.
    pub fn feasible(&self, group: &[KernelId]) -> bool {
        self.group(group).feasible()
    }
}

/// Reusable state for [`Evaluator::group_batch`]: a candidate queue, the
/// distinct-miss queue behind it, and the lane-batched scoring scratch.
/// One per solver thread; every buffer is retained across calls, so
/// steady-state probing allocates nothing.
pub struct BatchProbe {
    /// Candidates exactly as enqueued by the caller.
    cands: CandidateBatch,
    /// Distinct memo misses (canonically sorted keys) awaiting scoring.
    miss: CandidateBatch,
    /// Fingerprint of each entry in `miss` (parallel array).
    miss_fp: Vec<u64>,
    /// `(candidate index, miss index)` pairs resolved after the flush.
    pending: Vec<(u32, u32)>,
    /// Scored seconds per miss (parallel to `miss`).
    times: Vec<f64>,
    /// Lane-batched synthesis + projection scratch.
    core: BatchScratch,
}

impl Default for BatchProbe {
    fn default() -> Self {
        BatchProbe::new()
    }
}

impl BatchProbe {
    /// An empty probe; its buffers size themselves on first use.
    pub fn new() -> Self {
        BatchProbe {
            cands: CandidateBatch::new(),
            miss: CandidateBatch::new(),
            miss_fp: Vec::new(),
            pending: Vec::new(),
            times: Vec::new(),
            core: BatchScratch::new(),
        }
    }

    /// Remove every queued candidate, keeping capacity.
    pub fn clear(&mut self) {
        self.cands.clear();
    }

    /// Enqueue a complete candidate; returns its index.
    pub fn push(&mut self, group: &[KernelId]) -> usize {
        self.cands.push(group)
    }

    /// Append one member to the candidate currently being built (close it
    /// with [`BatchProbe::seal`]).
    pub fn push_member(&mut self, k: KernelId) {
        self.cands.push_member(k);
    }

    /// Append members to the candidate currently being built.
    pub fn extend_members(&mut self, ks: &[KernelId]) {
        self.cands.extend_members(ks);
    }

    /// Close the candidate built member-by-member; returns its index.
    pub fn seal(&mut self) -> usize {
        self.cands.seal()
    }

    /// Number of candidates queued.
    pub fn len(&self) -> usize {
        self.cands.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.cands.is_empty()
    }

    /// The members of queued candidate `i`, exactly as enqueued.
    pub fn group(&self, i: usize) -> &[KernelId] {
        self.cands.group(i)
    }
}

impl<'a> Evaluator<'a> {
    /// Evaluate every candidate queued in `probe` (memoized), leaving
    /// `out[i]` as the eval of candidate `i`. Equivalent to calling
    /// [`Self::group`] per candidate — bitwise-identical results — but
    /// memo misses are gathered and scored lane-per-candidate through
    /// [`kfuse_core::batch::score_into`], so a probe batch pays the
    /// synthesis + projection cost once per [`kfuse_core::batch::LANES`]
    /// distinct misses instead of once per miss.
    ///
    /// The queue survives the call — callers replay scored candidates by
    /// index (`probe.group(i)` / `out[i]`) — and is reset by the next
    /// [`BatchProbe::clear`].
    pub fn group_batch(&self, probe: &mut BatchProbe, out: &mut Vec<GroupEval>) {
        let BatchProbe {
            cands,
            miss,
            miss_fp,
            pending,
            times,
            core,
        } = probe;
        miss.clear();
        miss_fp.clear();
        pending.clear();
        out.clear();
        let (mut multi_probes, mut rejects) = (0u64, 0u64);
        for i in 0..cands.len() {
            let group = cands.group(i);
            if let [k] = group {
                out.push(self.baseline[k.index()]);
                continue;
            }
            if self.ctx.check_group_splits(group, 0).is_err() {
                rejects += 1;
                out.push(INFEASIBLE);
                continue;
            }
            multi_probes += 1;
            let eval = with_sorted_key(group, |key| {
                let fp = fingerprint(key);
                if let Some(hit) = self.shard(fp).read().get(fp, key) {
                    return hit;
                }
                // Distinct miss, or an in-batch duplicate of one already
                // queued; either way the candidate resolves after the
                // flush. NaN is a placeholder, never returned.
                let j = (0..miss.len())
                    .find(|&j| miss_fp[j] == fp && miss.group(j) == key)
                    .unwrap_or_else(|| {
                        miss_fp.push(fp);
                        miss.push(key)
                    });
                pending.push((i as u32, j as u32));
                GroupEval { time_s: f64::NAN }
            });
            out.push(eval);
        }
        self.metrics.add(Counter::MemoProbes, multi_probes);
        self.metrics.add(Counter::StructureRejects, rejects);
        if !miss.is_empty() {
            let t0 = Instant::now();
            let stats = score_into(self.ctx, self.model, miss, core, times);
            self.metrics.add(Counter::MemoMisses, miss.len() as u64);
            self.metrics.add(Counter::SynthNs, stats.synth_ns);
            self.metrics.add(Counter::BatchesScored, stats.batches);
            self.metrics.add(Counter::BatchLanesFilled, stats.lanes);
            // Publish in queue order so single-threaded runs populate the
            // memo deterministically; a racing thread's entry wins (the
            // values are bitwise equal — same pure function — so this
            // only avoids duplicate entries).
            for j in 0..miss.len() {
                let fp = miss_fp[j];
                let eval = GroupEval { time_s: times[j] };
                if let Some(hit) = self.shard(fp).write().insert(fp, miss.group(j), eval) {
                    times[j] = hit.time_s;
                }
            }
            let dur = t0.elapsed();
            self.metrics.add(Counter::MissNs, dur.as_nanos() as u64);
            if self.obs.is_enabled() {
                self.obs.record_span(
                    SpanId::BatchScore,
                    worker_track(),
                    t0,
                    dur,
                    [miss.len() as u64, stats.lanes],
                );
            }
            for &(i, j) in pending.iter() {
                out[i as usize] = GroupEval {
                    time_s: times[j as usize],
                };
            }
        }
    }

    /// The raw batched objective with no memo interaction and no stat
    /// counters: every candidate of `batch` scored through the
    /// lane-batched path (or the scalar fallback when the `batch` feature
    /// is off) into `out`. This is the allocation-free unit the
    /// `search_scaling` batch miss-path benchmark times.
    pub fn evaluate_uncached_batch(
        &self,
        batch: &CandidateBatch,
        scratch: &mut BatchScratch,
        out: &mut Vec<f64>,
    ) -> BatchStats {
        score_into(self.ctx, self.model, batch, scratch, out)
    }
}

/// Run `f` on `group` sorted into canonical order, without allocating for
/// groups up to [`STACK_KEY`] members.
fn with_sorted_key<R>(group: &[KernelId], f: impl FnOnce(&[KernelId]) -> R) -> R {
    if group.len() <= STACK_KEY {
        let mut buf = [KernelId(0); STACK_KEY];
        let key = &mut buf[..group.len()];
        key.copy_from_slice(group);
        key.sort_unstable();
        f(key)
    } else {
        let mut key = group.to_vec();
        key.sort_unstable();
        f(&key)
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Order-insensitive 64-bit group fingerprint: each member id is expanded
/// through splitmix64 and the results combined with a commutative sum, so
/// any permutation of the same members produces the same fingerprint.
/// Collisions are tolerated (entries are verified member-by-member).
fn fingerprint(group: &[KernelId]) -> u64 {
    let mut acc = (group.len() as u64).wrapping_mul(0xa076_1d64_78bd_642f);
    for &k in group {
        acc = acc.wrapping_add(splitmix64(k.0 as u64));
    }
    acc
}

/// The raw (unmemoized) group objective over the allocation-free SoA path:
/// structure checks, synthesis into `scratch`, limit checks on the view,
/// view projection, profitability. Returns the eval plus the nanoseconds
/// spent inside `synthesize_into`. Delegates to
/// [`kfuse_core::batch::score_scalar`] — the single scalar definition the
/// lane-batched path is proven bitwise-identical against.
fn compute_with(
    ctx: &PlanContext,
    model: &dyn PerfModel,
    group: &[KernelId],
    scratch: &mut SynthScratch,
) -> (GroupEval, u64) {
    let (t, synth_ns) = score_scalar(ctx, model, group, scratch);
    (GroupEval { time_s: t }, synth_ns)
}

/// The raw (unmemoized) group objective over the materializing legacy
/// path, retained for [`legacy::LegacyEvaluator`] and as the comparison
/// baseline in the miss-path benchmark.
fn compute_group(ctx: &PlanContext, model: &dyn PerfModel, group: &[KernelId]) -> GroupEval {
    let spec = match ctx.check_group(group, 0) {
        Ok(s) => s,
        Err(_) => {
            return GroupEval {
                time_s: f64::INFINITY,
            }
        }
    };
    let t = model.project(&ctx.info, &spec);
    if group.len() >= 2 {
        // Constraint 1.1: profitability.
        let original = ctx.info.original_sum(group);
        if t >= original || t.is_nan() {
            return GroupEval {
                time_s: f64::INFINITY,
            };
        }
    }
    GroupEval { time_s: t }
}

/// The pre-sharding evaluator, retained verbatim as the baseline for the
/// `search_scaling` experiment (evaluations/sec before vs. after the memo
/// overhaul). Not used by any solver.
pub mod legacy {
    use super::{GroupEval, PerfModel};
    use kfuse_core::fuse::condensation_order;
    use kfuse_core::plan::{FusionPlan, PlanContext};
    use kfuse_ir::KernelId;
    use parking_lot::RwLock;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Single global `RwLock<HashMap>` memo with an allocating key per
    /// lookup — the evaluator as it stood before the sharded rework.
    pub struct LegacyEvaluator<'a> {
        /// Planning context (metadata + graphs).
        pub ctx: &'a PlanContext,
        /// The projection model used as objective (Eq. 1).
        pub model: &'a dyn PerfModel,
        memo: RwLock<HashMap<Vec<KernelId>, GroupEval>>,
        evaluations: AtomicU64,
        probes: AtomicU64,
    }

    impl<'a> LegacyEvaluator<'a> {
        /// Create an evaluator over `ctx` and `model`.
        pub fn new(ctx: &'a PlanContext, model: &'a dyn PerfModel) -> Self {
            LegacyEvaluator {
                ctx,
                model,
                memo: RwLock::new(HashMap::new()),
                evaluations: AtomicU64::new(0),
                probes: AtomicU64::new(0),
            }
        }

        /// Number of distinct objective evaluations performed.
        pub fn evaluations(&self) -> u64 {
            self.evaluations.load(Ordering::Relaxed)
        }

        /// Number of memo probes issued (the legacy memo probes for
        /// singletons too, unlike the sharded evaluator's baseline
        /// bypass).
        pub fn probes(&self) -> u64 {
            self.probes.load(Ordering::Relaxed)
        }

        /// Fraction of probes served from the memo. Normalized through
        /// [`kfuse_obs::ratio`], so a fresh evaluator reports `0.0` —
        /// matching the sharded [`super::Evaluator::hit_rate`] instead of
        /// the `NaN` a bare `hits / probes` division would yield.
        pub fn hit_rate(&self) -> f64 {
            let probes = self.probes();
            kfuse_obs::ratio(probes.saturating_sub(self.evaluations()), probes)
        }

        /// Evaluate one group (memoized).
        pub fn group(&self, group: &[KernelId]) -> GroupEval {
            self.probes.fetch_add(1, Ordering::Relaxed);
            let mut key = group.to_vec();
            key.sort_unstable();
            if let Some(hit) = self.memo.read().get(&key) {
                return *hit;
            }
            self.evaluations.fetch_add(1, Ordering::Relaxed);
            let eval = super::compute_group(self.ctx, self.model, &key);
            self.memo.write().insert(key, eval);
            eval
        }

        /// Evaluate a whole plan.
        pub fn plan(&self, plan: &FusionPlan) -> f64 {
            let mut total = 0.0;
            for g in &plan.groups {
                let e = self.group(g);
                if !e.feasible() {
                    return f64::INFINITY;
                }
                total += e.time_s;
            }
            if plan.groups.iter().any(|g| g.len() >= 2)
                && condensation_order(plan, &self.ctx.exec).is_err()
            {
                return f64::INFINITY;
            }
            total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfuse_core::model::ProposedModel;
    use kfuse_core::pipeline::prepare;
    use kfuse_gpu::{FpPrecision, GpuSpec};
    use kfuse_ir::builder::ProgramBuilder;
    use kfuse_ir::Expr;

    fn ctx() -> PlanContext {
        let mut pb = ProgramBuilder::new("p", [256, 128, 8]);
        let a = pb.array("A");
        let [b, c, d] = pb.arrays(["B", "C", "D"]);
        pb.kernel("k0")
            .write(b, Expr::at(a) + Expr::lit(1.0))
            .build();
        pb.kernel("k1")
            .write(c, Expr::at(a) * Expr::lit(2.0))
            .build();
        pb.kernel("k2").write(d, Expr::at(b) + Expr::at(c)).build();
        let p = pb.build();
        prepare(&p, &GpuSpec::k20x(), FpPrecision::Double).1
    }

    /// `ctx()` plus a fourth kernel sharing no data with k0 (kinship 0).
    fn ctx_with_stranger() -> PlanContext {
        let mut pb = ProgramBuilder::new("p", [256, 128, 8]);
        let a = pb.array("A");
        let [b, c, d] = pb.arrays(["B", "C", "D"]);
        let [x, y] = pb.arrays(["X", "Y"]);
        pb.kernel("k0")
            .write(b, Expr::at(a) + Expr::lit(1.0))
            .build();
        pb.kernel("k1")
            .write(c, Expr::at(a) * Expr::lit(2.0))
            .build();
        pb.kernel("k2").write(d, Expr::at(b) + Expr::at(c)).build();
        pb.kernel("k3")
            .write(y, Expr::at(x) * Expr::lit(0.5))
            .build();
        let p = pb.build();
        prepare(&p, &GpuSpec::k20x(), FpPrecision::Double).1
    }

    #[test]
    fn memoization_counts_distinct_groups_once() {
        let ctx = ctx();
        let model = ProposedModel::default();
        let ev = Evaluator::new(&ctx, &model);
        let g = vec![KernelId(0), KernelId(1)];
        let e1 = ev.group(&g);
        let e2 = ev.group(&[KernelId(1), KernelId(0)]); // order-insensitive
        assert_eq!(e1, e2);
        assert_eq!(ev.evaluations(), 1);
    }

    #[test]
    fn singletons_bypass_the_memo() {
        let ctx = ctx();
        let model = ProposedModel::default();
        let ev = Evaluator::new(&ctx, &model);
        for k in 0..3 {
            let e = ev.group(&[KernelId(k)]);
            assert!(e.feasible());
        }
        // Baseline lookups are not memo misses.
        assert_eq!(ev.evaluations(), 0);
    }

    #[test]
    fn identity_plan_is_finite_and_equals_measured_sum() {
        let ctx = ctx();
        let model = ProposedModel::default();
        let ev = Evaluator::new(&ctx, &model);
        let plan = FusionPlan::identity(3);
        let t = ev.plan(&plan);
        let sum: f64 = ctx.info.kernels.iter().map(|k| k.runtime_s).sum();
        assert!((t - sum).abs() / sum < 1e-12);
    }

    #[test]
    fn profitable_merge_is_feasible_and_faster() {
        let ctx = ctx();
        let model = ProposedModel::default();
        let ev = Evaluator::new(&ctx, &model);
        let fused = FusionPlan::new(vec![vec![KernelId(0), KernelId(1), KernelId(2)]]);
        let t_f = ev.plan(&fused);
        let t_i = ev.plan(&FusionPlan::identity(3));
        assert!(t_f.is_finite());
        assert!(t_f < t_i);
    }

    #[test]
    fn infeasible_plan_short_circuits_before_condensation() {
        let ctx = ctx_with_stranger();
        let model = ProposedModel::default();
        let ev = Evaluator::new(&ctx, &model);
        // {k0, k3} share no arrays → kinship violation → infeasible group.
        let bad = FusionPlan::new(vec![
            vec![KernelId(0), KernelId(3)],
            vec![KernelId(1)],
            vec![KernelId(2)],
        ]);
        assert!(ev.plan(&bad).is_infinite());
        assert_eq!(
            ev.condensation_checks(),
            0,
            "infeasible plan must not reach the condensation check"
        );
        // A feasible multi-member plan does run (exactly) one check.
        let good = FusionPlan::new(vec![
            vec![KernelId(0), KernelId(1), KernelId(2)],
            vec![KernelId(3)],
        ]);
        assert!(ev.plan(&good).is_finite());
        assert_eq!(ev.condensation_checks(), 1);
    }

    #[test]
    fn matches_legacy_evaluator() {
        let ctx = ctx_with_stranger();
        let model = ProposedModel::default();
        let ev = Evaluator::new(&ctx, &model);
        let old = legacy::LegacyEvaluator::new(&ctx, &model);
        let plans = [
            FusionPlan::identity(4),
            FusionPlan::new(vec![
                vec![KernelId(0), KernelId(1), KernelId(2)],
                vec![KernelId(3)],
            ]),
            FusionPlan::new(vec![
                vec![KernelId(2), KernelId(1)],
                vec![KernelId(0)],
                vec![KernelId(3)],
            ]),
            FusionPlan::new(vec![
                vec![KernelId(0), KernelId(3)],
                vec![KernelId(1)],
                vec![KernelId(2)],
            ]),
        ];
        for plan in &plans {
            let a = ev.plan(plan);
            let b = old.plan(plan);
            assert!(
                (a.is_infinite() && b.is_infinite()) || a == b,
                "sharded {a} vs legacy {b} for {plan:?}"
            );
        }
    }

    #[test]
    fn fingerprint_is_order_insensitive_and_length_aware() {
        let a = [KernelId(3), KernelId(7), KernelId(11)];
        let b = [KernelId(11), KernelId(3), KernelId(7)];
        assert_eq!(fingerprint(&a), fingerprint(&b));
        // {3} vs {3,3} style degeneracies differ by the length term.
        assert_ne!(
            fingerprint(&[KernelId(3)]),
            fingerprint(&[KernelId(3), KernelId(3)])
        );
    }

    fn keys(n: u32) -> Vec<Vec<KernelId>> {
        (0..n).map(|i| vec![KernelId(i), KernelId(i + 1)]).collect()
    }

    #[test]
    fn shard_keeps_keys_that_share_a_fingerprint_apart() {
        let mut shard = MemoShard::default();
        let (a, b) = ([KernelId(1), KernelId(2)], [KernelId(3), KernelId(9)]);
        let (ea, eb) = (GroupEval { time_s: 1.0 }, GroupEval { time_s: 2.0 });
        assert_eq!(shard.insert(42, &a, ea), None);
        assert_eq!(shard.insert(42, &b, eb), None);
        assert_eq!(shard.get(42, &a), Some(ea));
        assert_eq!(shard.get(42, &b), Some(eb));
        assert_eq!(shard.get(42, &[KernelId(1), KernelId(3)]), None);
        // Re-inserting a stored key keeps the first entry.
        assert_eq!(shard.insert(42, &a, eb), Some(ea));
        assert_eq!(shard.len, 2);
    }

    #[test]
    fn shard_entries_survive_repeated_growth() {
        let mut shard = MemoShard::default();
        let keys = keys(5000);
        for (i, k) in keys.iter().enumerate() {
            let eval = GroupEval { time_s: i as f64 };
            assert_eq!(shard.insert(fingerprint(k), k, eval), None);
        }
        assert!(shard.slots.len() >= 8192, "the table grew past 4096 slots");
        for (i, k) in keys.iter().enumerate() {
            let got = shard.get(fingerprint(k), k);
            assert_eq!(got, Some(GroupEval { time_s: i as f64 }), "key {i}");
        }
        assert_eq!(shard.keys.len(), 2 * keys.len());
    }

    #[test]
    fn probe_through_a_full_cluster_terminates() {
        // Every key on one fingerprint: the table is a single cluster up
        // to the load limit, and a probe for an absent key must walk it to
        // the free slot that ends it.
        let mut shard = MemoShard::default();
        for k in &keys(3 * MIN_SLOTS as u32 / 4) {
            shard.insert(7, k, GroupEval { time_s: 0.5 });
        }
        assert_eq!(shard.slots.len(), MIN_SLOTS, "no growth before the limit");
        let absent = [KernelId(1000), KernelId(1001)];
        assert_eq!(shard.get(7, &absent), None);
        assert_eq!(shard.get(7 + (3 << SHARD_BITS), &absent), None);
        // One more entry crosses the limit and doubles the table.
        shard.insert(7, &absent, GroupEval { time_s: 0.5 });
        assert_eq!(shard.slots.len(), 2 * MIN_SLOTS);
        assert_eq!(shard.get(7, &absent), Some(GroupEval { time_s: 0.5 }));
    }

    #[test]
    fn memo_bytes_counts_tables_and_arenas() {
        let ctx = ctx();
        let model = ProposedModel::default();
        let ev = Evaluator::new(&ctx, &model);
        assert_eq!(ev.memo_bytes(), 0, "an unused memo holds nothing");
        ev.group(&[KernelId(0), KernelId(1)]);
        let slot = std::mem::size_of::<MemoSlot>();
        assert!(ev.memo_bytes() >= MIN_SLOTS * slot + 2 * std::mem::size_of::<KernelId>());
    }

    #[test]
    fn large_groups_fall_back_to_heap_keys() {
        // A 40-kernel chain exercises the > STACK_KEY probe path;
        // feasibility of the mega-group is irrelevant to the memo logic.
        let mut pb = ProgramBuilder::new("chain", [256, 128, 8]);
        let mut prev = pb.array("A0");
        let mut kernels = Vec::new();
        for i in 0..40 {
            let next = pb.array(format!("A{}", i + 1));
            pb.kernel(format!("k{i}"))
                .write(next, Expr::at(prev) + Expr::lit(1.0))
                .build();
            kernels.push(KernelId(i as u32));
            prev = next;
        }
        let p = pb.build();
        let ctx = prepare(&p, &GpuSpec::k20x(), FpPrecision::Double).1;
        let model = ProposedModel::default();
        let ev = Evaluator::new(&ctx, &model);
        let e1 = ev.group(&kernels);
        let mut rev = kernels.clone();
        rev.reverse();
        let e2 = ev.group(&rev);
        assert_eq!(e1, e2);
        assert_eq!(ev.evaluations(), 1);
    }
}
