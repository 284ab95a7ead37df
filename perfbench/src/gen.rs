//! Seeded input generation: a small deterministic RNG and the program
//! rewrites the workloads use (array renaming, independent-kernel
//! reordering, single-kernel perturbation).

use kfuse_ir::kernel::{Kernel, Segment, Staging, Statement};
use kfuse_ir::{ArrayDecl, ArrayId, Expr, KernelId, Program};

/// splitmix64: the whole benchmark draws from this, so one `--seed`
/// fixes every generated input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Renumber and rename every array by a random permutation. The program
/// is the same computation, so its fingerprint — and its cached plan,
/// which names kernels only — is unchanged.
pub fn rename_arrays(p: &Program, rng: &mut Rng) -> Program {
    let mut perm: Vec<usize> = (0..p.arrays.len()).collect();
    rng.shuffle(&mut perm);
    let tag = rng.next_u64() % 10_000;
    let map = |a: ArrayId| ArrayId(perm[a.index()] as u32);
    let mut arrays: Vec<Option<ArrayDecl>> = vec![None; p.arrays.len()];
    for d in &p.arrays {
        let id = map(d.id);
        arrays[id.index()] = Some(ArrayDecl {
            id,
            name: format!("{}_{tag}", d.name),
            redundant_copy_of: d.redundant_copy_of.map(map),
        });
    }
    let kernels = p
        .kernels
        .iter()
        .map(|k| Kernel {
            id: k.id,
            name: k.name.clone(),
            segments: k
                .segments
                .iter()
                .map(|s| Segment {
                    source: s.source,
                    barrier_before: s.barrier_before,
                    statements: s
                        .statements
                        .iter()
                        .map(|st| Statement {
                            target: map(st.target),
                            expr: st.expr.map_arrays(&map),
                        })
                        .collect(),
                })
                .collect(),
            staging: k
                .staging
                .iter()
                .map(|s| Staging {
                    array: map(s.array),
                    halo: s.halo,
                    medium: s.medium,
                })
                .collect(),
        })
        .collect();
    Program {
        arrays: arrays
            .into_iter()
            .map(|a| a.expect("a permutation fills every slot"))
            .collect(),
        kernels,
        ..p.clone()
    }
}

/// True when kernels `a` and `b` touch no common array that either of
/// them writes: running them in either order gives the same result.
fn independent(a: &Kernel, b: &Kernel) -> bool {
    let (wa, wb) = (a.writes(), b.writes());
    let (ta, tb) = (a.touched(), b.touched());
    !wa.iter().any(|x| tb.contains(x)) && !wb.iter().any(|x| ta.contains(x))
}

/// Swap up to `swaps` random adjacent pairs of mutually independent
/// kernels in the same stream with no host sync between them, then
/// renumber the kernels. Same computation, same fingerprint.
pub fn reorder_kernels(p: &Program, swaps: usize, rng: &mut Rng) -> Program {
    let mut order: Vec<usize> = (0..p.kernels.len()).collect();
    let n = order.len();
    for _ in 0..swaps * 4 {
        if n < 2 {
            break;
        }
        let i = rng.below(n - 1);
        let (a, b) = (&p.kernels[order[i]], &p.kernels[order[i + 1]]);
        let same_stream = p.stream_of(a.id) == p.stream_of(b.id);
        let sync_between = p.host_syncs.contains(&((i + 1) as u32));
        if same_stream && !sync_between && independent(a, b) {
            order.swap(i, i + 1);
        }
    }
    let new_id = {
        let mut v = vec![0u32; n];
        for (new, &old) in order.iter().enumerate() {
            v[old] = new as u32;
        }
        v
    };
    let kernels = order
        .iter()
        .map(|&old| {
            let k = &p.kernels[old];
            Kernel {
                id: KernelId(new_id[old]),
                segments: k
                    .segments
                    .iter()
                    .map(|s| Segment {
                        source: KernelId(new_id[s.source.index()]),
                        ..s.clone()
                    })
                    .collect(),
                ..k.clone()
            }
        })
        .collect();
    let streams = if p.streams.is_empty() {
        Vec::new()
    } else {
        order.iter().map(|&old| p.streams[old]).collect()
    };
    Program {
        kernels,
        streams,
        ..p.clone()
    }
}

/// Add `extra` floating-point additions to the first statement of kernel
/// `k`: a new program whose only changed local signature is kernel `k`'s.
pub fn perturb(p: &Program, k: usize, extra: usize) -> Program {
    let mut q = p.clone();
    let st = &mut q.kernels[k].segments[0].statements[0];
    for i in 0..extra {
        st.expr = st.expr.clone() + Expr::lit(1.0 + i as f64 / 64.0);
    }
    q
}
