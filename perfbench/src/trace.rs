//! The benchmark's own spans: recorded around each call into a layer,
//! kept in memory, and reduced at the end to per-layer busy and self
//! times. A span's layer is its name up to the first `.`; the root span
//! of each operation is named `op` and its self time is unattributed.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end.saturating_duration_since(self.start).as_secs_f64()
    }
}

/// Span store. When off, [`Tracer::time`] only runs the closure.
pub struct Tracer {
    on: bool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("no span writer panics")
    }

    /// Record a finished span; returns its index (for children).
    pub fn record(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start,
            end,
            parent,
            op,
        });
        Some(spans.len() - 1)
    }

    /// Open the root span of operation `op`; close it with [`Tracer::close`].
    pub fn open(&self, op: u64) -> Option<usize> {
        let now = Instant::now();
        self.record("op", op, None, now, now)
    }

    pub fn close(&self, root: Option<usize>, end: Instant) {
        if let Some(i) = root {
            self.lock()[i].end = end;
        }
    }

    /// Run `f` as child `name` of `parent`.
    pub fn time<T>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.record(name, op, parent, t0, Instant::now());
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Length of the union of `ivs` clipped to `[lo, hi]`.
fn covered(mut ivs: Vec<(Instant, Instant)>, lo: Instant, hi: Instant) -> f64 {
    ivs.sort();
    let mut total = 0.0;
    let mut cur: Option<(Instant, Instant)> = None;
    for (s, e) in ivs {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += (ce - cs).as_secs_f64();
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += (ce - cs).as_secs_f64();
    }
    total
}

/// Self-time reduction of a span list.
#[derive(Debug, Default)]
pub struct SelfTimes {
    /// Wall time of all root (`op`) spans.
    pub op_wall: f64,
    /// Self time per layer; the `op` root's self time is `unattributed`.
    pub by_layer: BTreeMap<String, f64>,
    /// Self time per span name.
    pub by_name: BTreeMap<&'static str, f64>,
    /// Self time per root-to-span path, `;`-joined (collapsed stacks).
    pub stacks: BTreeMap<String, f64>,
}

fn layer_of(name: &str) -> &str {
    if name == "op" {
        "unattributed"
    } else {
        name.split('.').next().unwrap_or(name)
    }
}

/// Reduce the spans of the operations `keep` accepts.
pub fn self_times(spans: &[Span], keep: impl Fn(u64) -> bool) -> SelfTimes {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let path = |mut i: usize| {
        let mut names = vec![spans[i].name];
        while let Some(p) = spans[i].parent {
            names.push(spans[p].name);
            i = p;
        }
        names.reverse();
        names.join(";")
    };
    let mut out = SelfTimes::default();
    for (i, s) in spans.iter().enumerate() {
        if !keep(s.op) {
            continue;
        }
        if s.parent.is_none() {
            out.op_wall += s.secs();
        }
        let kids = children[i]
            .iter()
            .map(|&c| (spans[c].start, spans[c].end))
            .collect();
        let own = (s.secs() - covered(kids, s.start, s.end)).max(0.0);
        *out.by_layer
            .entry(layer_of(s.name).to_string())
            .or_default() += own;
        *out.by_name.entry(s.name).or_default() += own;
        *out.stacks.entry(path(i)).or_default() += own;
    }
    out
}

/// Summed duration of the spans called `name`.
pub fn busy(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::secs)
        .sum()
}
