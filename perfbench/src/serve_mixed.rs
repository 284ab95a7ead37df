//! `serve_mixed`: an in-process daemon (2 workers, one shared plan cache)
//! under a closed loop of 2 client threads. Each client sends its next
//! request only after the reply to the previous one. Requests carry
//! inline programs of 20 kernels; the mix is exact repeats of cached
//! programs, freshly perturbed copies of them (near hits), programs no
//! request has sent before (misses, whose plans the cache then stores),
//! and `verify` of plans served during set-up.

use crate::gen::{self, Rng};
use crate::report::{self, Run};
use crate::trace::{self, Tracer};
use kfuse_ir::Program;
use kfuse_serve::{Daemon, LocalClient, ServeConfig};
use kfuse_workloads::SynthConfig;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
const KERNELS: usize = 20;
/// Programs cached during set-up: the targets of exact and near hits.
/// Request cost varies a lot between generated programs, so the run
/// spreads its exact and near hits over many of them.
const BASES: usize = 48;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Exact,
    Near,
    New,
    Verify,
}

impl Kind {
    /// The request mix, in percent.
    const MIX: [(Kind, usize); 4] = [
        (Kind::Exact, 40),
        (Kind::Near, 25),
        (Kind::New, 15),
        (Kind::Verify, 20),
    ];

    fn pick(rng: &mut Rng) -> Kind {
        let mut r = rng.below(100);
        for (k, w) in Kind::MIX {
            if r < w {
                return k;
            }
            r -= w;
        }
        unreachable!("the mix sums to 100")
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Exact => "exact",
            Kind::Near => "near",
            Kind::New => "new",
            Kind::Verify => "verify",
        }
    }

    /// The latency class of operation `op` of this kind (see
    /// `report::class_quantile`). Exact hits and verifies resend the
    /// cached programs over and over, so each kind is one class; near and
    /// new requests never repeat, so each is a class of its own.
    fn class(self, op: u64) -> u64 {
        match self {
            Kind::Exact | Kind::Verify => self as u64,
            Kind::Near | Kind::New => 4 + op,
        }
    }

    /// The `outcome` a solve of this kind should report.
    fn expected(self) -> &'static str {
        match self {
            Kind::Exact => "exact_hit",
            Kind::Near => "warm_start",
            Kind::New => "cold",
            Kind::Verify => "",
        }
    }
}

struct Base {
    program: Program,
    json: String,
    /// The plan the daemon served for it during set-up.
    groups: Vec<Vec<u32>>,
}

/// A 20-kernel program. `nz` is part of every kernel's signature, so
/// programs with distinct `nz` share no kernel signature and can never
/// near-hit each other.
fn synth(name: String, seed: u64, nz: u32) -> Program {
    kfuse_workloads::synth::generate(&SynthConfig {
        name,
        kernels: KERNELS,
        seed,
        grid: [256, 128, nz],
        ..Default::default()
    })
}

fn solve_line(id: &str, json: &str) -> String {
    format!(r#"{{"id":"{id}","op":"solve","program":{json}}}"#)
}

fn groups_json(groups: &Vec<Vec<u32>>) -> String {
    serde_json::to_string(groups).expect("integers serialize")
}

/// Start a daemon over a fresh cache in `dir` and cache the base
/// programs through it.
fn setup(seed: u64, dir: &Path) -> Result<(Daemon, Instant, Vec<Base>), String> {
    let _ = std::fs::remove_dir_all(dir);
    let epoch = Instant::now();
    let daemon = Daemon::start(ServeConfig {
        workers: WORKERS,
        queue_depth: 64,
        cache_dir: Some(dir.to_path_buf()),
        gpu: "k20x".into(),
        seed,
        retry_after_ms: 50,
    });
    let client = daemon.client();
    let mut rng = Rng::new(seed);
    // Submit every base at once: the two workers solve them in parallel.
    let mut pending = Vec::new();
    for b in 0..BASES {
        let program = synth(format!("base{b}"), rng.next_u64(), 8 + b as u32);
        let json = serde_json::to_string(&program).map_err(|e| e.to_string())?;
        let rx = client.submit(&solve_line(&format!("setup{b}"), &json));
        pending.push((program, json, rx));
    }
    let mut bases = Vec::new();
    for (program, json, rx) in pending {
        let reply = rx
            .recv()
            .map_err(|_| "set-up solve got no reply".to_string())?;
        let v: Value = serde_json::from_str(&reply).map_err(|e| format!("reply: {e}"))?;
        let groups = parse_groups(&v).ok_or(format!("set-up solve failed: {reply}"))?;
        bases.push(Base {
            program,
            json,
            groups,
        });
    }
    Ok((daemon, epoch, bases))
}

fn parse_groups(v: &Value) -> Option<Vec<Vec<u32>>> {
    v.get("result")?
        .get("groups")?
        .as_array()?
        .iter()
        .map(|g| {
            g.as_array()?
                .iter()
                .map(|k| k.as_u64().map(|k| k as u32))
                .collect()
        })
        .collect()
}

/// One request and its reply, as the client saw them.
struct Record {
    kind: Kind,
    op: u64,
    submit: Instant,
    admitted: Instant,
    replied: Instant,
    bytes: usize,
    /// Kernels in the program the request carried.
    kernels: usize,
    outcome: String,
    problem: Option<String>,
    /// The program and served plan of a solve, for the speedup pass.
    served: Option<(Program, Vec<Vec<u32>>)>,
}

/// Shared request counters: every near and new request is unique.
struct Uniq {
    /// Near requests sent so far, per base program.
    near: Vec<AtomicU64>,
    new: AtomicU64,
    op: AtomicU64,
}

fn client_loop(
    client: &LocalClient,
    c: usize,
    seed: u64,
    bases: &[Base],
    uniq: &Uniq,
    until: Instant,
) -> Vec<Record> {
    let mut rng = Rng::new(seed ^ (0xC11E_0000 + c as u64));
    let mut out = Vec::new();
    while Instant::now() < until {
        let kind = Kind::pick(&mut rng);
        let op = uniq.op.fetch_add(1, Ordering::Relaxed);
        let id = format!("c{c}-{op}");
        let b = rng.below(bases.len());
        let (line, program): (String, Option<Program>) = match kind {
            Kind::Exact => (solve_line(&id, &bases[b].json), None),
            Kind::Near => {
                // Every near request on a base adds another number of
                // flops, so no two are isomorphic: two equal additions to
                // structurally equal kernels would give the same
                // fingerprint, and the second would be an exact hit.
                let j = uniq.near[b].fetch_add(1, Ordering::Relaxed) as usize;
                let q = gen::perturb(&bases[b].program, j % KERNELS, 1 + j);
                let json = serde_json::to_string(&q).expect("programs serialize");
                (solve_line(&id, &json), Some(q))
            }
            Kind::New => {
                let j = uniq.new.fetch_add(1, Ordering::Relaxed) as u32;
                let q = synth(format!("new{j}"), rng.next_u64(), 8 + BASES as u32 + j);
                let json = serde_json::to_string(&q).expect("programs serialize");
                (solve_line(&id, &json), Some(q))
            }
            Kind::Verify => (
                format!(
                    r#"{{"id":"{id}","op":"verify","program":{},"plan":{}}}"#,
                    bases[b].json,
                    groups_json(&bases[b].groups)
                ),
                None,
            ),
        };

        let kernels = program.as_ref().unwrap_or(&bases[b].program).kernels.len();
        let submit = Instant::now();
        let rx = client.submit(&line);
        let admitted = Instant::now();
        let reply = rx.recv();
        let replied = Instant::now();

        let mut rec = Record {
            kind,
            op,
            submit,
            admitted,
            replied,
            bytes: line.len(),
            kernels,
            outcome: String::new(),
            problem: None,
            served: None,
        };
        let reply = match reply {
            Ok(r) => r,
            Err(_) => {
                rec.problem = Some(format!("{id}: no reply"));
                out.push(rec);
                continue;
            }
        };
        if rx.try_recv().is_ok() {
            rec.problem = Some(format!("{id}: more than one reply"));
        }
        let v: Value = match serde_json::from_str(&reply) {
            Ok(v) => v,
            Err(e) => {
                rec.problem = Some(format!("{id}: unparseable reply: {e}"));
                out.push(rec);
                continue;
            }
        };
        let problem = if v.get("id").and_then(Value::as_str) != Some(&id) {
            Some(format!("{id}: reply carries another id: {reply}"))
        } else if v.get("ok").and_then(Value::as_bool) != Some(true) {
            Some(format!("{id}: rejected: {reply}"))
        } else if kind == Kind::Verify {
            let valid = v
                .get("result")
                .and_then(|r| r.get("valid"))
                .and_then(Value::as_bool);
            (valid != Some(true)).then(|| format!("{id}: served plan not valid: {reply}"))
        } else {
            rec.outcome = v
                .get("result")
                .and_then(|r| r.get("outcome"))
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            // A solve must take the path its kind intends: another outcome
            // changes the traffic, so it fails the operation.
            match parse_groups(&v) {
                None => Some(format!("{id}: no plan in reply")),
                Some(_) if rec.outcome != kind.expected() => Some(format!(
                    "{id}: {} request got outcome {:?}, not {}",
                    kind.name(),
                    rec.outcome,
                    kind.expected()
                )),
                Some(groups) => {
                    let program = program.unwrap_or_else(|| bases[b].program.clone());
                    let exact_differs = kind == Kind::Exact && groups != bases[b].groups;
                    rec.served = Some((program, groups));
                    exact_differs.then(|| format!("{id}: exact hit served another plan"))
                }
            }
        };
        if rec.problem.is_none() {
            rec.problem = problem;
        }
        out.push(rec);
    }
    out
}

/// Daemon spans, from its chrome-trace export: `(name, start, dur, seq)`.
/// The export writes one event per line.
fn daemon_spans(trace_json: &str, epoch: Instant) -> Vec<(String, Instant, Duration, Option<u64>)> {
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(key)? + key.len();
        let rest = &line[at..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim_matches('"').to_string())
    };
    trace_json
        .lines()
        .filter(|l| l.contains(r#""ph":"X""#))
        .filter_map(|l| {
            let name = field(l, r#""name":"#)?;
            let ts: f64 = field(l, r#""ts":"#)?.parse().ok()?;
            let dur: f64 = field(l, r#""dur":"#)?.parse().ok()?;
            let seq = field(l, r#""seq":"#).and_then(|s| s.parse().ok());
            Some((
                name,
                epoch + Duration::from_secs_f64(ts / 1e6),
                Duration::from_secs_f64(dur / 1e6),
                seq,
            ))
        })
        .collect()
}

fn counters(client: &LocalClient) -> Result<BTreeMap<String, u64>, String> {
    let reply = client.request(r#"{"id":"stats","op":"stats"}"#);
    let v: Value = serde_json::from_str(&reply).map_err(|e| e.to_string())?;
    let c = v
        .get("result")
        .and_then(|r| r.get("metrics"))
        .and_then(|m| m.get("counters"))
        .and_then(Value::as_object)
        .ok_or(format!("no counters in stats reply: {reply}"))?;
    Ok(c.iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
        .collect())
}

pub fn run(seed: u64, seconds: f64, traced: bool, state: &Path) -> Run {
    let mut run = Run::default();
    let mut kept = None;
    for i in 0..3 {
        let t0 = Instant::now();
        match setup(seed, &state.join(format!("serve-{i}"))) {
            Ok(s) => {
                run.setup_s.push(t0.elapsed().as_secs_f64());
                if let Some((old, _, _)) = kept.replace(s) {
                    Daemon::shutdown(old);
                }
            }
            Err(e) => {
                run.fail(format!("set-up: {e}"));
                if let Some((old, _, _)) = kept.take() {
                    Daemon::shutdown(old);
                }
                return run;
            }
        }
    }
    let (daemon, epoch, bases) = kept.expect("set-up ran");
    let client = daemon.client();
    let before = counters(&client).unwrap_or_default();

    let uniq = Uniq {
        near: (0..bases.len()).map(|_| AtomicU64::new(0)).collect(),
        new: AtomicU64::new(0),
        op: AtomicU64::new(0),
    };
    report::reset_peak_rss();
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(seconds);
    let mut records: Vec<Record> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (client, bases, uniq) = (daemon.client(), &bases, &uniq);
                s.spawn(move || client_loop(&client, c, seed, bases, uniq, until))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    run.window_s = start.elapsed().as_secs_f64();
    run.rss_mib.push(report::peak_rss_mib());
    records.sort_by_key(|r| r.op);

    let after = counters(&client);
    match &after {
        Ok(c) => {
            let get = |k: &str| c.get(k).copied().unwrap_or(0);
            let (rx, ok, rej) = (
                get("requests_received"),
                get("requests_served"),
                get("requests_rejected"),
            );
            if rx != ok + rej {
                run.fail(format!(
                    "stats: received {rx} != served {ok} + rejected {rej}"
                ));
            }
        }
        Err(e) => run.fail(format!("stats: {e}")),
    }
    let after = after.unwrap_or_default();
    let delta = |k: &str| {
        after.get(k).copied().unwrap_or(0) as f64 - before.get(k).copied().unwrap_or(0) as f64
    };

    // Outcomes, intended against measured.
    let mut mix: BTreeMap<(Kind, String), usize> = BTreeMap::new();
    for r in &records {
        run.ops += 1;
        run.latency((r.replied - r.submit).as_secs_f64(), r.kind.class(r.op));
        run.bytes_per_op.push(r.bytes as f64);
        run.kernels_per_op.push(r.kernels as f64);
        *mix.entry((r.kind, r.outcome.clone())).or_default() += 1;
    }
    for ((kind, outcome), n) in &mix {
        let seen = if outcome.is_empty() { "-" } else { outcome };
        run.notes.push(format!(
            "serve_mixed traffic: {:<6} -> {seen:<10} {n}",
            kind.name()
        ));
    }
    let solves = records.iter().filter(|r| r.kind != Kind::Verify).count() as f64;
    let share = |o: &str| {
        report::frac(
            records.iter().filter(|r| r.outcome == o).count() as f64,
            solves,
        )
    };
    let outcome_shares = [
        ("serve.outcome_exact_frac", share("exact_hit")),
        ("serve.outcome_warm_frac", share("warm_start")),
        ("serve.outcome_cold_frac", share("cold")),
    ];

    // Served plans: valid, and their simulated speedup (after the window).
    for r in &mut records {
        let Some((p, groups)) = &r.served else {
            continue;
        };
        match report::simulated_speedup(p, groups) {
            Ok(x) => run.speedups.push(x),
            Err(e) => {
                if r.problem.is_none() {
                    r.problem = Some(format!("op {}: served plan: {e}", r.op));
                }
            }
        }
    }
    for r in &mut records {
        run.check(r.problem.take());
    }
    let mut by_kind: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for r in &records {
        by_kind
            .entry(r.kind.name().to_string())
            .or_default()
            .push((r.replied - r.submit).as_secs_f64());
    }
    run.kind_notes("serve_mixed", &[by_kind]);
    run.traffic_notes();

    if traced {
        let tr = Tracer::new(true);
        let trace_json = daemon.trace_json();
        let spans = daemon_spans(&trace_json, epoch);
        let in_window = |s: &Instant| *s >= start;
        let by_seq = |name: &str| -> BTreeMap<u64, (Instant, Duration)> {
            spans
                .iter()
                .filter(|(n, s, _, _)| n == name && in_window(s))
                .filter_map(|(_, s, d, q)| Some((q.as_ref().copied()?, (*s, *d))))
                .collect()
        };
        let (requests, waits, works) = (
            by_seq("request"),
            by_seq("queue_wait"),
            by_seq("worker_solve"),
        );
        // The client spans are built here, after the window, from the
        // records every operation keeps; the daemon records its own spans
        // during every run.
        let mut matched = 0usize;
        for r in &records {
            // The daemon's `request` span starts when the job is enqueued
            // (inside the client's submit call) and ends just after the
            // reply is sent: match on both ends.
            let slack = Duration::from_millis(1);
            let seq = requests
                .iter()
                .filter(|(_, (s, _))| *s + slack >= r.submit && *s <= r.admitted + slack)
                .min_by_key(|(_, (s, d))| {
                    let end = *s + *d;
                    end.max(r.replied) - end.min(r.replied)
                })
                .map(|(q, _)| *q);
            // Ops whose spans the daemon's capped recorder dropped stay out.
            let Some(q) = seq else { continue };
            matched += 1;
            let root = tr.record("op", r.op, None, r.submit, r.replied);
            // Admission ends at the enqueue. With four busy threads on two
            // cores the client may then wait for a core while a worker
            // already runs its job; that wait is not admission.
            let enqueued = requests[&q].0.clamp(r.submit, r.admitted);
            tr.record("serve.admit", r.op, root, r.submit, enqueued);
            for (name, map) in [("serve.queue_wait", &waits), ("serve.worker_solve", &works)] {
                if let Some((s, d)) = map.get(&q) {
                    tr.record(name, r.op, root, *s, *s + *d);
                }
            }
        }
        let dropped = trace_json
            .split(r#""dropped_events":"#)
            .nth(1)
            .and_then(|t| t.split('}').next())
            .unwrap_or("?");
        run.notes.push(format!(
            "daemon trace: {} spans, {dropped} events dropped at the recorder cap; \
             {matched} of {} ops matched to their daemon spans",
            spans.len(),
            records.len()
        ));
        run.notes.push(
            "obs.trace_overhead_frac: not measured on serve_mixed (reported as 0): \
             the daemon always records, and the client spans are built from the \
             records after the window"
                .to_string(),
        );
        let my = tr.spans();
        report::add_busy(&mut run, &my, &["serve.admit"]);
        let ms = |name: &str, q: f64| {
            let v: Vec<f64> = spans
                .iter()
                .filter(|(n, s, _, _)| n == name && in_window(s))
                .map(|(_, _, d, _)| d.as_secs_f64() * 1e3)
                .collect();
            report::quantile(&v, q)
        };
        let solve_s: f64 = spans
            .iter()
            .filter(|(n, s, _, _)| n == "solve" && in_window(s))
            .map(|(_, _, d, _)| d.as_secs_f64())
            .sum();
        let probes = delta("cache_probes");
        let l = &mut run.layer;
        l.insert(
            "ingest.parse.bytes",
            records.iter().map(|r| r.bytes as f64).sum(),
        );
        l.insert("search.solve.busy_s", solve_s);
        l.insert("search.generations", delta("generations"));
        l.insert("search.evaluations", delta("memo_misses"));
        l.insert(
            "search.evals_per_s",
            report::frac(delta("memo_misses"), solve_s),
        );
        l.insert(
            "search.memo_hit_frac",
            1.0 - report::frac(delta("memo_misses"), delta("memo_probes")),
        );
        l.insert(
            "search.cache_hit_frac",
            report::frac(delta("cache_hits"), probes),
        );
        l.insert(
            "search.warm_start_frac",
            report::frac(delta("warm_starts"), probes),
        );
        l.insert("serve.queue_wait_ms_p50", ms("queue_wait", 0.5));
        l.insert("serve.queue_wait_ms_p99", ms("queue_wait", 0.99));
        l.insert("serve.worker_solve_ms_p50", ms("worker_solve", 0.5));
        l.insert("serve.rejected", delta("requests_rejected"));
        l.extend(outcome_shares);
        l.insert("obs.trace_overhead_frac", 0.0);
        let st = trace::self_times(&my, |_| true);
        run.add_self_times("serve_mixed", &st);
        let exact: Vec<u64> = records
            .iter()
            .filter(|r| r.outcome == "exact_hit")
            .map(|r| r.op)
            .collect();
        let st = trace::self_times(&my, |op| exact.binary_search(&op).is_ok());
        run.self_time_table("serve_mixed exact hits", &st);
    } else {
        run.layer.extend(outcome_shares);
    }
    Daemon::shutdown(daemon);
    run
}
