//! The traced run: per-layer numbers from spans recorded at the public trait
//! boundaries, from `STATS` counter deltas, and from single-threaded depth
//! replays through the layers no boundary exposes.
//!
//! End-to-end metrics are never taken here. The run measures an untraced and
//! a traced pass of the same (quarter) size in one process, so the tracing
//! cost is itself a reported number.

use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

use eca_core::ActiveService;
use led::{Detector, Param, ParameterContext, RuleSpec};
use relsql::notify::CollectingSink;

use crate::bench::{self, mean, percentile, Checks, Pass};
use crate::recovery::recovery_phase;
use crate::stack::{self, ctx, now_ns, StorageOp, Tracer};
use crate::workload::{self, Op, Raised, Scale, Stream, Workload, CLIENTS, DB};

/// `(name, value)` in the order of `report::PER_LAYER`; `None` when a
/// counter the value needs is missing from `STATS`.
pub type Layers = Vec<(&'static str, Option<f64>)>;

pub struct Traced {
    /// Every per-layer metric but `process.peak_rss_mb`, which is the
    /// caller's to read once everything has run.
    pub layers: Layers,
    pub checks: Checks,
    pub attempted: u64,
    pub failed: u64,
}

fn ratio(num: Option<f64>, den: Option<f64>) -> Option<f64> {
    let (num, den) = (num?, den?);
    Some(if den == 0.0 { 0.0 } else { num / den })
}

fn share(pass: &Pass, part: &str, rest: &str) -> Option<f64> {
    let part = pass.window_delta(part);
    ratio(part, Some(part? + pass.window_delta(rest)?))
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn us(interval: &stack::Interval) -> f64 {
    (interval.1 - interval.0) as f64 / 1e3
}

/// Mean microseconds per call of `f` over `ops`.
fn replay(ops: &[Op], mut f: impl FnMut(&Op) -> Result<(), String>) -> Result<f64, String> {
    let t = now_ns();
    for op in ops {
        f(op)?;
    }
    Ok((now_ns() - t) as f64 / 1e3 / ops.len().max(1) as f64)
}

struct Replays {
    agent_us: f64,
    stmt_us: f64,
    parse_us: f64,
    signal_us: f64,
    emissions_per_signal: f64,
    led_state_size: f64,
    snoop_parse_us: f64,
}

/// The first `replay_ops` operations of client 0, single-threaded, through
/// each layer's public functions on identically prepared servers.
fn depth_replays(workload: Workload, seed: u64, scale: &Scale) -> Result<Replays, String> {
    let mut stream = Stream::new(workload, seed, 0, scale);
    let ops: Vec<Op> = (0..scale.replay_ops).map(|_| stream.next_op()).collect();
    let ctx0 = ctx(0);

    let prepared = stack::prepare(workload, seed, scale, None)?;
    let agent_us = replay(&ops, |op| {
        ActiveService::execute(&prepared.agent, &op.sql, &ctx0)
            .map(drop)
            .map_err(|e| format!("agent replay: {e}"))
    })?;
    drop(prepared);

    // The same generated native triggers, but their datagrams go nowhere:
    // no pump, no LED, no action.
    let prepared = stack::prepare(workload, seed, scale, None)?;
    prepared.server.set_sink(CollectingSink::new());
    let session = prepared.server.session(DB, &workload::user(0));
    let stmt_us = replay(&ops, |op| {
        session
            .execute(&op.sql)
            .map(drop)
            .map_err(|e| format!("server replay: {e}"))
    })?;
    drop(session);
    drop(prepared);

    let parse_us = replay(&ops, |op| {
        relsql::parser::parse_script(&op.sql)
            .map(drop)
            .map_err(|e| format!("parse replay: {e}"))
    })?;

    let mut replays = Replays {
        agent_us,
        stmt_us,
        parse_us,
        signal_us: 0.0,
        emissions_per_signal: 0.0,
        led_state_size: 0.0,
        snoop_parse_us: 0.0,
    };
    if !workload.is_fig4() {
        return Ok(replays);
    }

    let exprs = workload::composite_exprs(0);
    let reps = 256;
    let t = now_ns();
    for _ in 0..reps {
        for e in &exprs {
            std::hint::black_box(snoop::parse(std::hint::black_box(e)).map_err(|e| e.to_string())?);
        }
    }
    replays.snoop_parse_us = (now_ns() - t) as f64 / 1e3 / (reps * exprs.len()) as f64;

    let led_err = |e: led::LedError| format!("LED replay: {e}");
    let mut led = Detector::new();
    led.define_primitive("quoteMove_0").map_err(led_err)?;
    led.define_primitive("tradeDone_0").map_err(led_err)?;
    let contexts = [ParameterContext::Chronicle, ParameterContext::Recent];
    for ((name, expr), context) in ["reactive_0", "both_0"].iter().zip(&exprs).zip(contexts) {
        let expr = snoop::parse(expr).map_err(|e| e.to_string())?;
        led.define_composite(name, &expr, context)
            .map_err(led_err)?;
        led.add_rule(RuleSpec::new(format!("t_{name}"), *name))
            .map_err(led_err)?;
    }
    let events: Vec<&str> = ops
        .iter()
        .filter_map(|op| op.raised)
        .map(|r| match r {
            Raised::Quote => "quoteMove_0",
            Raised::Trade => "tradeDone_0",
        })
        .collect();
    let mut firings = 0usize;
    let t = now_ns();
    for (i, event) in events.iter().enumerate() {
        let ts = i as i64 + 1;
        let params = vec![Param::db(*event, format!("{event}_inserted"), ts, ts)];
        firings += led.signal(event, params, ts).map_err(led_err)?.len();
    }
    let signals = events.len().max(1) as f64;
    replays.signal_us = (now_ns() - t) as f64 / 1e3 / signals;
    replays.emissions_per_signal = firings as f64 / signals;
    replays.led_state_size = led.total_state_size() as f64;
    Ok(replays)
}

/// Appends one JSON object per line: `op` is `[client, index]` (warm-up
/// included), times are nanoseconds on the process clock, `parent` names the
/// enclosing span of the same `op`.
fn write_spans(
    path: &Path,
    workload: Workload,
    pass: &Pass,
    tracer: &Tracer,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("write {}: {e}", path.display());
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(io)?;
    let mut out = std::io::BufWriter::new(file);
    let workload = workload.name();
    let mut line = |op: Option<(usize, usize)>, name: &str, iv: &stack::Interval, parent: &str| {
        let op = op.map_or("null".to_string(), |(k, i)| format!("[{k},{i}]"));
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"op\":{op},\"name\":\"{name}\",\
             \"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            iv.0, iv.1
        )
    };
    for k in 0..CLIENTS {
        for (i, iv) in pass.rtt[k].iter().enumerate() {
            line(Some((k, i)), "client.exec", iv, "null").map_err(io)?;
        }
        for (i, iv) in tracer.executes(k).iter().enumerate() {
            line(Some((k, i)), "core.execute", iv, "\"client.exec\"").map_err(io)?;
        }
    }
    for span in tracer.storage().iter() {
        let parent = if span.parent.is_some() {
            "\"core.execute\""
        } else {
            "null"
        };
        line(span.parent, span.op.span_name(), &span.interval, parent).map_err(io)?;
    }
    out.flush().map_err(io)
}

pub fn traced_run(
    workload: Workload,
    seed: u64,
    scale: &Scale,
    guard_s: u64,
    spans_out: Option<&Path>,
) -> Result<Traced, String> {
    let quarter = scale.quarter();

    let mut stack = stack::stand_up(workload, seed, &quarter, None)?;
    let untraced = bench::run_pass(&mut stack, workload, seed, &quarter, guard_s, None)?;
    stack.shut_down();

    let tracer = Arc::new(Tracer::default());
    let mut stack = stack::stand_up(workload, seed, &quarter, Some(&tracer))?;
    let pass = bench::run_pass(&mut stack, workload, seed, &quarter, guard_s, Some(&tracer))?;
    let mut checks = bench::oracle(workload, &stack.prepared.server, &pass, seed, &quarter)?;
    let ping_rtt_us = bench::ping_rtt_us(&stack, 2_000.min(quarter.ops as usize * 10))?;
    let define_rule_us: Vec<f64> = stack
        .prepared
        .define_rule_s
        .iter()
        .map(|s| s * 1e6)
        .collect();
    stack.shut_down();
    if let Some(path) = spans_out {
        write_spans(path, workload, &pass, &tracer)?;
    }
    // The recovery phase is part of `fig4_durable` in either mode. Its
    // storage calls are recorded after the pass's: of them only the explicit
    // checkpoint's `replace` is reported, the pass being too short to fill
    // the 4 MiB of WAL that trigger one.
    let recovery = if workload == Workload::Fig4Durable {
        tracer.arm();
        let recovery = recovery_phase(seed, scale, Some(&tracer))?;
        tracer.disarm();
        Some(recovery)
    } else {
        None
    };

    // Join the client's i-th round trip with the i-th `execute` seen for
    // that user; what is left of the round trip is the serve layer's.
    let (mut rtt, mut execute, mut serve_self) = (Vec::new(), Vec::new(), Vec::new());
    let (mut window_start, mut window_end) = (u64::MAX, 0);
    for k in 0..CLIENTS {
        let executes = tracer.executes(k);
        checks.eq(
            format!("execute spans of client {k}"),
            pass.rtt[k].len(),
            executes.len(),
        );
        for (client, service) in pass.rtt[k].iter().zip(executes.iter()).skip(pass.warmup) {
            window_start = window_start.min(client.0);
            window_end = window_end.max(client.1);
            rtt.push(us(client));
            execute.push(us(service));
            serve_self.push(us(client) - us(service));
        }
    }
    let storage = tracer.storage();
    let storage_us = |op: StorageOp, until: u64| {
        let in_window = |s: &&stack::StorageSpan| (window_start..=until).contains(&s.interval.0);
        sorted(
            storage
                .iter()
                .filter(|s| s.op == op)
                .filter(in_window)
                .map(|s| us(&s.interval))
                .collect(),
        )
    };
    let (append, sync, replace) = (
        storage_us(StorageOp::Append, window_end),
        storage_us(StorageOp::Sync, window_end),
        storage_us(StorageOp::Replace, u64::MAX),
    );
    let p50 = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            percentile(v, 0.5)
        }
    };

    let replays = depth_replays(workload, seed, scale)?;
    let throughput = |p: &Pass| p.timed_ops() as f64 / p.window_s;
    let ops = Some(pass.timed_ops() as f64);

    let layers: Layers = vec![
        ("client.rtt_us", Some(mean(&rtt))),
        ("client.rtt_p50_us", Some(p50(&sorted(rtt.clone())))),
        ("serve.self_us", Some(mean(&serve_self))),
        ("serve.self_p50_us", Some(p50(&sorted(serve_self)))),
        ("serve.ping_rtt_us", Some(ping_rtt_us)),
        ("serve.wakeups_per_op", pass.per_op("wakeups")),
        ("serve.partial_reads", pass.window_delta("partial_reads")),
        ("serve.write_blocked", pass.window_delta("write_blocked")),
        ("core.execute_us", Some(mean(&execute))),
        ("core.execute_p50_us", Some(p50(&sorted(execute)))),
        ("core.replay_us", Some(replays.agent_us)),
        ("core.active_us", Some(replays.agent_us - replays.stmt_us)),
        ("core.notifications_per_op", pass.per_op("notifications")),
        ("core.actions_per_op", pass.per_op("actions_executed")),
        ("core.define_rule_us", Some(mean(&define_rule_us))),
        ("snoop.parse_us", Some(replays.snoop_parse_us)),
        ("relsql.stmt_us", Some(replays.stmt_us)),
        ("relsql.parse_us", Some(replays.parse_us)),
        (
            "relsql.plan_cache_hit_rate",
            share(&pass, "plan_cache_hits", "plan_cache_misses"),
        ),
        ("relsql.rows_scanned_per_op", pass.per_op("rows_scanned")),
        (
            "relsql.index_hit_rate",
            share(&pass, "index_hits", "index_misses"),
        ),
        (
            "relsql.exec_compiled_share",
            share(&pass, "exec_compiled", "exec_interpreted"),
        ),
        (
            "relsql.exec_fallback_scope_per_op",
            pass.per_op("exec_fallback_scope"),
        ),
        (
            "relsql.snapshot_reads_share",
            ratio(pass.window_delta("snapshot_reads"), ops),
        ),
        ("relsql.lock_waits_per_op", pass.per_op("lock_waits")),
        ("relsql.wal_records_per_op", pass.per_op("wal_records")),
        ("relsql.wal_bytes_per_op", pass.per_op("wal_bytes")),
        ("relsql.wal_fsyncs_per_op", pass.per_op("wal_fsyncs")),
        (
            "relsql.wal_group_commit_share",
            ratio(
                pass.window_delta("wal_group_commits"),
                pass.window_delta("wal_records"),
            ),
        ),
        (
            "relsql.wal_checkpoints",
            pass.window_delta("wal_checkpoints"),
        ),
        ("storage.append_us", Some(p50(&append))),
        ("storage.sync_us", Some(p50(&sync))),
        (
            "storage.sync_total_ms",
            Some(sync.iter().sum::<f64>() / 1e3),
        ),
        (
            "storage.replace_max_us",
            Some(replace.last().copied().unwrap_or(0.0)),
        ),
        ("led.signal_us", Some(replays.signal_us)),
        (
            "led.emissions_per_signal",
            Some(replays.emissions_per_signal),
        ),
        ("led.state_size", Some(replays.led_state_size)),
        (
            "trace.overhead_share",
            Some(1.0 - throughput(&pass) / throughput(&untraced)),
        ),
        (
            "relsql.wal_records_replayed",
            recovery.as_ref().map_or(Some(0.0), |r| r.records_replayed),
        ),
        (
            "recovery_s",
            Some(recovery.as_ref().map_or(0.0, |r| r.recovery_s)),
        ),
    ];
    if let Some(recovery) = recovery {
        checks.absorb(recovery.checks);
    }
    Ok(Traced {
        layers,
        checks,
        attempted: pass.attempted + untraced.attempted,
        failed: pass.failed + untraced.failed,
    })
}
