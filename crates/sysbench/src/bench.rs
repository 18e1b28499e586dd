//! One measured pass: two closed-loop clients drive the stack over TCP, each
//! sending its next `EXEC` only after the previous reply, and the oracle that
//! checks what they left behind.

use std::sync::{Arc, Barrier};

use eca_serve::ServeClient;
use relsql::{SqlServer, Value};

use crate::stack::{now_ns, Interval, Stack, Tracer};
use crate::workload::{self, ClientModel, Scale, Stream, Workload, CLIENTS, DB};

/// One `STATS` frame. Counters are looked up by key name, so a server that
/// renames a struct field (or drops a counter) yields `None`, not a build
/// break in a crate the refactor may not edit.
pub struct Stats(Vec<(String, String)>);

impl Stats {
    pub fn read(client: &mut ServeClient) -> Result<Stats, String> {
        client.stats().map(Stats).map_err(|e| format!("STATS: {e}"))
    }

    pub fn get(&self, key: &str) -> Option<f64> {
        let (_, v) = self.0.iter().find(|(k, _)| k == key)?;
        v.parse().ok()
    }
}

pub struct Pass {
    /// Round trip of every operation by client and index, warm-up first.
    pub rtt: Vec<Vec<Interval>>,
    pub warmup: usize,
    /// First timed send to last timed reply, across both clients.
    pub window_s: f64,
    pub attempted: u64,
    /// Errored, refused, answered with a `failed` action or a wrong row
    /// count, or never sent because the wall-clock guard fired.
    pub failed: u64,
    /// Composite-rule actions the wire reported (`actions=` summed).
    pub wire_actions: u64,
    pub models: Vec<ClientModel>,
    pub at_start: Stats,
    pub at_window: Stats,
    pub at_end: Stats,
}

impl Pass {
    pub fn timed_ops(&self) -> u64 {
        self.rtt
            .iter()
            .map(|c| c.len().saturating_sub(self.warmup) as u64)
            .sum()
    }

    /// Timed round trips in microseconds, ascending.
    pub fn timed_rtt_us(&self) -> Vec<f64> {
        let mut us: Vec<f64> = self
            .rtt
            .iter()
            .flat_map(|c| c.iter().skip(self.warmup))
            .map(|&(start, end)| (end - start) as f64 / 1e3)
            .collect();
        us.sort_by(f64::total_cmp);
        us
    }

    /// A counter's change across the timed window, per timed operation.
    pub fn per_op(&self, key: &str) -> Option<f64> {
        Some(self.window_delta(key)? / self.timed_ops().max(1) as f64)
    }

    pub fn window_delta(&self, key: &str) -> Option<f64> {
        Some(self.at_end.get(key)? - self.at_window.get(key)?)
    }

    fn run_delta(&self, key: &str) -> Option<f64> {
        Some(self.at_end.get(key)? - self.at_start.get(key)?)
    }
}

#[derive(Default)]
struct ClientTally {
    failed: u64,
    wire_actions: u64,
}

/// Sends `n` operations, or stops at `deadline_ns` and counts the rest failed.
fn drive(
    client: &mut ServeClient,
    stream: &mut Stream,
    n: u64,
    deadline_ns: u64,
    rtt: &mut Vec<Interval>,
    tally: &mut ClientTally,
) {
    for i in 0..n {
        if now_ns() > deadline_ns {
            tally.failed += n - i;
            return;
        }
        // The statement is formatted before the stamp: generation is the
        // benchmark's cost, not the system's.
        let op = stream.next_op();
        let start = now_ns();
        let reply = client.exec(&op.sql);
        rtt.push((start, now_ns()));
        match reply {
            Ok(r) if r.failed == 0 && op.rows.is_none_or(|rows| rows == r.rows) => {
                tally.wire_actions += r.actions;
            }
            _ => tally.failed += 1,
        }
    }
}

pub fn run_pass(
    stack: &mut Stack,
    workload: Workload,
    seed: u64,
    scale: &Scale,
    guard_s: u64,
    tracer: Option<&Tracer>,
) -> Result<Pass, String> {
    let addr = stack.handle.addr();
    let (mut admin, _) =
        ServeClient::connect_as(addr, DB, "admin").map_err(|e| format!("connect admin: {e}"))?;
    let at_start = Stats::read(&mut admin)?;
    let guard_ns = guard_s * 1_000_000_000;
    // Clients and the coordinator meet twice: once when every warm-up is
    // done (the coordinator then reads the counters), once to start the
    // timed window together.
    let barrier = Barrier::new(CLIENTS + 1);
    if let Some(tracer) = tracer {
        tracer.arm();
    }
    let (per_client, at_window) = std::thread::scope(|scope| {
        let handles: Vec<_> = stack
            .clients
            .iter_mut()
            .enumerate()
            .map(|(k, client)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut stream = Stream::new(workload, seed, k, scale);
                    let mut rtt = Vec::with_capacity((scale.warmup + scale.ops) as usize);
                    let mut tally = ClientTally::default();
                    let deadline = now_ns() + guard_ns;
                    drive(
                        client,
                        &mut stream,
                        scale.warmup,
                        deadline,
                        &mut rtt,
                        &mut tally,
                    );
                    barrier.wait();
                    barrier.wait();
                    let deadline = now_ns() + guard_ns;
                    drive(
                        client,
                        &mut stream,
                        scale.ops,
                        deadline,
                        &mut rtt,
                        &mut tally,
                    );
                    (rtt, tally, stream.model)
                })
            })
            .collect();
        barrier.wait();
        let at_window = Stats::read(&mut admin);
        barrier.wait();
        let joined: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string()))
            .collect();
        (joined, at_window)
    });
    if let Some(tracer) = tracer {
        tracer.disarm();
    }
    let at_window = at_window?;
    let at_end = Stats::read(&mut admin)?;
    let _ = admin.quit();

    let warmup = scale.warmup as usize;
    let mut pass = Pass {
        rtt: Vec::new(),
        warmup,
        window_s: 0.0,
        attempted: (scale.warmup + scale.ops) * CLIENTS as u64,
        failed: 0,
        wire_actions: 0,
        models: Vec::new(),
        at_start,
        at_window,
        at_end,
    };
    for joined in per_client {
        let (rtt, tally, model) = joined?;
        pass.failed += tally.failed;
        pass.wire_actions += tally.wire_actions;
        pass.rtt.push(rtt);
        pass.models.push(model);
    }
    let timed = || pass.rtt.iter().flat_map(|c| c.iter().skip(warmup));
    let first = timed().map(|&(start, _)| start).min();
    let last = timed().map(|&(_, end)| end).max();
    if let (Some(first), Some(last)) = (first, last) {
        pass.window_s = (last - first) as f64 / 1e9;
    }
    Ok(pass)
}

/// Median round trip of `n` inline `PING`s on an otherwise idle server: the
/// reactor answers them itself, without the hand-off to an exec worker.
pub fn ping_rtt_us(stack: &Stack, n: usize) -> Result<f64, String> {
    let (mut client, _) = ServeClient::connect_as(stack.handle.addr(), DB, "pinger")
        .map_err(|e| format!("connect pinger: {e}"))?;
    let mut us = Vec::with_capacity(n);
    for _ in 0..n {
        let t = now_ns();
        client.ping().map_err(|e| format!("PING: {e}"))?;
        us.push((now_ns() - t) as f64 / 1e3);
    }
    let _ = client.quit();
    us.sort_by(f64::total_cmp);
    Ok(percentile(&us, 0.5))
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p99 / p95 / p90 / p75 with at least ten samples beyond it.
pub fn tail_quantile(samples: usize) -> f64 {
    [0.99, 0.95, 0.90, 0.75]
        .into_iter()
        .find(|q| (samples as f64 * (1.0 - q)) >= 10.0)
        .unwrap_or(0.75)
}

pub struct Check {
    pub name: String,
    pub expected: String,
    pub actual: String,
}

impl Check {
    pub fn ok(&self) -> bool {
        self.expected == self.actual
    }
}

#[derive(Default)]
pub struct Checks(pub Vec<Check>);

impl Checks {
    pub fn eq(&mut self, name: impl Into<String>, expected: impl ToString, actual: impl ToString) {
        self.0.push(Check {
            name: name.into(),
            expected: expected.to_string(),
            actual: actual.to_string(),
        });
    }

    pub fn absorb(&mut self, other: Checks) {
        self.0.extend(other.0);
    }

    pub fn all_ok(&self) -> bool {
        self.0.iter().all(Check::ok)
    }
}

/// `select`'s first column of the first row as an integer; `NULL` reads as 0.
pub fn scalar(server: &Arc<SqlServer>, sql: &str) -> Result<i64, String> {
    let result = server
        .session(DB, "oracle")
        .execute(sql)
        .map_err(|e| format!("{sql}: {e}"))?;
    match result.scalar() {
        Some(Value::Int(n)) => Ok(*n),
        Some(Value::Null) => Ok(0),
        other => Err(format!("{sql}: expected an integer, got {other:?}")),
    }
}

fn opt(v: Option<f64>) -> String {
    v.map_or("missing".into(), |v| v.to_string())
}

/// Value checks run in-process after the timed window: the wire returns only
/// `rows=N`.
pub fn oracle(
    workload: Workload,
    server: &Arc<SqlServer>,
    pass: &Pass,
    seed: u64,
    scale: &Scale,
) -> Result<Checks, String> {
    let mut checks = Checks::default();
    checks.eq("ops failed", 0, pass.failed);
    match workload {
        Workload::PassiveMix => {
            let inserted: u64 = pass.models.iter().map(|m| m.inserted_rows).sum();
            let preload: i64 = (0..scale.accounts).map(workload::initial_balance).sum();
            let delta: i64 = pass.models.iter().map(|m| m.balance_delta).sum();
            let rows = scalar(server, "select count(*) from accounts")?;
            let balance = scalar(server, "select sum(balance) from accounts")?;
            checks.eq("accounts rows", scale.accounts + inserted, rows);
            checks.eq("accounts sum(balance)", preload + delta, balance);
            checks.eq("composite actions", 0, pass.wire_actions);
        }
        Workload::Fig4Composite | Workload::Fig4Durable => {
            for (k, model) in pass.models.iter().enumerate() {
                let firing = &model.firing;
                let count = |t: &str| scalar(server, &format!("select count(*) from {t}_{k}"));
                checks.eq(format!("trades_{k} rows"), firing.audit, count("trades")?);
                checks.eq(format!("audit_{k} rows"), firing.audit, count("audit")?);
                checks.eq(
                    format!("risk_log_{k} rows"),
                    firing.risk_log,
                    count("risk_log")?,
                );
            }
            let sum = |f: fn(&ClientModel) -> u64| pass.models.iter().map(f).sum::<u64>();
            let firings = sum(|m| m.firing.risk_log);
            checks.eq(
                "notifications",
                sum(|m| m.firing.notifications),
                opt(pass.run_delta("notifications")),
            );
            checks.eq(
                "actions executed",
                firings,
                opt(pass.run_delta("actions_executed")),
            );
            checks.eq("actions on the wire", firings, pass.wire_actions);
            checks.eq("dead letters", 0, opt(pass.run_delta("dead_lettered")));
        }
        Workload::ScanReads => {
            let ticks = workload::ticks(seed, scale.ticks);
            let session = server.session(DB, "oracle");
            let mut stream = Stream::new(workload, seed, 0, scale);
            for i in 0..64.min(scale.warmup + scale.ops) {
                let op = stream.next_op();
                let query = op.scan.expect("scan_reads streams only scan queries");
                let result = session
                    .execute(&op.sql)
                    .map_err(|e| format!("{}: {e}", op.sql))?;
                let mut rows = result
                    .last_select()
                    .map(|r| r.rows.clone())
                    .unwrap_or_default();
                rows.sort_by_cached_key(|row| format!("{row:?}"));
                checks.eq(
                    format!("op {i}: {}", op.sql),
                    format!("{:?}", query.reference(&ticks)),
                    format!("{rows:?}"),
                );
            }
            checks.eq("composite actions", 0, pass.wire_actions);
        }
    }
    Ok(checks)
}
