//! One workload, start to finish, in this process: the unit the driver
//! command, `sysbench run` and `sysbench trace` are all built from.

use std::path::Path;

use crate::bench::{self, percentile, tail_quantile, Checks};
use crate::json::Json;
use crate::recovery::recovery_phase;
use crate::report::metrics_json;
use crate::stack;
use crate::trace::traced_run;
use crate::workload::{Scale, Workload};

/// `setup_s` is the median of repeated set-ups: at least `MIN_SETUPS`, and
/// more (up to `MAX_SETUPS`) while they are so short that together they stay
/// under `SETUP_BUDGET_S`. The last stack serves the measured pass.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, Option<f64>)>,
    /// Everything else worth keeping: sample counts, oracle results, the
    /// counts that must repeat exactly between same-seed runs.
    pub detail: Json,
}

impl Outcome {
    /// The driver contract's result line. A metric whose counter is missing
    /// from `STATS` reads -1 here (the line carries numbers only) and `null`
    /// in the documents.
    pub fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(&self.metrics, Json::Num(-1.0))),
        ])
        .render()
    }
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn checks_json(checks: &Checks) -> Json {
    let failures = checks.0.iter().filter(|c| !c.ok()).map(|c| {
        Json::obj([
            ("check", Json::str(&c.name)),
            ("expected", Json::str(&c.expected)),
            ("actual", Json::str(&c.actual)),
        ])
    });
    Json::obj([
        ("checks", Json::Num(checks.0.len() as f64)),
        ("failures", Json::Arr(failures.collect())),
    ])
}

/// What either mode hands to the common tail of [`run_workload`].
struct Measured {
    /// The metrics of the driver's result line for this mode.
    metrics: Vec<(&'static str, Option<f64>)>,
    /// Further metrics and fields for the workload's document only.
    document_metrics: Vec<(&'static str, Option<f64>)>,
    detail: Vec<(&'static str, Json)>,
    checks: Checks,
    attempted: u64,
    failed: u64,
}

/// The end-to-end run: repeated set-up, one measured pass with tracing off,
/// the oracle, and `fig4_durable`'s recovery phase.
fn untraced_run(
    workload: Workload,
    seed: u64,
    scale: &Scale,
    guard_s: u64,
) -> Result<Measured, String> {
    let mut stack = stack::stand_up(workload, seed, scale, None)?;
    let mut setups = vec![stack.setup_s];
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        stack.shut_down();
        stack = stack::stand_up(workload, seed, scale, None)?;
        setups.push(stack.setup_s);
    }
    setups.sort_by(f64::total_cmp);
    let pass = bench::run_pass(&mut stack, workload, seed, scale, guard_s, None)?;
    let mut checks = bench::oracle(workload, &stack.prepared.server, &pass, seed, scale)?;
    stack.shut_down();
    let mut document_metrics = Vec::new();
    if workload == Workload::Fig4Durable {
        let recovery = recovery_phase(seed, scale, None)?;
        document_metrics.push(("recovery_s", Some(recovery.recovery_s)));
        checks.absorb(recovery.checks);
    }

    let rtt = pass.timed_rtt_us();
    let tail = tail_quantile(rtt.len());
    let counts = pass.models.iter().enumerate().flat_map(|(k, m)| {
        [
            (format!("client{k}.inserted_rows"), m.inserted_rows as f64),
            (format!("client{k}.balance_delta"), m.balance_delta as f64),
            (
                format!("client{k}.notifications"),
                m.firing.notifications as f64,
            ),
            (format!("client{k}.audit_rows"), m.firing.audit as f64),
            (format!("client{k}.risk_log_rows"), m.firing.risk_log as f64),
            (
                format!("client{k}.open_quotes"),
                m.firing.open_quotes() as f64,
            ),
        ]
    });
    Ok(Measured {
        metrics: vec![
            (
                "throughput_ops_s",
                Some(pass.timed_ops() as f64 / pass.window_s),
            ),
            ("exec_p50_us", Some(percentile(&rtt, 0.5))),
            ("exec_p99_us", Some(percentile(&rtt, tail))),
            ("setup_s", Some(percentile(&setups, 0.5))),
        ],
        document_metrics,
        detail: vec![
            ("samples", Json::Num(rtt.len() as f64)),
            ("tail_percentile", Json::Num(tail * 100.0)),
            ("window_s", Json::Num(pass.window_s)),
            (
                "setup_s_runs",
                Json::Arr(setups.iter().map(|&s| Json::Num(s)).collect()),
            ),
            ("counts", Json::obj(counts.map(|(k, v)| (k, Json::Num(v))))),
        ],
        checks,
        attempted: pass.attempted,
        failed: pass.failed,
    })
}

pub fn run_workload(
    workload: Workload,
    seed: u64,
    scale: &Scale,
    guard_s: u64,
    traced: bool,
    spans_out: Option<&Path>,
) -> Result<Outcome, String> {
    let mut m = if traced {
        let t = traced_run(workload, seed, scale, guard_s, spans_out)?;
        Measured {
            metrics: t.layers,
            document_metrics: Vec::new(),
            detail: Vec::new(),
            checks: t.checks,
            attempted: t.attempted,
            failed: t.failed,
        }
    } else {
        untraced_run(workload, seed, scale, guard_s)?
    };
    // Read last, so it covers everything the workload's process did. A
    // per-layer metric by name, it is reported in both modes' documents.
    let peak_rss = ("process.peak_rss_mb", peak_rss_mb());
    if traced {
        m.metrics.push(peak_rss);
    } else {
        m.document_metrics.push(peak_rss);
    }

    let correct = m.checks.all_ok();
    // A failed check means the numbers describe a wrong system.
    let failed_share = if correct {
        m.failed as f64 / m.attempted.max(1) as f64
    } else {
        1.0
    };
    let all_metrics: Vec<_> = m
        .metrics
        .iter()
        .chain(&m.document_metrics)
        .copied()
        .collect();
    let mut detail = vec![
        ("workload", Json::str(workload.name())),
        ("mode", Json::str(if traced { "trace" } else { "run" })),
        ("ops_per_client", Json::Num(scale.ops as f64)),
        ("warmup_per_client", Json::Num(scale.warmup as f64)),
    ];
    detail.extend(m.detail);
    detail.extend([
        ("metrics", metrics_json(&all_metrics, Json::Null)),
        ("ops_attempted", Json::Num(m.attempted as f64)),
        ("ops_failed", Json::Num(m.failed as f64)),
        ("failed_share", Json::Num(failed_share)),
        ("oracle", checks_json(&m.checks)),
    ]);
    Ok(Outcome {
        correct,
        attempted: m.attempted,
        failed: m.failed,
        metrics: m.metrics,
        detail: Json::obj(detail),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};

    /// Smoke-scale pass of all four workloads in both modes, the recovery
    /// phase and every oracle included: a later change that breaks the
    /// benchmark's build or its checks fails tier-1.
    #[test]
    fn smoke_all_workloads() {
        let spans = stack::DataDir::create().unwrap();
        for workload in Workload::ALL {
            for traced in [false, true] {
                let spans_out = spans.path().join(format!("{}.jsonl", workload.name()));
                let outcome =
                    run_workload(workload, 42, &Scale::smoke(), 60, traced, Some(&spans_out))
                        .unwrap_or_else(|e| panic!("{} traced={traced}: {e}", workload.name()));
                let detail = outcome.detail.render();
                assert!(
                    outcome.correct,
                    "{} traced={traced}: {detail}",
                    workload.name()
                );
                assert_eq!(outcome.failed, 0, "{detail}");
                let expected = if traced { PER_LAYER } else { END_TO_END };
                let names: Vec<_> = outcome.metrics.iter().map(|m| m.0).collect();
                assert_eq!(names, expected.iter().map(|m| m.name).collect::<Vec<_>>());
                for (name, value) in &outcome.metrics {
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{name} = {value:?}: {detail}"
                    );
                }
                Json::parse(&outcome.contract_line()).unwrap();
                if !traced {
                    continue;
                }
                let get = |name: &str| {
                    outcome
                        .metrics
                        .iter()
                        .find(|m| m.0 == name)
                        .unwrap()
                        .1
                        .unwrap()
                };
                let durable = workload == Workload::Fig4Durable;
                for name in [
                    "relsql.wal_bytes_per_op",
                    "storage.sync_us",
                    "recovery_s",
                    "storage.replace_max_us",
                ] {
                    assert_eq!(get(name) > 0.0, durable, "{name} on {}", workload.name());
                }
                assert_eq!(get("core.actions_per_op") > 0.0, workload.is_fig4());
                assert_eq!(get("led.signal_us") > 0.0, workload.is_fig4());
                // The per-op parts add up to the client's round trip.
                let parts = get("serve.self_us") + get("core.execute_us");
                assert!(
                    (parts / get("client.rtt_us") - 1.0).abs() < 0.05,
                    "{detail}"
                );
                let quarter = Scale::smoke().quarter();
                let spans = std::fs::read_to_string(&spans_out).unwrap();
                let expected =
                    2 * (quarter.warmup + quarter.ops) as usize * crate::workload::CLIENTS;
                assert!(
                    spans.lines().count() >= expected,
                    "client + service span per op"
                );
                assert!(spans.lines().all(|l| Json::parse(l).is_ok()));
            }
        }
    }
}
