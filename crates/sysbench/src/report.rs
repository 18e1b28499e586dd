//! The names every later claim uses: each metric's unit, direction and (for
//! end-to-end metrics) regression bound, and `sysbench compare`, which
//! applies them. `BENCHMARK.json` states the same tables; a test keeps the
//! two in step.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen before
    /// a change counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees, per workload, timed window only, tracing
/// off. `failed_share` is not listed: it must be 0 and any rise is a
/// regression, which a relative bound cannot express.
pub const END_TO_END: &[MetricDef] = &[
    gated("throughput_ops_s", "1/s", Better::Higher, 0.10),
    gated("exec_p50_us", "us", Better::Lower, 0.25),
    gated("exec_p99_us", "us", Better::Lower, 0.20),
    gated("setup_s", "s", Better::Lower, 0.25),
];

/// `fig4_durable` only, so `compare` gates it there and `BENCHMARK.json`
/// (whose end-to-end metrics must exist on every workload) lists it per layer.
pub const RECOVERY: MetricDef = gated("recovery_s", "s", Better::Lower, 0.10);

use Better::{Higher, Lower};

pub const PER_LAYER: &[MetricDef] = &[
    layer("client.rtt_us", "us", Lower),
    layer("client.rtt_p50_us", "us", Lower),
    layer("serve.self_us", "us", Lower),
    layer("serve.self_p50_us", "us", Lower),
    layer("serve.ping_rtt_us", "us", Lower),
    layer("serve.wakeups_per_op", "1/op", Lower),
    layer("serve.partial_reads", "count", Lower),
    layer("serve.write_blocked", "count", Lower),
    layer("core.execute_us", "us", Lower),
    layer("core.execute_p50_us", "us", Lower),
    layer("core.replay_us", "us", Lower),
    layer("core.active_us", "us", Lower),
    layer("core.notifications_per_op", "1/op", Lower),
    layer("core.actions_per_op", "1/op", Lower),
    layer("core.define_rule_us", "us", Lower),
    layer("snoop.parse_us", "us", Lower),
    layer("relsql.stmt_us", "us", Lower),
    layer("relsql.parse_us", "us", Lower),
    layer("relsql.plan_cache_hit_rate", "share", Higher),
    layer("relsql.rows_scanned_per_op", "1/op", Lower),
    layer("relsql.index_hit_rate", "share", Higher),
    layer("relsql.exec_compiled_share", "share", Higher),
    layer("relsql.exec_fallback_scope_per_op", "1/op", Lower),
    layer("relsql.snapshot_reads_share", "share", Higher),
    layer("relsql.lock_waits_per_op", "1/op", Lower),
    layer("relsql.wal_records_per_op", "1/op", Lower),
    layer("relsql.wal_bytes_per_op", "B/op", Lower),
    layer("relsql.wal_fsyncs_per_op", "1/op", Lower),
    layer("relsql.wal_group_commit_share", "share", Higher),
    layer("relsql.wal_checkpoints", "count", Lower),
    layer("storage.append_us", "us", Lower),
    layer("storage.sync_us", "us", Lower),
    layer("storage.sync_total_ms", "ms", Lower),
    layer("storage.replace_max_us", "us", Lower),
    layer("led.signal_us", "us", Lower),
    layer("led.emissions_per_signal", "1/signal", Lower),
    layer("led.state_size", "count", Lower),
    layer("trace.overhead_share", "share", Lower),
    layer("relsql.wal_records_replayed", "count", Lower),
    RECOVERY,
    layer("process.peak_rss_mb", "MB", Lower),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[(&'static str, Option<f64>)], missing: Json) -> Json {
    Json::obj(metrics.iter().map(|&(name, value)| {
        let value = value
            .filter(|v| v.is_finite())
            .map_or(missing.clone(), Json::Num);
        (
            name,
            Json::obj([("value", value), ("unit", Json::str(unit_of(name)))]),
        )
    }))
}

/// Python's `statistics.quantiles(values, n=4)` (the exclusive method).
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some([cut(1), cut(2), cut(3)])
}

/// Run-to-run spread as a share of the median: the interquartile distance
/// from four runs up, the full range for two or three, unknown for one.
fn spread(values: &[f64]) -> Option<f64> {
    let [q1, median, q3] = quartiles(values)?;
    if values.len() >= 4 {
        return Some((q3 - q1) / median);
    }
    let (lo, hi) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    Some((hi - lo) / median)
}

fn metric_value(doc: &Json, workload: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn failed_share(doc: &Json, workload: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("failed_share")?
        .as_f64()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

/// `base` is the baseline's value (its median over `base_runs` when repeats
/// were supplied), `new` the change's.
pub fn verdict(def: &MetricDef, base_runs: &[f64], new: f64) -> (f64, Verdict) {
    let base = quartiles(base_runs).map_or(base_runs[0], |q| q[1]);
    let bound = def.bound.unwrap_or(0.0);
    let change = match def.better {
        Better::Higher => (new - base) / base,
        Better::Lower => (base - new) / base,
    };
    let verdict = if spread(base_runs).is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if change < -bound {
        Verdict::Worse
    } else if change > bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (base, verdict)
}

/// Prints one row per (workload, gated metric); `Ok(true)` when nothing got
/// worse. `repeats` are further runs of the baseline.
pub fn compare(base: &Json, repeats: &[Json], new: &Json) -> Result<bool, String> {
    let workloads = base.get("workloads").ok_or("baseline has no `workloads`")?;
    let mut clean = true;
    println!(
        "{:<15} {:<18} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "base", "new", "new/base", "bound"
    );
    for (workload, _) in workloads.fields() {
        let gated = END_TO_END.iter().chain(std::iter::once(&RECOVERY));
        for def in gated {
            let Some(first) = metric_value(base, workload, def.name) else {
                continue;
            };
            let mut runs = vec![first];
            runs.extend(
                repeats
                    .iter()
                    .filter_map(|r| metric_value(r, workload, def.name)),
            );
            let new_value = metric_value(new, workload, def.name)
                .ok_or_else(|| format!("{workload}/{}: missing from the new document", def.name))?;
            let (base_value, verdict) = verdict(def, &runs, new_value);
            clean &= verdict != Verdict::Worse;
            println!(
                "{workload:<15} {:<18} {base_value:>11.3} {:<2} {new_value:>11.3} {:<2} {:>9.4} {:>6.2}  {}",
                def.name,
                def.unit,
                def.unit,
                new_value / base_value,
                def.bound.unwrap_or(0.0),
                format!("{verdict:?}").to_lowercase(),
            );
        }
        let (was, is) = (failed_share(base, workload), failed_share(new, workload));
        let rose = matches!((was, is), (Some(was), Some(is)) if is > was) || is.is_none();
        clean &= !rose;
        println!(
            "{workload:<15} {:<18} {:>14} {:>14} {:>9} {:>6}  {}",
            "failed_share",
            was.map_or("missing".into(), |v| v.to_string()),
            is.map_or("missing".into(), |v| v.to_string()),
            "",
            "0",
            if rose { "worse" } else { "same" },
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quartiles(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]).unwrap();
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3., 1., 2.]).unwrap(), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn verdict_applies_direction_bound_and_spread() {
        let throughput = &gated("throughput", "1/s", Better::Higher, 0.10);
        let p50 = &gated("p50", "us", Better::Lower, 0.10);
        assert_eq!(verdict(throughput, &[100.0], 95.0).1, Verdict::Same);
        assert_eq!(verdict(throughput, &[100.0], 85.0).1, Verdict::Worse);
        assert_eq!(verdict(throughput, &[100.0], 115.0).1, Verdict::Better);
        assert_eq!(verdict(p50, &[100.0], 115.0).1, Verdict::Worse);
        assert_eq!(verdict(p50, &[100.0], 85.0).1, Verdict::Better);
        // Baseline runs that disagree by more than the bound resolve nothing.
        assert_eq!(
            verdict(p50, &[100.0, 130.0, 90.0], 150.0).1,
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(p50, &[100.0, 101.0, 99.0, 100.0], 150.0).1,
            Verdict::Worse
        );
    }

    /// `BENCHMARK.json` and the tables above name the same metrics with the
    /// same units, directions and bounds, and the same workloads.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("BENCHMARK.json `{key}`: {other:?}"),
        };
        let describe = |m: &Json, with_bound: bool| {
            let field = |k: &str| match m.get(k) {
                Some(Json::Str(s)) => s.clone(),
                other => panic!("BENCHMARK.json metric field `{k}`: {other:?}"),
            };
            let bound = m.get("bound").and_then(Json::as_f64);
            (
                field("name"),
                field("unit"),
                field("better"),
                bound.filter(|_| with_bound),
            )
        };
        let expect = |defs: &[MetricDef], with_bound: bool| -> Vec<_> {
            defs.iter()
                .map(|d| {
                    let bound = d.bound.filter(|_| with_bound);
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        format!("{:?}", d.better).to_lowercase(),
                        bound,
                    )
                })
                .collect()
        };
        let e2e: Vec<_> = listed("end_to_end")
            .iter()
            .map(|m| describe(m, true))
            .collect();
        assert_eq!(e2e, expect(END_TO_END, true));
        let layers: Vec<_> = listed("per_layer")
            .iter()
            .map(|m| describe(m, false))
            .collect();
        assert_eq!(layers, expect(PER_LAYER, false));
        let workloads: Vec<_> = listed("workloads")
            .iter()
            .map(|w| match w.get("name") {
                Some(Json::Str(name)) => name.clone(),
                other => panic!("BENCHMARK.json workload name: {other:?}"),
            })
            .collect();
        let names: Vec<_> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, names);
    }
}
