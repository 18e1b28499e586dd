//! `fig4_durable`'s recovery phase: apply a fixed prefix of client 0's
//! stream to a fresh data directory, drop every handle without drain or
//! checkpoint, and time how long the system takes to answer again.

use std::sync::Arc;
use std::time::Instant;

use eca_core::{ActiveService, AgentConfig, EcaAgent};
use eca_serve::{EcaServer, ServeClient, ServeConfig};
use relsql::table::Row;
use relsql::{DurabilityConfig, SqlServer};

use crate::bench::{percentile, scalar, Checks, Stats};
use crate::stack::{self, ctx, Tracer};
use crate::workload::{FiringModel, Scale, Stream, Workload, CLIENTS, DB};

/// Reopens timed per phase; `recovery_s` is their median.
const REOPENS: usize = 7;

pub struct Recovery {
    /// `SqlServer::open` + `EcaAgent::new` + first answered statement.
    pub recovery_s: f64,
    /// WAL records the last reopen replayed, read by `STATS` key.
    pub records_replayed: Option<f64>,
    pub checks: Checks,
}

fn user_tables() -> Vec<String> {
    (0..CLIENTS)
        .flat_map(|k| ["quotes", "trades", "risk_log", "audit"].map(|t| format!("{t}_{k}")))
        .collect()
}

fn dump(server: &Arc<SqlServer>) -> Result<Vec<Vec<Row>>, String> {
    let session = server.session(DB, "oracle");
    user_tables()
        .iter()
        .map(|t| {
            let result = session
                .execute(&format!("select * from {t}"))
                .map_err(|e| format!("dump {t}: {e}"))?;
            Ok(result
                .last_select()
                .map(|r| r.rows.clone())
                .unwrap_or_default())
        })
        .collect()
}

/// With a `tracer`, the storage calls before the crash are recorded too: the
/// explicit checkpoint is the one `Storage::replace` of a known size.
pub fn recovery_phase(
    seed: u64,
    scale: &Scale,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Recovery, String> {
    let workload = Workload::Fig4Durable;
    let mut checks = Checks::default();
    let prepared = stack::prepare(workload, seed, scale, tracer)?;
    let ctx0 = ctx(0);
    let mut stream = Stream::new(workload, seed, 0, scale);
    let mut failed = 0u64;
    for i in 0..scale.recovery_ops {
        if i == scale.recovery_ops / 2 {
            // One checkpoint mid-way: recovery restores a snapshot and
            // replays the half of the log written after it.
            prepared
                .server
                .checkpoint()
                .map_err(|e| format!("checkpoint: {e}"))?;
        }
        let op = stream.next_op();
        match ActiveService::execute(&prepared.agent, &op.sql, &ctx0) {
            Ok(r) if r.actions.iter().all(|a| a.result.is_ok()) => {}
            _ => failed += 1,
        }
    }
    checks.eq("recovery: ops failed before the crash", 0, failed);
    let before = dump(&prepared.server)?;

    // The crash. fsync `Always` means every acknowledged batch is already
    // in the file; nothing else is flushed, drained or checkpointed.
    let stack::Prepared {
        server,
        agent,
        data_dir,
        ..
    } = prepared;
    drop(agent);
    drop(server);
    let data_dir = data_dir.expect("fig4_durable runs over a data directory");

    let mut times = Vec::with_capacity(REOPENS);
    let mut last = None;
    for _ in 0..REOPENS {
        drop(last.take());
        let t = Instant::now();
        let server = SqlServer::open(data_dir.path(), DurabilityConfig::default())
            .map_err(|e| format!("reopen: {e}"))?;
        let agent = EcaAgent::new(Arc::clone(&server), AgentConfig::default())
            .map_err(|e| format!("agent restart: {e}"))?;
        ActiveService::execute(&agent, "select count(*) from audit_0", &ctx0)
            .map_err(|e| format!("first statement after recovery: {e}"))?;
        times.push(t.elapsed().as_secs_f64());
        last = Some((server, agent));
    }
    let (server, agent) = last.expect("REOPENS > 0");
    times.sort_by(f64::total_cmp);

    let after = dump(&server)?;
    for ((table, before), after) in user_tables().iter().zip(&before).zip(&after) {
        checks.eq(format!("recovery: {table} rows"), before.len(), after.len());
        checks.eq(
            format!("recovery: {table} row-for-row"),
            true,
            before == after,
        );
    }
    // No double firing: the counts are still the model's.
    let firing = &stream.model.firing;
    let count = |t: &str| scalar(&server, &format!("select count(*) from {t}_0"));
    checks.eq("recovery: audit_0 rows", firing.audit, count("audit")?);
    checks.eq(
        "recovery: risk_log_0 rows",
        firing.risk_log,
        count("risk_log")?,
    );

    // All four rules restored, shown by behaviour. The detector's buffers
    // are not persisted, so a fresh model predicts the next firings.
    let mut fresh = FiringModel::default();
    fresh.quote_update();
    fresh.trade_insert();
    for sql in [
        "update quotes_0 set price = 1 where symbol = 'S00'",
        "insert trades_0 values ('S00', 1, 1)",
    ] {
        ActiveService::execute(&agent, sql, &ctx0).map_err(|e| format!("{sql}: {e}"))?;
    }
    checks.eq(
        "recovery: rules fire again (audit_0)",
        firing.audit + fresh.audit,
        count("audit")?,
    );
    checks.eq(
        "recovery: rules fire again (risk_log_0)",
        firing.risk_log + fresh.risk_log,
        count("risk_log")?,
    );

    // Counters are read over the wire by name, like everywhere else.
    let handle = EcaServer::start(Arc::new(agent), ServeConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let (mut client, _) = ServeClient::connect_as(handle.addr(), DB, "admin")
        .map_err(|e| format!("connect admin: {e}"))?;
    let records_replayed = Stats::read(&mut client)?.get("wal_records_replayed");
    let _ = client.quit();
    handle.shutdown();
    drop(server);
    drop(data_dir);

    Ok(Recovery {
        recovery_s: percentile(&times, 0.5),
        records_replayed,
        checks,
    })
}
