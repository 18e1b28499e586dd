//! The Persistent Manager (§4, Figure 8).
//!
//! Runs over its own high-privilege connection to the SQL server and owns
//! the agent's system tables (`SysPrimitiveEvent`, `SysCompositeEvent`,
//! `SysEcaTrigger`, `sysContext`, `SysAgentWatermark`, `SysSagaStep`,
//! `SysSagaJournal`, `SysWireJournal`, `SysDeadLetter`). All ECA rules are
//! persisted through
//! here and restored from here when the agent starts over an existing
//! database; the watermark table additionally records, per event, the
//! highest occurrence number the agent has raised, so a restarted agent
//! can replay occurrences it missed while down. The saga tables record
//! step lists and the per-instance execution journal (DESIGN.md §12);
//! the dead-letter table mirrors the action handler's queue so parked
//! actions survive a cold restart.

use std::collections::HashMap;
use std::sync::Arc;

use relsql::{BatchResult, Session, SqlServer, Value};

use crate::codegen::{sql_quote, system_tables_ddl};
use crate::error::{AgentError, Result};
use crate::saga::SagaJournalRow;

/// A `SysPrimitiveEvent` row, decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistedPrimitive {
    pub db: String,
    pub user: String,
    pub event: String,
    pub table: String,
    pub operation: String,
    pub vno: i64,
}

/// A `SysCompositeEvent` row, decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistedComposite {
    pub db: String,
    pub user: String,
    pub event: String,
    pub expr_src: String,
    pub coupling: String,
    pub context: String,
    pub priority: i32,
}

/// A `SysEcaTrigger` row, decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistedTrigger {
    pub db: String,
    pub user: String,
    pub name: String,
    pub proc_name: String,
    pub event: String,
    pub coupling: String,
    pub context: String,
    pub priority: i32,
    pub kind: String,
}

/// A `SysSagaStep` row, decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistedSagaStep {
    pub trigger: String,
    pub step_idx: i64,
    pub step_proc: String,
    pub comp_proc: Option<String>,
}

/// A `SysDeadLetter` row, decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistedDeadLetter {
    pub trigger: String,
    pub event: String,
    pub proc_name: String,
    pub coupling: String,
    pub context: String,
    pub vno: i64,
    pub attempts: i64,
    pub error: String,
    pub params: String,
}

/// The Persistent Manager.
pub struct PersistentManager {
    session: Session,
}

impl PersistentManager {
    /// Open the manager's privileged connection (the paper grants it DBA so
    /// it can create system tables).
    pub fn new(server: &Arc<SqlServer>) -> Self {
        PersistentManager {
            // Live reads: the manager is queried from the agent's pump,
            // which reacts to datagrams enqueued before the triggering
            // batch publishes its MVCC versions (see `SessionCtx`).
            session: server.session("master", "eca_admin").with_live_reads(),
        }
    }

    /// Create any missing system tables. Returns how many were created.
    pub fn ensure_system_tables(&self) -> Result<usize> {
        let server = self.session.server();
        let mut created = 0;
        for (name, ddl) in system_tables_ddl() {
            // A row-lock probe, not `snapshot()`, which clones the catalog.
            let key = relsql::catalog::name_key(name);
            if server.with_table_rows(&key, |_| ()).is_none() {
                self.session.execute(&ddl)?;
                created += 1;
            }
        }
        Ok(created)
    }

    /// Run arbitrary SQL on the manager's connection.
    pub fn run(&self, sql: &str) -> Result<BatchResult> {
        self.session.execute(sql).map_err(AgentError::from)
    }

    /// Load the per-event notification high-water marks.
    pub fn load_watermarks(&self) -> Result<std::collections::HashMap<String, i64>> {
        let r = self.run("select eventName, hwm from SysAgentWatermark")?;
        let rows = match r.last_select() {
            Some(q) => &q.rows,
            None => return Ok(std::collections::HashMap::new()),
        };
        rows.iter()
            .map(|row| Ok((str_at(row, 0)?, int_at(row, 1)?)))
            .collect()
    }

    /// Raise one event's high-water mark (see [`Self::save_watermarks`]).
    pub fn save_watermark(&self, event: &str, hwm: i64) -> Result<()> {
        self.save_watermarks(&[(event.to_string(), hwm)])
    }

    /// Raise several events' high-water marks in one batch, so a durable
    /// server logs one WAL record per flush. Each write is monotone: a
    /// stored mark only moves up, so two flushes of one event that land
    /// out of order cannot move it back and re-fire the higher occurrence
    /// after a restart. A missing row is inserted.
    pub fn save_watermarks(&self, marks: &[(String, i64)]) -> Result<()> {
        if marks.is_empty() {
            return Ok(());
        }
        let sql: Vec<String> = marks
            .iter()
            .map(|(event, hwm)| {
                format!(
                    "if exists (select 1 from SysAgentWatermark where eventName = {ev})\n\
                     update SysAgentWatermark set hwm = {hwm} where eventName = {ev} and hwm < {hwm}\n\
                     else insert SysAgentWatermark values ({ev}, {hwm})",
                    ev = sql_quote(event),
                )
            })
            .collect();
        self.run(&sql.join("\n"))?;
        Ok(())
    }

    /// Probe the wire-journal for an idempotency key (DESIGN.md §16).
    ///
    /// `None` — the key was never journaled (the request is fresh).
    /// `Some(None)` — journaled, effects applied, but the rendered
    /// response was never backfilled (a crash hit the window between
    /// applying and recording; the caller answers with a placeholder).
    /// `Some(Some(line))` — journaled with its recorded response line.
    pub fn wire_journal_lookup(&self, idem_key: &str) -> Result<Option<Option<String>>> {
        let r = self.run(&format!(
            "select response from SysWireJournal where idemKey = {}",
            sql_quote(idem_key)
        ))?;
        let rows = match r.last_select() {
            Some(q) => &q.rows,
            None => return Ok(None),
        };
        match rows.first().map(|row| row.first()) {
            None => Ok(None),
            Some(Some(Value::Str(s))) => Ok(Some(Some(s.clone()))),
            Some(_) => Ok(Some(None)),
        }
    }

    /// Backfill the rendered response line for a journaled request. A
    /// separate (second) WAL record on purpose: the effects + journal row
    /// committed atomically already, and a crash before this backfill only
    /// degrades a replay to a placeholder — never to a re-application.
    pub fn wire_journal_record(&self, idem_key: &str, line: &str) -> Result<()> {
        self.run(&format!(
            "update SysWireJournal set response = {} where idemKey = {}",
            sql_quote(line),
            sql_quote(idem_key)
        ))?;
        Ok(())
    }

    /// Drop journal rows a session no longer needs: everything below
    /// `below_seq` for `token` (the client acknowledged past them), or the
    /// whole session when `below_seq` is `i64::MAX` (QUIT / expiry).
    pub fn wire_journal_prune(&self, token: &str, below_seq: i64) -> Result<()> {
        self.run(&format!(
            "delete SysWireJournal where sessionToken = {} and reqSeq < {below_seq}",
            sql_quote(token)
        ))?;
        Ok(())
    }

    /// The durable occurrence counters — the reliability layer's source of
    /// truth for anti-entropy sweeps.
    ///
    /// The native trigger bumps each event's single-row `{event}_ver` table
    /// (not the shared `SysPrimitiveEvent`, which would serialize disjoint
    /// DML under per-table lock scheduling), so the live counter lives
    /// there; `SysPrimitiveEvent.vNo` is the definition-time seed and the
    /// fallback when the version table is missing (e.g. a half-installed
    /// event).
    ///
    /// Reads [`SqlServer::committed_database`] instead of issuing SQL:
    /// the exactly-once pump calls this on every anti-entropy pass, and a
    /// scheduled `select` per event would both pay per-batch scheduling
    /// overhead and contend on the very version tables every evented DML
    /// holds in its lock footprint — serializing the disjoint-table batches
    /// the scheduler exists to parallelize.
    ///
    /// Inside an open transaction that is its pre-image: the sweep must not
    /// raise what a ROLLBACK may undo. Otherwise it is the *live* rows: the
    /// loss signal moves mid-statement, before the batch publishes, and the
    /// sweep that claims it must see the counter the lost datagram carried.
    pub fn load_durable_vnos(&self) -> Result<Vec<(String, i64)>> {
        let db = self.session.server().committed_database();
        Ok({
            let spe = match db.table("sysprimitiveevent") {
                Some(t) => t,
                None => return Ok(Vec::new()),
            };
            let (ev_i, vno_i) = match (spe.schema.index_of("eventName"), spe.schema.index_of("vNo"))
            {
                (Some(e), Some(v)) => (e, v),
                _ => return Ok(Vec::new()),
            };
            let seeds: Vec<(String, i64)> = spe
                .rows()
                .iter()
                .filter_map(|row| match (row.get(ev_i), row.get(vno_i)) {
                    (Some(Value::Str(ev)), Some(Value::Int(seed))) => Some((ev.clone(), *seed)),
                    _ => None,
                })
                .collect();
            let mut out: Vec<(String, i64)> = seeds
                .into_iter()
                .map(|(event, seed)| {
                    let key = relsql::catalog::name_key(&crate::naming::version_table(&event));
                    let live = db.table(&key).and_then(|t| {
                        t.rows().first().and_then(|row| match row.first() {
                            Some(Value::Int(n)) => Some(*n),
                            _ => None,
                        })
                    });
                    (event, live.unwrap_or(seed))
                })
                .collect();
            out.sort();
            out
        })
    }

    pub fn load_primitives(&self) -> Result<Vec<PersistedPrimitive>> {
        let r = self.run(
            "select dbName, userName, eventName, tableName, operation, vNo \
             from SysPrimitiveEvent order by eventName",
        )?;
        let rows = match r.last_select() {
            Some(q) => &q.rows,
            None => return Ok(Vec::new()),
        };
        rows.iter()
            .map(|row| {
                let event = str_at(row, 2)?;
                // Same live-counter-over-seed rule as `load_durable_vnos`.
                let vno = self
                    .run(&format!(
                        "select vNo from {}",
                        crate::naming::version_table(&event)
                    ))
                    .ok()
                    .and_then(|r| {
                        r.last_select()
                            .and_then(|q| q.rows.first())
                            .and_then(|row| int_at(row, 0).ok())
                    })
                    .unwrap_or(int_at(row, 5)?);
                Ok(PersistedPrimitive {
                    db: str_at(row, 0)?,
                    user: str_at(row, 1)?,
                    event,
                    table: str_at(row, 3)?,
                    operation: str_at(row, 4)?,
                    vno,
                })
            })
            .collect()
    }

    pub fn load_composites(&self) -> Result<Vec<PersistedComposite>> {
        let r = self.run(
            "select dbName, userName, eventName, eventDescribe, coupling, context, priority \
             from SysCompositeEvent order by timeStamp",
        )?;
        let rows = match r.last_select() {
            Some(q) => &q.rows,
            None => return Ok(Vec::new()),
        };
        rows.iter()
            .map(|row| {
                Ok(PersistedComposite {
                    db: str_at(row, 0)?,
                    user: str_at(row, 1)?,
                    event: str_at(row, 2)?,
                    expr_src: str_at(row, 3)?,
                    coupling: str_at(row, 4)?,
                    context: str_at(row, 5)?,
                    priority: str_at(row, 6)?.trim().parse().unwrap_or(0),
                })
            })
            .collect()
    }

    pub fn load_triggers(&self) -> Result<Vec<PersistedTrigger>> {
        let r = self.run(
            "select dbName, userName, triggerName, triggerProc, eventName, \
             coupling, context, priority, kind \
             from SysEcaTrigger order by timeStamp",
        )?;
        let rows = match r.last_select() {
            Some(q) => &q.rows,
            None => return Ok(Vec::new()),
        };
        rows.iter()
            .map(|row| {
                Ok(PersistedTrigger {
                    db: str_at(row, 0)?,
                    user: str_at(row, 1)?,
                    name: str_at(row, 2)?,
                    proc_name: str_at(row, 3)?,
                    event: str_at(row, 4)?,
                    coupling: str_at(row, 5)?,
                    context: str_at(row, 6)?,
                    priority: int_at(row, 7)? as i32,
                    kind: str_at(row, 8)?,
                })
            })
            .collect()
    }

    /// Load every trigger's persisted saga step list, keyed by trigger
    /// name, each list in step order.
    pub fn load_saga_steps(&self) -> Result<HashMap<String, Vec<PersistedSagaStep>>> {
        let r = self.run(
            "select triggerName, stepIdx, stepProc, compProc \
             from SysSagaStep order by triggerName, stepIdx",
        )?;
        let rows = match r.last_select() {
            Some(q) => &q.rows,
            None => return Ok(HashMap::new()),
        };
        let mut out: HashMap<String, Vec<PersistedSagaStep>> = HashMap::new();
        for row in rows {
            let step = PersistedSagaStep {
                trigger: str_at(row, 0)?,
                step_idx: int_at(row, 1)?,
                step_proc: str_at(row, 2)?,
                comp_proc: match row.get(3) {
                    Some(Value::Null) | None => None,
                    _ => Some(str_at(row, 3)?),
                },
            };
            out.entry(step.trigger.clone()).or_default().push(step);
        }
        Ok(out)
    }

    /// The full saga journal, in insertion order (recovery groups it by
    /// saga key itself).
    pub fn load_saga_journal(&self) -> Result<Vec<SagaJournalRow>> {
        let r = self.run(
            "select sagaKey, triggerName, eventName, vNo, stepIdx, phase, state, idemKey \
             from SysSagaJournal",
        )?;
        let rows = match r.last_select() {
            Some(q) => &q.rows,
            None => return Ok(Vec::new()),
        };
        Ok(rows
            .iter()
            .filter_map(|r| SagaJournalRow::decode(r))
            .collect())
    }

    /// The durable dead-letter mirror, in insertion order.
    pub fn load_dead_letters(&self) -> Result<Vec<PersistedDeadLetter>> {
        let r = self.run(
            "select triggerName, eventName, procName, coupling, context, \
             vNo, attempts, errorText, params from SysDeadLetter",
        )?;
        let rows = match r.last_select() {
            Some(q) => &q.rows,
            None => return Ok(Vec::new()),
        };
        rows.iter()
            .map(|row| {
                Ok(PersistedDeadLetter {
                    trigger: str_at(row, 0)?,
                    event: str_at(row, 1)?,
                    proc_name: str_at(row, 2)?,
                    coupling: str_at(row, 3)?,
                    context: str_at(row, 4)?,
                    vno: int_at(row, 5)?,
                    attempts: int_at(row, 6)?,
                    error: str_at(row, 7)?,
                    params: str_at(row, 8)?,
                })
            })
            .collect()
    }
}

fn str_at(row: &[Value], i: usize) -> Result<String> {
    match row.get(i) {
        Some(Value::Str(s)) => Ok(s.trim().to_string()),
        Some(Value::Null) => Ok(String::new()),
        other => Err(AgentError::Recovery(format!(
            "expected string in system table column {i}, found {other:?}"
        ))),
    }
}

fn int_at(row: &[Value], i: usize) -> Result<i64> {
    match row.get(i) {
        Some(Value::Int(n)) => Ok(*n),
        Some(Value::Null) => Ok(0),
        other => Err(AgentError::Recovery(format!(
            "expected int in system table column {i}, found {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_creates_all_nine_tables_idempotently() {
        let server = SqlServer::new();
        let pm = PersistentManager::new(&server);
        assert_eq!(pm.ensure_system_tables().unwrap(), 9);
        assert_eq!(pm.ensure_system_tables().unwrap(), 0);
        for t in [
            "SysPrimitiveEvent",
            "SysCompositeEvent",
            "SysEcaTrigger",
            "sysContext",
            "SysAgentWatermark",
            "SysSagaStep",
            "SysSagaJournal",
            "SysWireJournal",
            "SysDeadLetter",
        ] {
            assert!(server.snapshot().database().has_table(t), "{t}");
        }
    }

    #[test]
    fn saga_steps_roundtrip_grouped_and_ordered() {
        let server = SqlServer::new();
        let pm = PersistentManager::new(&server);
        pm.ensure_system_tables().unwrap();
        pm.run(
            "insert SysSagaStep values ('db.u.t1', 1, 'db.u.p2', null)\n\
             insert SysSagaStep values ('db.u.t1', 0, 'db.u.p1', 'db.u.c1')\n\
             insert SysSagaStep values ('db.u.t2', 0, 'db.u.q1', null)",
        )
        .unwrap();
        let steps = pm.load_saga_steps().unwrap();
        assert_eq!(steps.len(), 2);
        let t1 = &steps["db.u.t1"];
        assert_eq!(t1.len(), 2);
        assert_eq!(t1[0].step_idx, 0, "ordered by stepIdx");
        assert_eq!(t1[0].comp_proc.as_deref(), Some("db.u.c1"));
        assert_eq!(t1[1].comp_proc, None);
        pm.run("delete SysSagaStep where triggerName = 'db.u.t1'")
            .unwrap();
        assert_eq!(pm.load_saga_steps().unwrap().len(), 1);
    }

    #[test]
    fn saga_journal_and_dead_letters_roundtrip() {
        let server = SqlServer::new();
        let pm = PersistentManager::new(&server);
        pm.ensure_system_tables().unwrap();
        pm.run(
            "insert SysSagaJournal values \
             ('db.u.t#3', 'db.u.t', 'db.u.e', 3, -1, 'saga', 'started', 'db.u.t#3/saga-1')",
        )
        .unwrap();
        let journal = pm.load_saga_journal().unwrap();
        assert_eq!(journal.len(), 1);
        assert_eq!(journal[0].key, "db.u.t#3");
        assert_eq!(journal[0].step, -1);
        // char() padding is trimmed on load.
        assert_eq!(journal[0].phase, "saga");
        assert_eq!(journal[0].state, "started");
        pm.run(
            "insert SysDeadLetter values \
             ('db.u.t', 'db.u.e', 'db.u.p', 'IMMEDIATE', 'RECENT', 3, 2, 'boom', 's,3,1')",
        )
        .unwrap();
        let letters = pm.load_dead_letters().unwrap();
        assert_eq!(letters.len(), 1);
        assert_eq!(letters[0].coupling, "IMMEDIATE");
        assert_eq!(letters[0].vno, 3);
        assert_eq!(letters[0].params, "s,3,1");
    }

    #[test]
    fn watermark_upsert_load_delete_roundtrip() {
        let server = SqlServer::new();
        let pm = PersistentManager::new(&server);
        pm.ensure_system_tables().unwrap();
        assert!(pm.load_watermarks().unwrap().is_empty());
        pm.save_watermark("db.u.e", 3).unwrap();
        pm.save_watermark("db.u.e", 7).unwrap(); // upsert replaces
        pm.save_watermark("db.u.f", 1).unwrap();
        let wm = pm.load_watermarks().unwrap();
        assert_eq!(wm.len(), 2);
        assert_eq!(wm.get("db.u.e"), Some(&7));
        assert_eq!(wm.get("db.u.f"), Some(&1));
        pm.run("delete SysAgentWatermark where eventName = 'db.u.e'")
            .unwrap();
        assert_eq!(pm.load_watermarks().unwrap().len(), 1);
    }

    #[test]
    fn watermark_writes_only_raise_the_mark_and_insert_missing_rows() {
        let storage: Arc<dyn relsql::Storage> = relsql::FaultyStorage::new();
        let durable = SqlServer::open_with_storage(
            storage,
            relsql::DurabilityConfig {
                fsync: relsql::FsyncPolicy::Always,
                checkpoint_bytes: 0,
            },
            relsql::EngineConfig::default(),
        )
        .unwrap();
        for server in [SqlServer::new(), durable] {
            let on = if server.is_durable() {
                "durable"
            } else {
                "in memory"
            };
            let pm = PersistentManager::new(&server);
            pm.ensure_system_tables().unwrap();
            // Two flushes of one event that land out of order.
            pm.save_watermark("e", 6).unwrap();
            pm.save_watermark("e", 5).unwrap();
            assert_eq!(pm.load_watermarks().unwrap().get("e"), Some(&6), "{on}");
            // One batch: the missing row is inserted, the lower mark ignored,
            // and a durable server logs one WAL record for both.
            let wal = server.metrics()["wal_records"];
            pm.save_watermarks(&[("e".into(), 4), ("f".into(), 2)])
                .unwrap();
            let wm = pm.load_watermarks().unwrap();
            assert_eq!((wm.get("e"), wm.get("f")), (Some(&6), Some(&2)), "{on}");
            let logged = server.metrics()["wal_records"] - wal;
            assert_eq!(logged, u64::from(server.is_durable()), "{on}");
        }
    }

    #[test]
    fn durable_vnos_read_back_from_primitive_rows() {
        let server = SqlServer::new();
        let pm = PersistentManager::new(&server);
        pm.ensure_system_tables().unwrap();
        pm.run(
            "insert SysPrimitiveEvent values \
             ('db', 'u', 'db.u.e', 'stock', 'insert', getdate(), 4)",
        )
        .unwrap();
        assert_eq!(
            pm.load_durable_vnos().unwrap(),
            vec![("db.u.e".to_string(), 4)]
        );
    }

    #[test]
    fn durable_vnos_prefer_live_version_table_over_seed() {
        let server = SqlServer::new();
        let pm = PersistentManager::new(&server);
        pm.ensure_system_tables().unwrap();
        pm.run(
            "insert SysPrimitiveEvent values \
             ('db', 'u', 'db.u.e', 'stock', 'insert', getdate(), 4)",
        )
        .unwrap();
        // The native trigger bumps db.u.e_ver, not SysPrimitiveEvent.
        pm.run("create table db.u.e_ver (vNo int not null)\ninsert db.u.e_ver values (9)")
            .unwrap();
        assert_eq!(
            pm.load_durable_vnos().unwrap(),
            vec![("db.u.e".to_string(), 9)]
        );
    }

    #[test]
    fn roundtrip_primitive_rows() {
        let server = SqlServer::new();
        let pm = PersistentManager::new(&server);
        pm.ensure_system_tables().unwrap();
        pm.run(
            "insert SysPrimitiveEvent values \
             ('sentineldb', 'sharma', 'sentineldb.sharma.addStk', 'stock', 'insert', getdate(), 4)",
        )
        .unwrap();
        let rows = pm.load_primitives().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].event, "sentineldb.sharma.addStk");
        assert_eq!(rows[0].operation, "insert");
        assert_eq!(rows[0].vno, 4);
    }

    #[test]
    fn roundtrip_composite_rows() {
        let server = SqlServer::new();
        let pm = PersistentManager::new(&server);
        pm.ensure_system_tables().unwrap();
        pm.run(
            "insert SysCompositeEvent values \
             ('db', 'u', 'db.u.addDel', '(db.u.delStk ^ db.u.addStk)', getdate(), \
              'IMMEDIATE', 'RECENT', '3')",
        )
        .unwrap();
        let rows = pm.load_composites().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].expr_src, "(db.u.delStk ^ db.u.addStk)");
        assert_eq!(rows[0].priority, 3);
        // char(10) padding is trimmed.
        assert_eq!(rows[0].context, "RECENT");
    }

    #[test]
    fn roundtrip_trigger_rows_and_delete() {
        let server = SqlServer::new();
        let pm = PersistentManager::new(&server);
        pm.ensure_system_tables().unwrap();
        pm.run(
            "insert SysEcaTrigger values \
             ('db', 'u', 'db.u.t1', 'db.u.t1__Proc', getdate(), 'db.u.e', \
              'DETACHED', 'CHRONICLE', 7, 'led')",
        )
        .unwrap();
        let rows = pm.load_triggers().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "db.u.t1");
        assert_eq!(rows[0].kind, "led");
        assert_eq!(rows[0].priority, 7);
        pm.run("delete SysEcaTrigger where triggerName = 'db.u.t1'")
            .unwrap();
        assert!(pm.load_triggers().unwrap().is_empty());
    }

    #[test]
    fn empty_tables_load_empty() {
        let server = SqlServer::new();
        let pm = PersistentManager::new(&server);
        pm.ensure_system_tables().unwrap();
        assert!(pm.load_primitives().unwrap().is_empty());
        assert!(pm.load_composites().unwrap().is_empty());
        assert!(pm.load_triggers().unwrap().is_empty());
    }
}
