//! The execution engine: statement dispatch, DML with native trigger firing,
//! stored procedures, transactions and control flow.
//!
//! Native trigger behaviour intentionally replicates Sybase's restrictions
//! (paper §2.2): statement-level triggers, one per (table, operation) with
//! silent overwrite, `inserted`/`deleted` pseudo-tables, and a nesting
//! limit. The ECA Agent builds full active-database semantics on top of
//! exactly this machinery.
//!
//! The engine is shared (`&self` throughout): the catalog sits behind a
//! `RwLock`, per-execution state (trigger scope, bound parameters) is
//! threaded explicitly, and row storage is interior-mutable per table. The
//! server layer serializes conflicting batches with per-table lock groups;
//! the engine's own locks only guard individual statements' short critical
//! sections. A statement's notification (`syb_sendmsg`) is evaluated *after*
//! the row mutation it describes — the row write-lock release
//! happens-before the sink enqueue, so a consumer that reads the table in
//! response to the notification always sees the rows for the vNo it was
//! handed. Inside an explicit transaction it is held until `COMMIT`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;

use crate::sync::{Mutex, RwLock, RwLockReadGuard};

use crate::ast::{InsertSource, Stmt, TriggerOp};
use crate::catalog::{Database, ProcedureDef, TriggerDef};
use crate::clock::LogicalClock;
use crate::error::{Error, ObjectKind, Result};
use crate::eval::Frame;
use crate::eval::{eval_expr, PseudoFrame, QueryCtx, RowEnv, SessionCtx};
use crate::exec::{self, LoweredCache};
use crate::index::{IndexDef, IndexKind, IndexSet};
use crate::lexer::split_batches;
use crate::metrics::Metrics;
use crate::notify::{Datagram, NotificationSink};
use crate::parser::parse_script;
use crate::plan::{self, SlotMeta};
use crate::table::{Row, Schema, Table};
use crate::value::Value;

crate::counters! {
    /// Cumulative access-path and executor counters. `index_hits`/
    /// `index_misses` count FROM slots (and DML match phases) served by an
    /// index probe vs. a full scan; `rows_scanned` counts candidate row
    /// visits, so a workload whose `rows_scanned` stays flat as tables grow
    /// is running entirely on point lookups.
    pub struct ExecCounters("executor") {
        index_hits,
        index_misses,
        rows_scanned,
        /// Statements executed through the compiled physical-plan executor.
        exec_compiled,
        /// Statements that ran the row-at-a-time interpreter instead (sum
        /// of the three fallback-reason counters below).
        exec_interpreted,
        /// Interpreter fallbacks because the statement shape isn't
        /// lowerable (subqueries, rejected projections).
        exec_fallback_expr,
        /// Interpreter fallbacks because execution was inside a trigger
        /// scope.
        exec_fallback_scope,
        /// Interpreter fallbacks because `EngineConfig::compiled_exec` is
        /// off.
        exec_fallback_disabled,
        /// Candidate batches pushed through the vectorized filter pipeline.
        batches_vectorized,
        /// Candidate tuples carried in those batches.
        rows_batched,
        /// Lowered-plan cache hits (per statement execution).
        plan_lowered_hits,
        /// Lowered-plan cache misses (statement had to be lowered).
        plan_lowered_misses,
    }
}

/// The result of one SELECT or DML statement. Column names are shared
/// handles into the table schemas (or interned output aliases) — cloning a
/// result never copies name strings.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult {
    pub columns: Vec<Arc<str>>,
    pub rows: Vec<Row>,
    pub rows_affected: usize,
}

impl QueryResult {
    fn affected(n: usize) -> Self {
        QueryResult {
            rows_affected: n,
            ..Default::default()
        }
    }

    /// First value of the first row, if any.
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().and_then(|r| r.first())
    }
}

/// Everything a batch produced, in statement order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchResult {
    pub results: Vec<QueryResult>,
    /// PRINT output, including prints from triggers and procedures.
    pub messages: Vec<String>,
}

impl BatchResult {
    /// The last result set that actually has columns (i.e. came from a
    /// SELECT), which is usually what a client wants to inspect.
    pub fn last_select(&self) -> Option<&QueryResult> {
        self.results.iter().rev().find(|r| !r.columns.is_empty())
    }

    /// Scalar of the last SELECT.
    pub fn scalar(&self) -> Option<&Value> {
        self.last_select().and_then(QueryResult::scalar)
    }

    /// Total rows affected across all DML statements.
    pub fn total_affected(&self) -> usize {
        self.results.iter().map(|r| r.rows_affected).sum()
    }
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Maximum trigger/procedure nesting depth (Sybase default: 16).
    pub max_depth: usize,
    /// Global switch for native trigger firing.
    pub fire_triggers: bool,
    /// Safety valve for `WHILE` loops.
    pub max_while_iterations: usize,
    /// Run top-level SELECT/DML through the compiled physical-plan executor
    /// ([`crate::exec`]) when the statement shape allows it. Off means every
    /// statement takes the row-at-a-time interpreter; results are
    /// byte-identical either way (the twin-run suite pins this).
    pub compiled_exec: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_depth: 16,
            fire_triggers: true,
            max_while_iterations: 100_000,
            compiled_exec: true,
        }
    }
}

/// Per-execution state threaded through statement dispatch: the trigger
/// pseudo-table scope stack, the bound parameters of the current batch, and
/// the batch's lowered-plan cache (shared with the server's masked-literal
/// plan cache entry; `None` for uncached executions).
struct ExecState<'p> {
    scope: Vec<PseudoFrame>,
    params: &'p [Value],
    lowered: Option<&'p LoweredCache>,
}

/// The in-memory SQL engine ("the SQL Server" of Figure 1). Shareable
/// across threads; conflicting batches must be serialized by the caller
/// (the server's per-table lock groups do this).
pub struct Engine {
    db: RwLock<Database>,
    config: EngineConfig,
    clock: Arc<LogicalClock>,
    outbox: Outbox,
    counters: ExecCounters,
}

/// The open transaction: the pre-image `ROLLBACK` restores and the datagrams
/// `COMMIT` posts. It is engine-wide, so it owns every datagram raised in it.
struct OpenTx {
    pre_image: Database,
    held: Vec<Datagram>,
}

/// Where `syb_sendmsg` datagrams go: numbered, then sent to the sink at
/// once in autocommit, or held by the open transaction. `open` mirrors
/// `tx.is_some()` under its lock, so the autocommit path takes no tx lock.
#[derive(Default)]
pub(crate) struct Outbox {
    sink: RwLock<Option<Arc<dyn NotificationSink>>>,
    seq: AtomicU64,
    open: AtomicBool,
    tx: Mutex<Option<OpenTx>>,
}

impl Outbox {
    pub fn post(&self, host: String, port: u16, payload: String) {
        let Some(sink) = self.sink.read().clone() else {
            return;
        };
        let seq = self.seq.fetch_add(1, AtomicOrdering::Relaxed);
        let datagram = Datagram {
            host,
            port,
            payload,
            seq,
        };
        if self.open.load(AtomicOrdering::Acquire) {
            if let Some(tx) = self.tx.lock().as_mut() {
                return tx.held.push(datagram);
            }
        }
        sink.send(datagram);
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

/// A consistent read view of the engine for the duration of one statement:
/// the catalog read guard.
struct EngineRead<'e> {
    engine: &'e Engine,
    db: RwLockReadGuard<'e, Database>,
}

impl<'e> EngineRead<'e> {
    fn ctx<'a>(&'a self, session: &'a SessionCtx, state: &'a ExecState<'_>) -> QueryCtx<'a> {
        QueryCtx {
            db: &self.db,
            session,
            scope: &state.scope,
            clock: &self.engine.clock,
            outbox: &self.engine.outbox,
            params: state.params,
            stats: &self.engine.counters,
            compiled: self.engine.config.compiled_exec,
        }
    }
}

impl Engine {
    pub fn new() -> Self {
        Engine::with_config(EngineConfig::default())
    }

    pub fn with_config(config: EngineConfig) -> Self {
        Engine {
            db: RwLock::new(Database::new()),
            config,
            clock: Arc::new(LogicalClock::default()),
            outbox: Outbox::default(),
            counters: ExecCounters::default(),
        }
    }

    /// Access-path and executor counters (index hits/misses, rows scanned,
    /// compiled vs. interpreted statements).
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        self.counters.read_into(&mut m);
        m
    }

    /// Register the notification sink that `syb_sendmsg()` posts to.
    pub fn set_sink(&self, sink: Arc<dyn NotificationSink>) {
        *self.outbox.sink.write() = Some(sink);
    }

    pub fn clock(&self) -> Arc<LogicalClock> {
        Arc::clone(&self.clock)
    }

    /// Read-only catalog access for introspection and tests. Holds the
    /// catalog read lock for the guard's lifetime — don't hold it across
    /// calls back into the engine's DDL paths.
    pub fn database(&self) -> RwLockReadGuard<'_, Database> {
        self.db.read_recursive()
    }

    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Replace the whole catalog — used by crash recovery to install a
    /// decoded snapshot before WAL replay. Must not be called while any
    /// statements are executing.
    pub fn restore_database(&self, db: Database) {
        *self.db.write() = db;
    }

    /// True while an explicit transaction is open.
    pub fn in_tx(&self) -> bool {
        self.outbox.open.load(AtomicOrdering::Acquire)
    }

    /// The committed database: the open transaction's pre-image, or the
    /// live catalog when none is open. Cloning is copy-on-write.
    pub fn committed_database(&self) -> Database {
        match self.outbox.tx.lock().as_ref() {
            Some(tx) => tx.pre_image.clone(),
            None => self.db.read_recursive().clone(),
        }
    }

    /// Acquire a consistent read view for one statement.
    fn read(&self) -> EngineRead<'_> {
        EngineRead {
            engine: self,
            db: self.db.read_recursive(),
        }
    }

    /// Execute a script: batches split on `go` lines, statements within a
    /// batch run in order. Execution stops at the first error (effects of
    /// earlier statements persist, as on a real server without an explicit
    /// transaction).
    pub fn execute(&self, script: &str, session: &SessionCtx) -> Result<BatchResult> {
        let mut out = BatchResult::default();
        for batch in split_batches(script) {
            let stmts = parse_script(batch)?;
            self.run_stmts(&stmts, &[], session, &mut out)?;
        }
        Ok(out)
    }

    /// Execute one pre-parsed batch with bound parameters — the server's
    /// statement-plan-cache entry point. `params` backs any `Expr::Param`
    /// placeholders the plan cache masked out of the batch text.
    pub fn run_stmts(
        &self,
        stmts: &[Stmt],
        params: &[Value],
        session: &SessionCtx,
        out: &mut BatchResult,
    ) -> Result<()> {
        self.run_stmts_with(stmts, params, session, out, None)
    }

    /// [`Engine::run_stmts`] with the batch's lowered-plan cache attached.
    /// The cache is keyed by statement address, so `stmts` must be the same
    /// allocation the cache entry was created for (the server guarantees
    /// this by storing both in one `CachedPlan`).
    pub(crate) fn run_stmts_with(
        &self,
        stmts: &[Stmt],
        params: &[Value],
        session: &SessionCtx,
        out: &mut BatchResult,
        lowered: Option<&LoweredCache>,
    ) -> Result<()> {
        let mut state = ExecState {
            scope: Vec::new(),
            params,
            lowered,
        };
        for stmt in stmts {
            self.exec_stmt(stmt, session, &mut state, out, 0)?;
        }
        Ok(())
    }

    /// Execute one pre-parsed **read-pure** batch against a pinned snapshot
    /// database — the MVCC read lane. Takes no engine locks at all: the
    /// snapshot owns (shares `Arc`s of) everything the batch can touch, so
    /// evaluation proceeds concurrently with writers, DDL, and other
    /// readers. Shares the engine's logical clock and scan counters, and
    /// runs the *same* `run_select` evaluator as the locked path, so
    /// results are byte-identical for any batch the classifier marks
    /// `ReadPure`.
    ///
    /// Callers must only pass batches classified read-pure; any statement
    /// with effects (DML, DDL, transaction control) is rejected as an
    /// internal error rather than silently half-executed.
    pub fn run_snapshot_stmts(
        &self,
        snap: &Database,
        stmts: &[Stmt],
        params: &[Value],
        session: &SessionCtx,
        out: &mut BatchResult,
    ) -> Result<()> {
        self.run_snapshot_stmts_with(snap, stmts, params, session, out, None)
    }

    /// [`Engine::run_snapshot_stmts`] with the batch's lowered-plan cache
    /// attached, so the MVCC read lane runs compiled plans against pinned
    /// versions too.
    pub(crate) fn run_snapshot_stmts_with(
        &self,
        snap: &Database,
        stmts: &[Stmt],
        params: &[Value],
        session: &SessionCtx,
        out: &mut BatchResult,
        lowered: Option<&LoweredCache>,
    ) -> Result<()> {
        let state = ExecState {
            scope: Vec::new(),
            params,
            lowered,
        };
        for stmt in stmts {
            self.exec_snapshot_stmt(snap, stmt, session, &state, out, 0)?;
        }
        Ok(())
    }

    fn exec_snapshot_stmt(
        &self,
        snap: &Database,
        stmt: &Stmt,
        session: &SessionCtx,
        state: &ExecState<'_>,
        out: &mut BatchResult,
        depth: usize,
    ) -> Result<()> {
        if depth > self.config.max_depth {
            return Err(Error::TriggerDepth {
                limit: self.config.max_depth,
            });
        }
        let ctx = QueryCtx {
            db: snap,
            session,
            scope: &state.scope,
            clock: &self.clock,
            outbox: &self.outbox,
            params: state.params,
            stats: &self.counters,
            compiled: self.config.compiled_exec,
        };
        match stmt {
            Stmt::Select(sel) if sel.into.is_none() => {
                let (columns, rows, _) = exec::run_select_exec(&ctx, sel, state.lowered)?;
                let affected = rows.len();
                out.results.push(QueryResult {
                    columns,
                    rows,
                    rows_affected: affected,
                });
                Ok(())
            }
            Stmt::Print(expr) => {
                let v = eval_expr(&ctx, &RowEnv::empty(), expr)?;
                out.messages.push(v.to_string());
                Ok(())
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let truthy = eval_expr(&ctx, &RowEnv::empty(), cond)?.is_truthy();
                if truthy {
                    self.exec_snapshot_stmt(snap, then_branch, session, state, out, depth)?;
                } else if let Some(e) = else_branch {
                    self.exec_snapshot_stmt(snap, e, session, state, out, depth)?;
                }
                Ok(())
            }
            Stmt::While { cond, body } => {
                let mut iterations = 0usize;
                loop {
                    let truthy = eval_expr(&ctx, &RowEnv::empty(), cond)?.is_truthy();
                    if !truthy {
                        break;
                    }
                    iterations += 1;
                    if iterations > self.config.max_while_iterations {
                        return Err(Error::exec(format!(
                            "WHILE exceeded {} iterations",
                            self.config.max_while_iterations
                        )));
                    }
                    self.exec_snapshot_stmt(snap, body, session, state, out, depth)?;
                }
                Ok(())
            }
            Stmt::Block(stmts) => {
                for s in stmts {
                    self.exec_snapshot_stmt(snap, s, session, state, out, depth)?;
                }
                Ok(())
            }
            Stmt::Execute { name } => {
                // The classifier pinned every reachable procedure into the
                // snapshot, so resolution here mirrors the live path.
                let proc = snap
                    .procedure(name, Some(session.prefix()))
                    .ok_or_else(|| Error::NotFound {
                        kind: ObjectKind::Procedure,
                        name: name.clone(),
                    })?
                    .clone();
                // The body is a per-execution clone: its statement addresses
                // are transient, so it must not touch the lowered-plan cache.
                let body_state = ExecState {
                    scope: state.scope.clone(),
                    params: state.params,
                    lowered: None,
                };
                for s in &proc.body {
                    self.exec_snapshot_stmt(snap, s, session, &body_state, out, depth + 1)?;
                }
                Ok(())
            }
            other => Err(Error::exec(format!(
                "internal: statement {other:?} reached the snapshot lane but is not read-pure"
            ))),
        }
    }

    fn exec_stmt(
        &self,
        stmt: &Stmt,
        session: &SessionCtx,
        state: &mut ExecState<'_>,
        out: &mut BatchResult,
        depth: usize,
    ) -> Result<()> {
        if depth > self.config.max_depth {
            return Err(Error::TriggerDepth {
                limit: self.config.max_depth,
            });
        }
        match stmt {
            Stmt::CreateTable { name, columns } => {
                let table = Table::from_defs(name.clone(), columns)?;
                self.db.write().create_table(table)?;
                out.results.push(QueryResult::affected(0));
                Ok(())
            }
            Stmt::DropTable { name } => {
                self.db.write().drop_table(name)?;
                out.results.push(QueryResult::affected(0));
                Ok(())
            }
            Stmt::AlterTableAdd { table, column } => {
                let mut db = self.db.write();
                let key = Self::resolve_in(&db, table, session)?;
                db.table_mut(&key).expect("resolved").add_column(column)?;
                out.results.push(QueryResult::affected(0));
                Ok(())
            }
            Stmt::Insert {
                table,
                columns,
                source,
            } => self.exec_insert(
                table,
                columns.as_deref(),
                source,
                session,
                state,
                out,
                depth,
                stmt as *const Stmt as usize,
            ),
            Stmt::Update {
                table,
                assignments,
                selection,
            } => self.exec_update(
                table,
                assignments,
                selection.as_ref(),
                session,
                state,
                out,
                depth,
                stmt as *const Stmt as usize,
            ),
            Stmt::Delete { table, selection } => self.exec_delete(
                table,
                selection.as_ref(),
                session,
                state,
                out,
                depth,
                stmt as *const Stmt as usize,
            ),
            Stmt::Truncate { table } => {
                let n = {
                    let rd = self.read();
                    let key = Self::resolve_in(&rd.db, table, session)?;
                    let t = rd.db.table(&key).expect("resolved");
                    let mut w = t.write();
                    let n = w.rows().len();
                    w.truncate();
                    n
                };
                out.results.push(QueryResult::affected(n));
                Ok(())
            }
            Stmt::CreateIndex {
                name,
                table,
                column,
                unique,
                hash,
            } => {
                let def = IndexDef {
                    name: name.clone(),
                    column: column.clone(),
                    unique: *unique,
                    kind: if *hash {
                        IndexKind::Hash
                    } else {
                        IndexKind::Ordered
                    },
                };
                self.db
                    .write()
                    .create_index(table, def, Some(session.prefix()))?;
                out.results.push(QueryResult::affected(0));
                Ok(())
            }
            Stmt::DropIndex { name } => {
                self.db.write().drop_index(name)?;
                out.results.push(QueryResult::affected(0));
                Ok(())
            }
            Stmt::Select(sel) => {
                if let Some(into) = &sel.into {
                    let (names, rows, cols) = {
                        let rd = self.read();
                        let lowered = state.lowered;
                        let ctx = rd.ctx(session, state);
                        exec::run_select_exec(&ctx, sel, lowered)?
                    };
                    let mut db = self.db.write();
                    if db.has_table(into) {
                        return Err(Error::AlreadyExists {
                            kind: ObjectKind::Table,
                            name: into.clone(),
                        });
                    }
                    let mut unique = cols;
                    // Disambiguate duplicate output names (e.g. vNo from two
                    // joined tables) by suffixing.
                    let mut seen: Vec<String> = Vec::new();
                    for c in &mut unique {
                        let mut candidate = c.name.to_string();
                        let mut n = 1;
                        while seen.iter().any(|s| s.eq_ignore_ascii_case(&candidate)) {
                            n += 1;
                            candidate = format!("{}{n}", c.name);
                        }
                        if *candidate != *c.name {
                            c.name = Arc::from(candidate.as_str());
                        }
                        seen.push(candidate);
                    }
                    let mut table = Table::new(into.clone(), Schema::new(unique));
                    let n = rows.len();
                    for row in rows {
                        table.insert_row(row)?;
                    }
                    db.create_table(table)?;
                    let _ = names;
                    out.results.push(QueryResult::affected(n));
                } else {
                    let (columns, rows, _) = {
                        let rd = self.read();
                        let lowered = state.lowered;
                        let ctx = rd.ctx(session, state);
                        exec::run_select_exec(&ctx, sel, lowered)?
                    };
                    let affected = rows.len();
                    out.results.push(QueryResult {
                        columns,
                        rows,
                        rows_affected: affected,
                    });
                }
                Ok(())
            }
            Stmt::CreateTrigger {
                name,
                table,
                operation,
                body,
                body_src,
            } => {
                let mut db = self.db.write();
                let table_key = Self::resolve_in(&db, table, session)?;
                db.create_trigger(TriggerDef {
                    name: name.clone(),
                    table_key,
                    operation: *operation,
                    body: body.clone(),
                    body_src: body_src.clone(),
                })?;
                out.results.push(QueryResult::affected(0));
                Ok(())
            }
            Stmt::DropTrigger { name } => {
                self.db.write().drop_trigger(name)?;
                out.results.push(QueryResult::affected(0));
                Ok(())
            }
            Stmt::CreateProcedure {
                name,
                body,
                body_src,
            } => {
                self.db.write().create_procedure(ProcedureDef {
                    name: name.clone(),
                    body: body.clone(),
                    body_src: body_src.clone(),
                })?;
                out.results.push(QueryResult::affected(0));
                Ok(())
            }
            Stmt::DropProcedure { name } => {
                self.db.write().drop_procedure(name)?;
                out.results.push(QueryResult::affected(0));
                Ok(())
            }
            Stmt::Execute { name } => {
                let proc = {
                    let db = self.db.read_recursive();
                    db.procedure(name, Some(session.prefix()))
                        .ok_or_else(|| Error::NotFound {
                            kind: ObjectKind::Procedure,
                            name: name.clone(),
                        })?
                        .clone()
                };
                // The body is a per-execution clone: its statement addresses
                // are transient, so it must not touch the lowered-plan cache
                // (a later allocation could reuse an address and collide).
                let saved = state.lowered.take();
                let result = (|| {
                    for s in &proc.body {
                        self.exec_stmt(s, session, state, out, depth + 1)?;
                    }
                    Ok(())
                })();
                state.lowered = saved;
                result
            }
            Stmt::Print(expr) => {
                let v = {
                    let rd = self.read();
                    let ctx = rd.ctx(session, state);
                    eval_expr(&ctx, &RowEnv::empty(), expr)?
                };
                out.messages.push(v.to_string());
                Ok(())
            }
            Stmt::BeginTran => {
                let mut tx = self.outbox.tx.lock();
                if tx.is_some() {
                    return Err(Error::Transaction {
                        msg: "nested transactions are not supported".into(),
                    });
                }
                *tx = Some(OpenTx {
                    pre_image: self.db.read_recursive().clone(),
                    held: Vec::new(),
                });
                self.outbox.open.store(true, AtomicOrdering::Release);
                Ok(())
            }
            Stmt::Commit | Stmt::Rollback => {
                let commit = matches!(stmt, Stmt::Commit);
                let verb = if commit { "COMMIT" } else { "ROLLBACK" };
                let tx = {
                    let mut tx = self.outbox.tx.lock();
                    self.outbox.open.store(false, AtomicOrdering::Release);
                    tx.take()
                };
                let tx = tx.ok_or_else(|| Error::Transaction {
                    msg: format!("{verb} without BEGIN TRAN"),
                })?;
                if !commit {
                    // Explicit and recovery's implicit ROLLBACK: restore the
                    // pre-image; the held datagrams drop with `tx`.
                    *self.db.write() = tx.pre_image;
                } else if let Some(sink) = self.outbox.sink.read().clone() {
                    tx.held.into_iter().for_each(|d| sink.send(d));
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let truthy = {
                    let rd = self.read();
                    let ctx = rd.ctx(session, state);
                    eval_expr(&ctx, &RowEnv::empty(), cond)?.is_truthy()
                };
                if truthy {
                    self.exec_stmt(then_branch, session, state, out, depth)?;
                } else if let Some(e) = else_branch {
                    self.exec_stmt(e, session, state, out, depth)?;
                }
                Ok(())
            }
            Stmt::While { cond, body } => {
                let mut iterations = 0usize;
                loop {
                    let truthy = {
                        let rd = self.read();
                        let ctx = rd.ctx(session, state);
                        eval_expr(&ctx, &RowEnv::empty(), cond)?.is_truthy()
                    };
                    if !truthy {
                        break;
                    }
                    iterations += 1;
                    if iterations > self.config.max_while_iterations {
                        return Err(Error::exec(format!(
                            "WHILE exceeded {} iterations",
                            self.config.max_while_iterations
                        )));
                    }
                    self.exec_stmt(body, session, state, out, depth)?;
                }
                Ok(())
            }
            Stmt::Block(stmts) => {
                for s in stmts {
                    self.exec_stmt(s, session, state, out, depth)?;
                }
                Ok(())
            }
        }
    }

    fn resolve_in(db: &Database, name: &str, session: &SessionCtx) -> Result<String> {
        // Pseudo-tables can never be DML'd into by name in this engine.
        db.resolve_table_key(name, Some(session.prefix()))
            .ok_or_else(|| Error::NotFound {
                kind: ObjectKind::Table,
                name: name.to_string(),
            })
    }

    /// Row positions a single-table UPDATE/DELETE must examine, in ascending
    /// (scan) order. When the WHERE clause is sargable on an indexed column
    /// the candidates come from an index probe — a *superset* of the matching
    /// rows; the caller still evaluates the full predicate on each.
    fn dml_candidates(
        &self,
        t: &Table,
        set: &IndexSet,
        row_count: usize,
        selection: Option<&crate::ast::Expr>,
        session: &SessionCtx,
        params: &[Value],
    ) -> Vec<usize> {
        let slots = [SlotMeta {
            alias: None,
            table_name: &t.name,
            schema: &t.schema,
        }];
        let p = plan::plan(selection, &slots, &[set], &[row_count], session, params);
        let candidates = p
            .levels
            .first()
            .and_then(|(_, access)| plan::static_candidates(access, set));
        let out = match candidates {
            Some(positions) => {
                self.counters
                    .index_hits
                    .fetch_add(1, AtomicOrdering::Relaxed);
                positions
            }
            None => {
                self.counters
                    .index_misses
                    .fetch_add(1, AtomicOrdering::Relaxed);
                (0..row_count).collect()
            }
        };
        self.counters
            .rows_scanned
            .fetch_add(out.len() as u64, AtomicOrdering::Relaxed);
        out
    }

    #[allow(clippy::too_many_arguments)]
    #[allow(clippy::too_many_arguments)]
    fn exec_insert(
        &self,
        table: &str,
        columns: Option<&[String]>,
        source: &InsertSource,
        session: &SessionCtx,
        state: &mut ExecState<'_>,
        out: &mut BatchResult,
        depth: usize,
        stmt_key: usize,
    ) -> Result<()> {
        // `INSERT inserted/deleted` is nonsense we reject early.
        if table.eq_ignore_ascii_case("inserted") || table.eq_ignore_ascii_case("deleted") {
            return Err(Error::exec("cannot modify trigger pseudo-tables"));
        }
        let (key, checked) = {
            let rd = self.read();
            let key = Self::resolve_in(&rd.db, table, session)?;
            let lowered = state.lowered;
            // Immutable phase: compute the source rows.
            let source_rows: Vec<Row> = {
                let ctx = rd.ctx(session, state);
                match source {
                    InsertSource::Values(rows) => {
                        match exec::plan_insert(&ctx, lowered, stmt_key, rows) {
                            Some(ci) => exec::eval_insert_rows(&ctx, &ci)?,
                            None => {
                                let env = RowEnv::empty();
                                let mut acc = Vec::with_capacity(rows.len());
                                for exprs in rows {
                                    let mut row = Vec::with_capacity(exprs.len());
                                    for e in exprs {
                                        row.push(eval_expr(&ctx, &env, e)?);
                                    }
                                    acc.push(row);
                                }
                                acc
                            }
                        }
                    }
                    InsertSource::Select(sel) => exec::run_select_exec(&ctx, sel, lowered)?.1,
                }
            };
            let t = rd.db.table(&key).expect("resolved");
            // Shape the rows to the full schema.
            let schema = &t.schema;
            let mut shaped = Vec::with_capacity(source_rows.len());
            for row in source_rows {
                let full = match columns {
                    None => row,
                    Some(cols) => {
                        if cols.len() != row.len() {
                            return Err(Error::Shape {
                                msg: format!(
                                    "INSERT lists {} columns but supplies {} values",
                                    cols.len(),
                                    row.len()
                                ),
                            });
                        }
                        let mut full = vec![Value::Null; schema.len()];
                        for (c, v) in cols.iter().zip(row) {
                            let idx = schema.index_of(c).ok_or_else(|| Error::NotFound {
                                kind: ObjectKind::Column,
                                name: c.clone(),
                            })?;
                            full[idx] = v;
                        }
                        full
                    }
                };
                shaped.push(full);
            }
            // Validate all rows before mutating anything (statement
            // atomicity).
            let mut checked = Vec::with_capacity(shaped.len());
            for row in shaped {
                checked.push(t.check_row(row)?);
            }
            // Mutation phase: all row-read guards from the compute phase
            // have been released; the rows write-lock release below
            // happens-before any notification the trigger will enqueue.
            // `append` checks unique indexes before any row lands.
            t.write().append(&checked)?;
            (key, checked)
        };
        out.results.push(QueryResult::affected(checked.len()));
        self.fire_trigger(
            &key,
            TriggerOp::Insert,
            checked,
            Vec::new(),
            session,
            state,
            out,
            depth,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_update(
        &self,
        table: &str,
        assignments: &[(String, crate::ast::Expr)],
        selection: Option<&crate::ast::Expr>,
        session: &SessionCtx,
        state: &mut ExecState<'_>,
        out: &mut BatchResult,
        depth: usize,
        stmt_key: usize,
    ) -> Result<()> {
        if table.eq_ignore_ascii_case("inserted") || table.eq_ignore_ascii_case("deleted") {
            return Err(Error::exec("cannot modify trigger pseudo-tables"));
        }
        let (key, old_rows, new_rows) = {
            let rd = self.read();
            let key = Self::resolve_in(&rd.db, table, session)?;
            let t = rd.db.table(&key).expect("resolved");
            let lowered = state.lowered;
            // Immutable phase: find matching rows and compute replacements.
            // Candidates come from an index probe when the WHERE clause
            // allows it; the full predicate is still evaluated per candidate.
            let mut updates: Vec<(usize, Row)> = Vec::new();
            let mut old_rows = Vec::new();
            let mut new_rows = Vec::new();
            {
                let ctx = rd.ctx(session, state);
                let rows = t.rows();
                let set = t.index_set();
                let candidates =
                    self.dml_candidates(t, &set, rows.len(), selection, session, state.params);
                match exec::plan_update(&ctx, lowered, stmt_key, t, assignments, selection) {
                    Some(cu) => {
                        let (u, o, n) =
                            exec::run_update_compiled(&ctx, &cu, t, &rows, &candidates)?;
                        updates = u;
                        old_rows = o;
                        new_rows = n;
                    }
                    None => {
                        for i in candidates {
                            let row = &rows[i];
                            let env = RowEnv {
                                frames: vec![Frame {
                                    alias: None,
                                    table_name: t.name.clone(),
                                    schema: &t.schema,
                                    row,
                                }],
                                parent: None,
                            };
                            let matches = match selection {
                                Some(cond) => eval_expr(&ctx, &env, cond)?.is_truthy(),
                                None => true,
                            };
                            if !matches {
                                continue;
                            }
                            let mut new_row = row.clone();
                            for (col, e) in assignments {
                                let idx =
                                    t.schema.index_of(col).ok_or_else(|| Error::NotFound {
                                        kind: ObjectKind::Column,
                                        name: col.clone(),
                                    })?;
                                new_row[idx] = eval_expr(&ctx, &env, e)?;
                            }
                            let new_row = t.check_row(new_row)?;
                            old_rows.push(row.clone());
                            new_rows.push(new_row.clone());
                            updates.push((i, new_row));
                        }
                    }
                }
            }
            t.write().apply_updates(&updates)?;
            (key, old_rows, new_rows)
        };
        out.results.push(QueryResult::affected(new_rows.len()));
        self.fire_trigger(
            &key,
            TriggerOp::Update,
            new_rows,
            old_rows,
            session,
            state,
            out,
            depth,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_delete(
        &self,
        table: &str,
        selection: Option<&crate::ast::Expr>,
        session: &SessionCtx,
        state: &mut ExecState<'_>,
        out: &mut BatchResult,
        depth: usize,
        stmt_key: usize,
    ) -> Result<()> {
        if table.eq_ignore_ascii_case("inserted") || table.eq_ignore_ascii_case("deleted") {
            return Err(Error::exec("cannot modify trigger pseudo-tables"));
        }
        let (key, removed) = {
            let rd = self.read();
            let key = Self::resolve_in(&rd.db, table, session)?;
            let t = rd.db.table(&key).expect("resolved");
            let lowered = state.lowered;
            let mut doomed = Vec::new();
            {
                let ctx = rd.ctx(session, state);
                let rows = t.rows();
                let set = t.index_set();
                let candidates =
                    self.dml_candidates(t, &set, rows.len(), selection, session, state.params);
                match exec::plan_delete(&ctx, lowered, stmt_key, t, selection) {
                    Some(cd) => {
                        doomed = exec::run_delete_compiled(&ctx, &cd, &rows, &candidates)?;
                    }
                    None => {
                        for i in candidates {
                            let row = &rows[i];
                            let env = RowEnv {
                                frames: vec![Frame {
                                    alias: None,
                                    table_name: t.name.clone(),
                                    schema: &t.schema,
                                    row,
                                }],
                                parent: None,
                            };
                            let matches = match selection {
                                Some(cond) => eval_expr(&ctx, &env, cond)?.is_truthy(),
                                None => true,
                            };
                            if matches {
                                doomed.push(i);
                            }
                        }
                    }
                }
            }
            let removed: Vec<Row> = {
                let mut w = t.write();
                let removed = doomed.iter().map(|&i| w.rows()[i].clone()).collect();
                w.delete(&doomed);
                removed
            };
            (key, removed)
        };
        out.results.push(QueryResult::affected(removed.len()));
        self.fire_trigger(
            &key,
            TriggerOp::Delete,
            Vec::new(),
            removed,
            session,
            state,
            out,
            depth,
        )
    }

    /// Fire the native trigger for (table, op), if any. Statement-level:
    /// fires once per statement even when zero rows were affected, matching
    /// Sybase. Called only after the triggering statement's mutation is
    /// fully visible (its rows write-lock has been released), so any
    /// `syb_sendmsg` the body evaluates is ordered after row visibility.
    #[allow(clippy::too_many_arguments)]
    fn fire_trigger(
        &self,
        table_key: &str,
        op: TriggerOp,
        inserted: Vec<Row>,
        deleted: Vec<Row>,
        session: &SessionCtx,
        state: &mut ExecState<'_>,
        out: &mut BatchResult,
        depth: usize,
    ) -> Result<()> {
        if !self.config.fire_triggers {
            return Ok(());
        }
        let (def, schema) = {
            let db = self.db.read_recursive();
            match db.trigger_for(table_key, op) {
                Some(d) => {
                    let schema = db.table(table_key).expect("table exists").schema.clone();
                    (d.clone(), schema)
                }
                None => return Ok(()),
            }
        };
        if depth + 1 > self.config.max_depth {
            return Err(Error::TriggerDepth {
                limit: self.config.max_depth,
            });
        }
        state.scope.push(PseudoFrame {
            inserted: Table::with_rows("inserted", schema.clone(), inserted),
            deleted: Table::with_rows("deleted", schema, deleted),
        });
        let result = (|| {
            for s in &def.body {
                self.exec_stmt(s, session, state, out, depth + 1)?;
            }
            Ok(())
        })();
        state.scope.pop();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> (Engine, SessionCtx) {
        (Engine::new(), SessionCtx::new("sentineldb", "sharma"))
    }

    fn run(e: &mut Engine, s: &SessionCtx, sql: &str) -> BatchResult {
        e.execute(sql, s)
            .unwrap_or_else(|err| panic!("{sql}: {err}"))
    }

    #[test]
    fn create_insert_select_roundtrip() {
        let (mut e, s) = engine();
        run(
            &mut e,
            &s,
            "create table stock (symbol varchar(10), price float)",
        );
        run(
            &mut e,
            &s,
            "insert stock values ('IBM', 100.0), ('HP', 50.5)",
        );
        let r = run(
            &mut e,
            &s,
            "select symbol, price from stock order by symbol",
        );
        let sel = r.last_select().unwrap();
        let names: Vec<&str> = sel.columns.iter().map(|c| &**c).collect();
        assert_eq!(names, ["symbol", "price"]);
        assert_eq!(sel.rows.len(), 2);
        assert_eq!(sel.rows[0][0], Value::Str("HP".into()));
    }

    #[test]
    fn where_filters() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table t (a int, b int)");
        run(&mut e, &s, "insert t values (1, 10), (2, 20), (3, 30)");
        let r = run(&mut e, &s, "select a from t where b >= 20");
        assert_eq!(r.last_select().unwrap().rows.len(), 2);
    }

    #[test]
    fn update_and_delete() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table t (a int, b int)");
        run(&mut e, &s, "insert t values (1, 10), (2, 20)");
        let r = run(&mut e, &s, "update t set b = b + 1 where a = 1");
        assert_eq!(r.total_affected(), 1);
        let r = run(&mut e, &s, "select b from t where a = 1");
        assert_eq!(r.scalar(), Some(&Value::Int(11)));
        let r = run(&mut e, &s, "delete t where a = 2");
        assert_eq!(r.total_affected(), 1);
        let r = run(&mut e, &s, "select count(*) from t");
        assert_eq!(r.scalar(), Some(&Value::Int(1)));
    }

    #[test]
    fn select_into_clones_schema_with_zero_rows() {
        // The Figure 11 idiom.
        let (mut e, s) = engine();
        run(
            &mut e,
            &s,
            "create table stock (symbol varchar(10), price float)",
        );
        run(&mut e, &s, "insert stock values ('IBM', 1.0)");
        run(
            &mut e,
            &s,
            "select * into sentineldb.sharma.stock_inserted from stock where 1=2",
        );
        run(
            &mut e,
            &s,
            "alter table sentineldb.sharma.stock_inserted add vNo int null",
        );
        let db = e.database();
        let t = db.table("sentineldb.sharma.stock_inserted").unwrap();
        assert_eq!(t.schema.len(), 3);
        assert_eq!(t.row_count(), 0);
        assert_eq!(&*t.schema.columns[2].name, "vNo");
    }

    #[test]
    fn insert_select_star_from_join() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table a (x int)");
        run(&mut e, &s, "create table v (vno int)");
        run(&mut e, &s, "create table shadow (x int, vno int)");
        run(&mut e, &s, "insert a values (1), (2)");
        run(&mut e, &s, "insert v values (7)");
        run(&mut e, &s, "insert shadow select * from a, v");
        let r = run(&mut e, &s, "select x, vno from shadow order by x");
        let sel = r.last_select().unwrap();
        assert_eq!(
            sel.rows,
            vec![
                vec![Value::Int(1), Value::Int(7)],
                vec![Value::Int(2), Value::Int(7)],
            ]
        );
    }

    #[test]
    fn native_trigger_fires_and_sees_inserted() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table t (a int)");
        run(&mut e, &s, "create table log (a int)");
        run(
            &mut e,
            &s,
            "create trigger tr on t for insert as insert log select * from inserted print 'fired'",
        );
        let r = run(&mut e, &s, "insert t values (5), (6)");
        assert_eq!(r.messages, vec!["fired"]);
        let r = run(&mut e, &s, "select count(*) from log");
        assert_eq!(r.scalar(), Some(&Value::Int(2)));
    }

    #[test]
    fn update_trigger_sees_old_and_new() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table t (a int)");
        run(&mut e, &s, "create table log (old_a int, new_a int)");
        run(&mut e, &s, "insert t values (1)");
        run(
            &mut e,
            &s,
            "create trigger tr on t for update as insert log select deleted.a, inserted.a from deleted, inserted",
        );
        run(&mut e, &s, "update t set a = 9");
        let r = run(&mut e, &s, "select old_a, new_a from log");
        assert_eq!(
            r.last_select().unwrap().rows[0],
            vec![Value::Int(1), Value::Int(9)]
        );
    }

    #[test]
    fn delete_trigger_sees_deleted() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table t (a int)");
        run(&mut e, &s, "create table log (a int)");
        run(&mut e, &s, "insert t values (1), (2)");
        run(
            &mut e,
            &s,
            "create trigger tr on t for delete as insert log select a from deleted",
        );
        run(&mut e, &s, "delete t where a = 1");
        let r = run(&mut e, &s, "select a from log");
        assert_eq!(r.last_select().unwrap().rows, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn trigger_fires_even_for_zero_rows() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table t (a int)");
        run(
            &mut e,
            &s,
            "create trigger tr on t for delete as print 'statement trigger'",
        );
        let r = run(&mut e, &s, "delete t where a = 999");
        assert_eq!(r.messages, vec!["statement trigger"]);
    }

    #[test]
    fn trigger_nesting_limit() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table t (a int)");
        // Self-recursive trigger: insert into t fires the trigger, which
        // inserts into t again.
        run(
            &mut e,
            &s,
            "create trigger tr on t for insert as insert t values (1)",
        );
        let err = e.execute("insert t values (0)", &s).unwrap_err();
        assert!(matches!(err, Error::TriggerDepth { .. }));
    }

    #[test]
    fn procedure_execute() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table t (a int)");
        run(
            &mut e,
            &s,
            "create procedure addone as insert t values (1) print 'done'",
        );
        let r = run(&mut e, &s, "execute addone");
        assert_eq!(r.messages, vec!["done"]);
        let r = run(&mut e, &s, "exec addone");
        assert_eq!(r.messages, vec!["done"]);
        let r = run(&mut e, &s, "select count(*) from t");
        assert_eq!(r.scalar(), Some(&Value::Int(2)));
    }

    #[test]
    fn session_prefix_resolution() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table sentineldb.sharma.stock (a int)");
        run(&mut e, &s, "insert stock values (1)");
        let r = run(&mut e, &s, "select a from sentineldb.sharma.stock");
        assert_eq!(r.scalar(), Some(&Value::Int(1)));
    }

    #[test]
    fn getdate_is_monotonic() {
        let (mut e, s) = engine();
        let r1 = run(&mut e, &s, "select getdate()");
        let r2 = run(&mut e, &s, "select getdate()");
        match (r1.scalar(), r2.scalar()) {
            (Some(Value::DateTime(a)), Some(Value::DateTime(b))) => assert!(b > a),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sendmsg_posts_to_sink() {
        use crate::notify::CollectingSink;
        let (mut e, s) = engine();
        let sink = CollectingSink::new();
        e.set_sink(sink.clone());
        run(
            &mut e,
            &s,
            "select syb_sendmsg('128.227.205.215', 10006, 'hello agent')",
        );
        let got = sink.take();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].port, 10006);
        assert_eq!(got[0].payload, "hello agent");
    }

    #[test]
    fn open_transaction_holds_its_datagrams_until_commit() {
        use crate::notify::CollectingSink;
        let (mut e, s) = engine();
        let sink = CollectingSink::new();
        e.set_sink(sink.clone());
        let send = |n: i64| format!("select syb_sendmsg('h', 1, 'm{n}')");
        run(&mut e, &s, &format!("begin tran {}", send(1)));
        run(&mut e, &s, &send(2));
        assert!(sink.is_empty(), "nothing leaves an open transaction");
        run(&mut e, &s, "commit");
        let got = sink.take();
        let payloads: Vec<&str> = got.iter().map(|d| d.payload.as_str()).collect();
        assert_eq!(payloads, ["m1", "m2"]);
        assert!(got[0].seq < got[1].seq, "posted in seq order");

        run(&mut e, &s, &format!("begin tran {} rollback", send(3)));
        assert!(sink.is_empty(), "a rolled-back datagram is never posted");
        run(&mut e, &s, &send(4));
        assert_eq!(sink.take()[0].payload, "m4", "autocommit posts at once");
    }

    #[test]
    fn sendmsg_without_sink_is_noop() {
        let (mut e, s) = engine();
        let r = run(&mut e, &s, "select syb_sendmsg('h', 1, 'x')");
        assert_eq!(r.scalar(), Some(&Value::Int(0)));
    }

    #[test]
    fn transactions_rollback() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table t (a int)");
        run(&mut e, &s, "insert t values (1)");
        run(&mut e, &s, "begin tran insert t values (2) rollback");
        let r = run(&mut e, &s, "select count(*) from t");
        assert_eq!(r.scalar(), Some(&Value::Int(1)));
        run(&mut e, &s, "begin tran insert t values (2) commit");
        let r = run(&mut e, &s, "select count(*) from t");
        assert_eq!(r.scalar(), Some(&Value::Int(2)));
    }

    #[test]
    fn transaction_errors() {
        let (mut e, s) = engine();
        assert!(e.execute("commit", &s).is_err());
        assert!(e.execute("rollback", &s).is_err());
        run(&mut e, &s, "begin tran");
        assert!(e.execute("begin tran", &s).is_err());
    }

    #[test]
    fn if_and_while() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table t (a int)");
        run(
            &mut e,
            &s,
            "while (select count(*) from t) < 3 insert t values (1)",
        );
        let r = run(&mut e, &s, "select count(*) from t");
        assert_eq!(r.scalar(), Some(&Value::Int(3)));
        let r = run(
            &mut e,
            &s,
            "if (select count(*) from t) = 3 print 'three' else print 'not three'",
        );
        assert_eq!(r.messages, vec!["three"]);
    }

    #[test]
    fn while_iteration_guard() {
        let (mut e, s) = engine();
        let cfg = EngineConfig {
            max_while_iterations: 10,
            ..EngineConfig::default()
        };
        let mut e2 = Engine::with_config(cfg);
        run(&mut e2, &s, "create table t (a int)");
        assert!(e2.execute("while 1 = 1 insert t values (1)", &s).is_err());
        let _ = &mut e;
    }

    #[test]
    fn group_by_and_having() {
        let (mut e, s) = engine();
        run(
            &mut e,
            &s,
            "create table trades (symbol varchar(8), qty int)",
        );
        run(
            &mut e,
            &s,
            "insert trades values ('IBM', 10), ('IBM', 20), ('HP', 5)",
        );
        let r = run(
            &mut e,
            &s,
            "select symbol, sum(qty) total from trades group by symbol having count(*) > 1",
        );
        let sel = r.last_select().unwrap();
        assert_eq!(sel.rows.len(), 1);
        assert_eq!(sel.rows[0], vec![Value::Str("IBM".into()), Value::Int(30)]);
    }

    #[test]
    fn aggregates_over_empty_table() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table t (a int)");
        let r = run(
            &mut e,
            &s,
            "select count(*), sum(a), avg(a), min(a), max(a) from t",
        );
        let row = &r.last_select().unwrap().rows[0];
        assert_eq!(row[0], Value::Int(0));
        assert!(row[1].is_null());
        assert!(row[2].is_null());
    }

    #[test]
    fn distinct_and_order_desc() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table t (a int)");
        run(&mut e, &s, "insert t values (2), (1), (2), (3)");
        let r = run(&mut e, &s, "select distinct a from t order by a desc");
        let rows: Vec<i64> = r
            .last_select()
            .unwrap()
            .rows
            .iter()
            .map(|r| match r[0] {
                Value::Int(i) => i,
                _ => panic!(),
            })
            .collect();
        assert_eq!(rows, vec![3, 2, 1]);
    }

    #[test]
    fn exists_and_scalar_subquery() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table t (a int)");
        run(&mut e, &s, "insert t values (1), (2)");
        let r = run(
            &mut e,
            &s,
            "select a from t where exists (select * from t where a = 2) order by a",
        );
        assert_eq!(r.last_select().unwrap().rows.len(), 2);
        let r = run(
            &mut e,
            &s,
            "select a from t where a = (select max(a) from t)",
        );
        assert_eq!(r.scalar(), Some(&Value::Int(2)));
    }

    #[test]
    fn ambiguous_column_is_an_error() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table a (x int)");
        run(&mut e, &s, "create table b (x int)");
        run(&mut e, &s, "insert a values (1)");
        run(&mut e, &s, "insert b values (2)");
        let err = e.execute("select x from a, b", &s).unwrap_err();
        assert!(err.to_string().contains("ambiguous"), "{err}");
        // Qualification resolves it.
        let r = run(&mut e, &s, "select a.x from a, b");
        assert_eq!(r.scalar(), Some(&Value::Int(1)));
    }

    #[test]
    fn wildcard_with_group_by_rejected() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table t (a int)");
        run(&mut e, &s, "insert t values (1)");
        assert!(e.execute("select * from t group by a", &s).is_err());
    }

    #[test]
    fn order_by_ordinal_out_of_range() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table t (a int)");
        run(&mut e, &s, "insert t values (1)");
        assert!(e.execute("select a from t order by 2", &s).is_err());
        assert!(e.execute("select a from t order by 0", &s).is_err());
    }

    #[test]
    fn unknown_function_reports_name() {
        let (e, s) = engine();
        let err = e.execute("select frobnicate(1)", &s).unwrap_err();
        assert!(err.to_string().contains("frobnicate"), "{err}");
    }

    #[test]
    fn scalar_subquery_cardinality_errors() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table t (a int, b int)");
        run(&mut e, &s, "insert t values (1, 1), (2, 2)");
        // Too many rows.
        let err = e
            .execute("select 1 where 1 = (select a from t)", &s)
            .unwrap_err();
        assert!(err.to_string().contains("rows"), "{err}");
        // Too many columns.
        let err = e
            .execute("select 1 where 1 = (select a, b from t where a = 1)", &s)
            .unwrap_err();
        assert!(err.to_string().contains("column"), "{err}");
        // Empty result is NULL (filters everything out, no error).
        let r = run(
            &mut e,
            &s,
            "select count(*) from t where a = (select a from t where a = 99)",
        );
        assert_eq!(r.scalar(), Some(&Value::Int(0)));
    }

    #[test]
    fn empty_from_select_evaluates_expressions() {
        let (mut e, s) = engine();
        let r = run(&mut e, &s, "select 1 + 2, 'a' + 'b', 10 / 4, 10.0 / 4");
        let row = &r.last_select().unwrap().rows[0];
        assert_eq!(row[0], Value::Int(3));
        assert_eq!(row[1], Value::Str("ab".into()));
        assert_eq!(row[2], Value::Int(2), "integer division truncates");
        assert_eq!(row[3], Value::Float(2.5));
    }

    #[test]
    fn correlated_subquery_sees_outer_row() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table dept (id int, name varchar(10))");
        run(&mut e, &s, "create table emp (dept_id int, salary int)");
        run(&mut e, &s, "insert dept values (1, 'eng'), (2, 'ops')");
        run(&mut e, &s, "insert emp values (1, 100), (1, 200), (2, 50)");
        let r = run(
            &mut e,
            &s,
            "select name from dept \
             where (select sum(salary) from emp where emp.dept_id = dept.id) > 150",
        );
        assert_eq!(r.scalar(), Some(&Value::Str("eng".into())));
    }

    #[test]
    fn correlated_exists() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table a (x int)");
        run(&mut e, &s, "create table b (x int)");
        run(&mut e, &s, "insert a values (1), (2), (3)");
        run(&mut e, &s, "insert b values (2), (3)");
        let r = run(
            &mut e,
            &s,
            "select a.x from a where exists (select * from b where b.x = a.x) order by x",
        );
        assert_eq!(
            r.last_select().unwrap().rows,
            vec![vec![Value::Int(2)], vec![Value::Int(3)]]
        );
        // NOT EXISTS via `not`.
        let r = run(
            &mut e,
            &s,
            "select a.x from a where not exists (select * from b where b.x = a.x)",
        );
        assert_eq!(r.scalar(), Some(&Value::Int(1)));
    }

    #[test]
    fn inner_frame_shadows_outer_in_subquery() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table t (x int)");
        run(&mut e, &s, "insert t values (1), (2)");
        // Unqualified `x` inside the subquery binds to the inner t, so the
        // subquery is uncorrelated and returns max over all rows.
        let r = run(
            &mut e,
            &s,
            "select count(*) from t where x = (select max(x) from t)",
        );
        assert_eq!(r.scalar(), Some(&Value::Int(1)));
    }

    #[test]
    fn batch_go_separators() {
        let (mut e, s) = engine();
        let r = run(
            &mut e,
            &s,
            "create table t (a int)\ngo\ninsert t values (1)\ngo\nselect a from t\n",
        );
        assert_eq!(r.scalar(), Some(&Value::Int(1)));
    }

    #[test]
    fn error_stops_execution() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table t (a int)");
        let err = e
            .execute("insert t values (1) insert nosuch values (2)", &s)
            .unwrap_err();
        assert!(matches!(err, Error::NotFound { .. }));
        // First insert persisted (no implicit transaction).
        let r = run(&mut e, &s, "select count(*) from t");
        assert_eq!(r.scalar(), Some(&Value::Int(1)));
    }

    #[test]
    fn cannot_modify_pseudo_tables() {
        let (e, s) = engine();
        assert!(e.execute("insert inserted values (1)", &s).is_err());
        assert!(e.execute("delete deleted", &s).is_err());
        assert!(e.execute("update inserted set a = 1", &s).is_err());
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table t (a int, b int, c varchar(5))");
        run(&mut e, &s, "insert t (c, a) values ('x', 1)");
        let r = run(&mut e, &s, "select a, b, c from t");
        let row = &r.last_select().unwrap().rows[0];
        assert_eq!(row[0], Value::Int(1));
        assert!(row[1].is_null());
        assert_eq!(row[2], Value::Str("x".into()));
    }

    #[test]
    fn insert_atomicity_on_bad_row() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table t (a int not null)");
        let err = e.execute("insert t values (1), (null)", &s).unwrap_err();
        assert!(matches!(err, Error::Constraint { .. }));
        let r = run(&mut e, &s, "select count(*) from t");
        assert_eq!(r.scalar(), Some(&Value::Int(0)), "no partial insert");
    }

    #[test]
    fn fire_triggers_can_be_disabled() {
        let s = SessionCtx::new("db", "u");
        let cfg = EngineConfig {
            fire_triggers: false,
            ..EngineConfig::default()
        };
        let mut e = Engine::with_config(cfg);
        run(&mut e, &s, "create table t (a int)");
        run(&mut e, &s, "create trigger tr on t for insert as print 'x'");
        let r = run(&mut e, &s, "insert t values (1)");
        assert!(r.messages.is_empty());
    }

    #[test]
    fn print_expression() {
        let (mut e, s) = engine();
        let r = run(&mut e, &s, "print 'a' + 'b'");
        assert_eq!(r.messages, vec!["ab"]);
    }

    #[test]
    fn db_and_user_name_builtins() {
        let (mut e, s) = engine();
        let r = run(&mut e, &s, "select db_name(), user_name()");
        let row = &r.last_select().unwrap().rows[0];
        assert_eq!(row[0], Value::Str("sentineldb".into()));
        assert_eq!(row[1], Value::Str("sharma".into()));
    }

    #[test]
    fn comma_join_with_where() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table a (x int)");
        run(&mut e, &s, "create table b (x int, y varchar(5))");
        run(&mut e, &s, "insert a values (1), (2)");
        run(&mut e, &s, "insert b values (1, 'one'), (2, 'two')");
        let r = run(
            &mut e,
            &s,
            "select b.y from a, b where a.x = b.x and a.x = 2",
        );
        assert_eq!(r.scalar(), Some(&Value::Str("two".into())));
    }

    #[test]
    fn select_into_duplicate_column_names_get_suffixed() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table a (v int)");
        run(&mut e, &s, "create table b (v int)");
        run(&mut e, &s, "insert a values (1)");
        run(&mut e, &s, "insert b values (2)");
        run(&mut e, &s, "select * into c from a, b");
        let db = e.database();
        let t = db.table("c").unwrap();
        assert_eq!(&*t.schema.columns[0].name, "v");
        assert_eq!(&*t.schema.columns[1].name, "v2");
    }

    #[test]
    fn truncate_does_not_fire_triggers() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table t (a int)");
        run(&mut e, &s, "insert t values (1)");
        run(&mut e, &s, "create trigger tr on t for delete as print 'x'");
        let r = run(&mut e, &s, "truncate table t");
        assert!(r.messages.is_empty());
        assert_eq!(r.total_affected(), 1);
    }

    #[test]
    fn create_index_ddl_and_point_lookup() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table t (a int, b varchar(5))");
        run(&mut e, &s, "insert t values (1, 'x'), (2, 'y'), (3, 'z')");
        run(&mut e, &s, "create index ix_a on t (a)");
        let misses_before = e.metrics()["index_misses"];
        let hits_before = e.metrics()["index_hits"];
        let r = run(&mut e, &s, "select b from t where a = 2");
        assert_eq!(r.scalar(), Some(&Value::Str("y".into())));
        assert!(
            e.metrics()["index_hits"] > hits_before,
            "probe counted as hit"
        );
        assert_eq!(e.metrics()["index_misses"], misses_before);
        // Range probe through the ordered index.
        let r = run(&mut e, &s, "select count(*) from t where a between 2 and 3");
        assert_eq!(r.scalar(), Some(&Value::Int(2)));
        run(&mut e, &s, "drop index ix_a");
        let misses_before = e.metrics()["index_misses"];
        let r = run(&mut e, &s, "select b from t where a = 2");
        assert_eq!(r.scalar(), Some(&Value::Str("y".into())));
        assert!(
            e.metrics()["index_misses"] > misses_before,
            "back to scanning"
        );
        assert!(e.execute("drop index ix_a", &s).is_err(), "already gone");
    }

    #[test]
    fn unique_index_rejects_duplicates_via_sql() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table t (a int, b int)");
        run(&mut e, &s, "insert t values (1, 10)");
        run(&mut e, &s, "create unique hash index ux_a on t (a)");
        let err = e.execute("insert t values (1, 99)", &s).unwrap_err();
        assert!(matches!(err, Error::Constraint { .. }), "{err}");
        let r = run(&mut e, &s, "select count(*) from t");
        assert_eq!(r.scalar(), Some(&Value::Int(1)), "no partial insert");
        // UPDATE into a collision is rejected too ...
        run(&mut e, &s, "insert t values (2, 20)");
        let err = e.execute("update t set a = 1 where a = 2", &s).unwrap_err();
        assert!(matches!(err, Error::Constraint { .. }), "{err}");
        // ... but an update that vacates and reuses a key within the same
        // statement is fine.
        run(&mut e, &s, "update t set a = a + 10");
        let r = run(&mut e, &s, "select count(*) from t where a = 11");
        assert_eq!(r.scalar(), Some(&Value::Int(1)));
    }

    #[test]
    fn create_unique_index_on_duplicate_data_fails() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table t (a int)");
        run(&mut e, &s, "insert t values (1), (1)");
        let err = e
            .execute("create unique index ux on t (a)", &s)
            .unwrap_err();
        assert!(matches!(err, Error::Constraint { .. }), "{err}");
        // The failed index was not installed.
        run(&mut e, &s, "create index ux on t (a)");
    }

    #[test]
    fn indexed_update_and_delete_match_scan_semantics() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table t (a int, b int)");
        run(&mut e, &s, "insert t values (1, 1), (2, 2), (3, 3), (2, 4)");
        run(&mut e, &s, "create index ix on t (a)");
        let r = run(&mut e, &s, "update t set b = 0 where a = 2");
        assert_eq!(r.total_affected(), 2);
        let r = run(&mut e, &s, "delete t where a = 2");
        assert_eq!(r.total_affected(), 2);
        let r = run(&mut e, &s, "select a from t order by a");
        assert_eq!(
            r.last_select().unwrap().rows,
            vec![vec![Value::Int(1)], vec![Value::Int(3)]]
        );
    }

    #[test]
    fn index_survives_transaction_rollback() {
        let (mut e, s) = engine();
        run(&mut e, &s, "create table t (a int)");
        run(&mut e, &s, "create index ix on t (a)");
        run(&mut e, &s, "insert t values (1)");
        run(&mut e, &s, "begin tran insert t values (2) rollback");
        // The snapshot restore must leave a consistent index: the probe
        // below must not see the rolled-back row.
        let r = run(&mut e, &s, "select count(*) from t where a = 2");
        assert_eq!(r.scalar(), Some(&Value::Int(0)));
        let r = run(&mut e, &s, "select count(*) from t where a = 1");
        assert_eq!(r.scalar(), Some(&Value::Int(1)));
    }

    #[test]
    fn params_bind_in_run_stmts() {
        let (e, s) = engine();
        e.execute("create table t (a int, b varchar(5))", &s)
            .unwrap();
        // Simulate what the plan cache does: parse a masked batch and run
        // it twice with different bindings.
        let masked = crate::parser::parse_script("insert t values (0, '')").unwrap();
        let stmts: Vec<Stmt> = masked
            .into_iter()
            .map(|st| match st {
                Stmt::Insert { table, columns, .. } => Stmt::Insert {
                    table,
                    columns,
                    source: InsertSource::Values(vec![vec![
                        crate::ast::Expr::Param(0),
                        crate::ast::Expr::Param(1),
                    ]]),
                },
                other => other,
            })
            .collect();
        let mut out = BatchResult::default();
        e.run_stmts(
            &stmts,
            &[Value::Int(1), Value::Str("one".into())],
            &s,
            &mut out,
        )
        .unwrap();
        e.run_stmts(
            &stmts,
            &[Value::Int(2), Value::Str("two".into())],
            &s,
            &mut out,
        )
        .unwrap();
        let r = e.execute("select a, b from t order by a", &s).unwrap();
        let sel = r.last_select().unwrap();
        assert_eq!(
            sel.rows,
            vec![
                vec![Value::Int(1), Value::Str("one".into())],
                vec![Value::Int(2), Value::Str("two".into())],
            ]
        );
        // Unbound parameter is a hard error, not silent NULL.
        let mut out = BatchResult::default();
        assert!(e.run_stmts(&stmts, &[Value::Int(9)], &s, &mut out).is_err());
    }
}
