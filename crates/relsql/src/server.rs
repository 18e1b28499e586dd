//! The server layer: thread-safe sessions over a shared engine, with a
//! per-table lock scheduler and a statement-plan cache.
//!
//! This plays the role of Sybase's Open Server / TDS stack: clients (and the
//! ECA Agent's internal threads) hold [`Session`]s that submit language
//! batches and get tabular results back. The [`SqlEndpoint`] trait is the
//! seam the agent's Gateway Open Server is generic over.
//!
//! ## Scheduling model
//!
//! Earlier versions serialized every batch through one `Mutex<Engine>`. The
//! server now schedules batches by their typed classification
//! ([`crate::footprint::BatchPlan`]):
//!
//! 1. Every batch first takes the global `schedule` lock in **read** mode,
//!    which freezes the catalog (DDL needs the write side), making the
//!    classification and the trigger set stable while the batch is admitted.
//! 2. **Read-pure** batches take the lock-free MVCC lane: they pin the
//!    *published* version of every table in their read set (an
//!    epoch-consistent [`DbSnapshot`] of `Arc`-shared versions — see
//!    `Table::pinned`), drop the schedule guard, and execute with zero
//!    lock-manager interaction. Writers publish new versions at batch end
//!    inside a seqlock-style epoch window (odd = swap in progress) that a
//!    dedicated mutex serializes — one publication window at a time, even
//!    for batches on disjoint tables — so a multi-table pin retries the
//!    nanoseconds-long window instead of ever observing half a
//!    publication. Sessions flagged
//!    [`SessionCtx::live_reads`] (agent internals reacting to mid-batch
//!    datagrams) opt out and read live rows under lock scheduling.
//! 3. **Effectful** batches acquire their `requirements ∪ effects` tables'
//!    locks from the [`LockManager`] in one atomic all-or-nothing step
//!    (no hold-and-wait, hence no deadlock) and run concurrently with any
//!    batch touching disjoint tables. Because a DML batch's write set
//!    includes every table its native triggers touch — the shadow
//!    `_inserted`/`_deleted` tables and the `_ver` version counters —
//!    same-event batches stay strictly serial, preserving Sybase trigger
//!    firing order and vNo sequencing. At batch end, still holding the
//!    table locks, the batch publishes new versions of its write set.
//! 4. **Barrier** batches — DDL, transaction control, anything the
//!    analysis cannot resolve — run under the **write** side of
//!    `schedule`: alone, after all in-flight readers drain — exactly the
//!    old fully-serialized behaviour — and republish every table on exit.
//!
//! ## Plan cache
//!
//! [`PlanCache`] memoizes `parse_script` output keyed on the batch's token
//! shape: literals are masked to parameters, so `insert t values (1)` and
//! `insert t values (2)` share one parsed plan and bind their literals at
//! execution time ([`crate::ast::Expr::Param`]). Batches containing
//! plan-shape-sensitive keywords (DDL, transactions, `ORDER BY` ordinals,
//! `SELECT INTO`) fall back to exact-text entries. The cache is invalidated
//! (epoch bump) whenever a batch mutates the catalog.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::sync::{Condvar, Mutex, RwLock};

use crate::ast::Stmt;
use crate::catalog::Database;
use crate::clock::LogicalClock;
use crate::engine::{BatchResult, Engine, EngineConfig};
use crate::error::{Error, Result};
use crate::eval::SessionCtx;
use crate::exec::LoweredCache;
use crate::footprint::{BatchClass, BatchPlan};
use crate::lexer::{split_batches, tokenize, Token, TokenKind};
use crate::metrics::Metrics;
use crate::notify::NotificationSink;
use crate::parser::{parse_script, parse_script_with_tokens};
use crate::storage::{FsStorage, Storage};
use crate::value::Value;
use crate::wal::{
    decode_snapshot, encode_record, encode_snapshot, scan_wal, DurabilityConfig, Wal, WalCounters,
    WalTail, SNAPSHOT_FILE, WAL_FILE,
};

/// Anything that can execute SQL on behalf of a session: a real server, the
/// ECA Agent (which proxies to one), or a test double.
pub trait SqlEndpoint: Send + Sync {
    fn execute(&self, sql: &str, session: &SessionCtx) -> Result<BatchResult>;
}

// ---------------------------------------------------------------------------
// Per-table lock manager
// ---------------------------------------------------------------------------

/// Grants all-or-nothing groups of per-table locks.
///
/// A batch declares its full footprint up front and blocks until *every*
/// table in it is free, then takes them all under one mutex acquisition.
/// Because no waiter ever holds part of its group while waiting for the
/// rest, the classic hold-and-wait deadlock condition cannot arise,
/// regardless of acquisition order (the `BTreeSet` footprint additionally
/// gives a canonical order for anyone reasoning about the schedule).
struct LockManager {
    held: Mutex<HashSet<String>>,
    freed: Condvar,
    /// Number of acquisitions that had to block at least once.
    waits: AtomicU64,
}

impl LockManager {
    fn new() -> Arc<Self> {
        Arc::new(LockManager {
            held: Mutex::new(HashSet::new()),
            freed: Condvar::new(),
            waits: AtomicU64::new(0),
        })
    }

    fn acquire(self: &Arc<Self>, tables: BTreeSet<String>) -> TableLocks {
        let mut held = self.held.lock();
        let mut counted = false;
        while tables.iter().any(|t| held.contains(t)) {
            if !counted {
                self.waits.fetch_add(1, Ordering::Relaxed);
                counted = true;
            }
            self.freed.wait(&mut held);
        }
        for t in &tables {
            held.insert(t.clone());
        }
        drop(held);
        TableLocks {
            mgr: Arc::clone(self),
            tables,
        }
    }
}

/// RAII group of table locks; releasing wakes all waiters so they can
/// re-check their (possibly overlapping) footprints.
struct TableLocks {
    mgr: Arc<LockManager>,
    tables: BTreeSet<String>,
}

impl Drop for TableLocks {
    fn drop(&mut self) {
        let mut held = self.mgr.held.lock();
        for t in &self.tables {
            held.remove(t);
        }
        drop(held);
        self.mgr.freed.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Statement-plan cache
// ---------------------------------------------------------------------------

/// Keywords that make a batch's plan shape depend on literal values or on
/// the catalog in ways masking would corrupt: DDL bodies are sliced from the
/// source text, `varchar(N)` and `ORDER BY <ordinal>` consume integer
/// tokens structurally, and transaction control must never share a plan
/// entry with anything. Such batches are cached by exact text instead.
const BARRIER_KEYWORDS: &[&str] = &[
    "create", "drop", "alter", "truncate", "begin", "commit", "rollback", "order", "into",
];

struct CachedPlan {
    stmts: Arc<Vec<Stmt>>,
    /// Lowered physical plans for `stmts`, keyed by statement address —
    /// valid precisely as long as it travels with the same `Arc<Vec<Stmt>>`,
    /// which is why the two never separate.
    lowered: Arc<LoweredCache>,
    epoch: u64,
    last_used: u64,
}

/// LRU cache of parsed batch plans with epoch-based DDL invalidation.
struct PlanCache {
    entries: Mutex<HashMap<String, CachedPlan>>,
    epoch: AtomicU64,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    capacity: usize,
}

/// A planned batch: the (possibly shared) parsed statements plus the literal
/// values masked out of this particular batch text, to be bound as
/// parameters at execution time.
struct Planned {
    stmts: Arc<Vec<Stmt>>,
    params: Vec<Value>,
    /// The lowered-plan cache paired with `stmts` (fresh and unshared when
    /// the batch missed the plan cache).
    lowered: Arc<LoweredCache>,
}

impl PlanCache {
    fn new(capacity: usize) -> Self {
        PlanCache {
            entries: Mutex::new(HashMap::new()),
            epoch: AtomicU64::new(0),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            capacity,
        }
    }

    /// Drop every cached plan (logically): entries from earlier epochs are
    /// treated as misses and replaced on next use.
    fn invalidate(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    fn lookup(&self, key: &str) -> Option<(Arc<Vec<Stmt>>, Arc<LoweredCache>)> {
        let epoch = self.epoch.load(Ordering::SeqCst);
        let mut entries = self.entries.lock();
        match entries.get_mut(key) {
            Some(e) if e.epoch == epoch => {
                e.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some((Arc::clone(&e.stmts), Arc::clone(&e.lowered)))
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn insert(&self, key: String, stmts: Arc<Vec<Stmt>>, lowered: Arc<LoweredCache>) {
        let epoch = self.epoch.load(Ordering::SeqCst);
        let mut entries = self.entries.lock();
        if entries.len() >= self.capacity && !entries.contains_key(&key) {
            // O(n) LRU eviction — the cache is small and eviction rare.
            if let Some(victim) = entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                entries.remove(&victim);
            }
        }
        entries.insert(
            key,
            CachedPlan {
                stmts,
                lowered,
                epoch,
                last_used: self.tick.fetch_add(1, Ordering::Relaxed),
            },
        );
    }

    /// Parse `batch` through the cache. Parse errors propagate and are never
    /// cached.
    fn plan(&self, batch: &str) -> Result<Planned> {
        let Ok(tokens) = tokenize(batch) else {
            // Let the parser surface the lexer's error uncached.
            return parse_script(batch).map(|s| Planned {
                stmts: Arc::new(s),
                params: Vec::new(),
                lowered: Arc::new(LoweredCache::default()),
            });
        };
        let barrier = tokens.iter().any(|t| {
            matches!(&t.kind, TokenKind::Ident(s)
                if BARRIER_KEYWORDS.iter().any(|k| s.eq_ignore_ascii_case(k)))
        });
        if !barrier {
            let (key, masked, params) = mask(batch, &tokens);
            if let Some((stmts, lowered)) = self.lookup(&key) {
                return Ok(Planned {
                    stmts,
                    params,
                    lowered,
                });
            }
            if let Ok(stmts) = parse_script_with_tokens(batch, masked) {
                let stmts = Arc::new(stmts);
                let lowered = Arc::new(LoweredCache::default());
                self.insert(key, Arc::clone(&stmts), Arc::clone(&lowered));
                return Ok(Planned {
                    stmts,
                    params,
                    lowered,
                });
            }
            // Masked parse failed (a literal was structural after all):
            // count the lookup back out and fall through to the exact path.
            self.misses.fetch_sub(1, Ordering::Relaxed);
        }
        let key = format!("={batch}");
        if let Some((stmts, lowered)) = self.lookup(&key) {
            return Ok(Planned {
                stmts,
                params: Vec::new(),
                lowered,
            });
        }
        let stmts = Arc::new(parse_script(batch)?);
        let lowered = Arc::new(LoweredCache::default());
        self.insert(key, Arc::clone(&stmts), Arc::clone(&lowered));
        Ok(Planned {
            stmts,
            params: Vec::new(),
            lowered,
        })
    }
}

/// Mask literal tokens to parameters, producing the cache key, the masked
/// token stream, and the extracted parameter values (in token order).
fn mask(batch: &str, tokens: &[Token]) -> (String, Vec<Token>, Vec<Value>) {
    let mut params = Vec::new();
    let mut masked = Vec::with_capacity(tokens.len());
    let mut key = String::with_capacity(batch.len().min(256) + 1);
    key.push('?'); // namespace masked keys away from "=<text>" exact keys
    for t in tokens {
        let kind = match &t.kind {
            TokenKind::Int(v) => {
                params.push(Value::Int(*v));
                TokenKind::Param(params.len() - 1)
            }
            TokenKind::Float(v) => {
                params.push(Value::Float(*v));
                TokenKind::Param(params.len() - 1)
            }
            TokenKind::Str(s) => {
                params.push(Value::Str(s.clone()));
                TokenKind::Param(params.len() - 1)
            }
            other => other.clone(),
        };
        push_key_fragment(&mut key, &kind);
        masked.push(Token { kind, pos: t.pos });
    }
    (key, masked, params)
}

fn push_key_fragment(key: &mut String, kind: &TokenKind) {
    match kind {
        TokenKind::Ident(s) => {
            for ch in s.chars() {
                key.push(ch.to_ascii_lowercase());
            }
        }
        TokenKind::Param(_) => key.push('?'),
        TokenKind::Int(_) | TokenKind::Float(_) | TokenKind::Str(_) => {
            unreachable!("literals are masked before key rendering")
        }
        TokenKind::LParen => key.push('('),
        TokenKind::RParen => key.push(')'),
        TokenKind::Comma => key.push(','),
        TokenKind::Dot => key.push('.'),
        TokenKind::Semi => key.push(';'),
        TokenKind::Star => key.push('*'),
        TokenKind::Plus => key.push('+'),
        TokenKind::Minus => key.push('-'),
        TokenKind::Slash => key.push('/'),
        TokenKind::Percent => key.push('%'),
        TokenKind::Eq => key.push('='),
        TokenKind::Neq => key.push_str("!="),
        TokenKind::Lt => key.push('<'),
        TokenKind::Le => key.push_str("<="),
        TokenKind::Gt => key.push('>'),
        TokenKind::Ge => key.push_str(">="),
        TokenKind::Caret => key.push('^'),
        TokenKind::Pipe => key.push('|'),
        TokenKind::LBracket => key.push('['),
        TokenKind::RBracket => key.push(']'),
        TokenKind::DoubleColon => key.push_str("::"),
        TokenKind::Colon => key.push(':'),
        TokenKind::Eof => {}
    }
    key.push(' ');
}

/// Does this batch mutate the catalog (or restore an older one), requiring
/// plan-cache invalidation?
fn mutates_catalog(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::CreateTable { .. }
        | Stmt::DropTable { .. }
        | Stmt::AlterTableAdd { .. }
        | Stmt::CreateTrigger { .. }
        | Stmt::DropTrigger { .. }
        | Stmt::CreateProcedure { .. }
        | Stmt::DropProcedure { .. }
        | Stmt::CreateIndex { .. }
        | Stmt::DropIndex { .. }
        | Stmt::Rollback => true,
        Stmt::Select(sel) => sel.into.is_some(),
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            mutates_catalog(std::slice::from_ref(then_branch))
                || else_branch
                    .as_deref()
                    .is_some_and(|e| mutates_catalog(std::slice::from_ref(e)))
        }
        Stmt::While { body, .. } => mutates_catalog(std::slice::from_ref(body)),
        Stmt::Block(inner) => mutates_catalog(inner),
        _ => false,
    })
}

/// Can this batch change engine state? Only batches that can are logged to
/// the WAL (and forced through the exclusive schedule in durable mode).
/// Plain SELECTs and PRINT cannot; procedure calls are conservatively
/// treated as mutating because we don't analyze their bodies here.
fn is_readonly(stmts: &[Stmt]) -> bool {
    stmts.iter().all(|s| match s {
        Stmt::Select(sel) => sel.into.is_none(),
        Stmt::Print(_) => true,
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            is_readonly(std::slice::from_ref(then_branch))
                && else_branch
                    .as_deref()
                    .is_none_or(|e| is_readonly(std::slice::from_ref(e)))
        }
        Stmt::While { body, .. } => is_readonly(std::slice::from_ref(body)),
        Stmt::Block(inner) => is_readonly(inner),
        _ => false,
    })
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// A point-in-time, lock-free view of the database.
///
/// Obtained from [`SqlServer::snapshot`] (live rows, statement-consistent
/// per table — the replacement for read-only [`SqlServer::inspect`] use)
/// or pinned internally by the MVCC read lane (published versions,
/// batch-consistent). Holding one blocks nothing: tables inside share
/// `Arc`s with the server and stay valid indefinitely, simply growing
/// stale as writers move on.
pub struct DbSnapshot {
    db: Database,
    epoch: u64,
}

impl DbSnapshot {
    /// The pinned catalog: query tables, schemas, and procedures freely —
    /// no server locks are held.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The publish-epoch reading at pin time, rounded down to the last
    /// *closed* publication window (always even). Monotonic across the
    /// server's lifetime.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// A thread-safe SQL server wrapping one shared [`Engine`].
///
/// Read-pure batches execute lock-free against published MVCC versions;
/// batches on disjoint table footprints execute in parallel; DDL and
/// transactions run exclusively (see the module docs for the full
/// scheduling model).
pub struct SqlServer {
    engine: Engine,
    clock: Arc<LogicalClock>,
    /// Read side: a footprint-scheduled batch (stable catalog). Write side:
    /// an exclusive batch (DDL / transactions / unresolvable footprint).
    schedule: RwLock<()>,
    locks: Arc<LockManager>,
    plans: PlanCache,
    /// Seqlock-style publication epoch: odd while a writer is swapping
    /// published table versions, even otherwise. Snapshot pins retry the
    /// (nanoseconds-long) odd window so multi-table publication is atomic
    /// to readers.
    publish_epoch: AtomicU64,
    /// Serializes publication windows. A seqlock tolerates only one writer
    /// at a time, but two effectful batches on disjoint tables both hold
    /// the schedule *read* lock and reach publication concurrently — their
    /// interleaved epoch increments would sum to even while both windows
    /// were still open, letting a pin capture a torn multi-table state.
    /// Every `publish_epoch` transition happens under this mutex.
    publish_lock: Mutex<()>,
    counters: ServerCounters,
    /// Footprint-scheduled batches currently inside the engine.
    inflight: AtomicU64,
    /// Present when the server was opened over storage ([`Self::open`]):
    /// mutating batches append to this log before results are acknowledged.
    wal: Option<Wal>,
}

crate::counters! {
    /// The server's own session and scheduling counters; [`SqlServer::metrics`]
    /// adds the plan cache, lock manager, engine and WAL readings.
    struct ServerCounters("server") {
        /// Sessions handed out so far; doubles as the session id source.
        sql_sessions_opened,
        /// Statement batches executed (all sessions, including internal ones).
        statements,
        /// Effectful batches scheduled concurrently under per-table locks.
        /// Read-pure batches count in `snapshot_reads` instead, so
        /// `batches_parallel` + `batches_exclusive` means *writes*, except
        /// live-read batches from `SessionCtx::live_reads` sessions, which
        /// still lock-schedule by design.
        batches_parallel,
        /// Batches that ran exclusively (DDL, transactions, unresolvable).
        batches_exclusive,
        /// Read-pure batches served lock-free from pinned MVCC snapshots.
        snapshot_reads,
        /// Highest number of footprint-scheduled batches observed executing
        /// simultaneously. Values >= 2 prove the scheduler genuinely
        /// overlapped disjoint-table work, evidence independent of
        /// wall-clock speedup, which a single-CPU host cannot express.
        batches_inflight_peak,
    }
}

impl SqlServer {
    pub fn new() -> Arc<Self> {
        Self::with_config(EngineConfig::default())
    }

    pub fn with_config(config: EngineConfig) -> Arc<Self> {
        Arc::new(Self::assemble(Engine::with_config(config), None))
    }

    fn assemble(engine: Engine, wal: Option<Wal>) -> Self {
        SqlServer {
            clock: engine.clock(),
            engine,
            schedule: RwLock::new(()),
            locks: LockManager::new(),
            plans: PlanCache::new(1024),
            publish_epoch: AtomicU64::new(0),
            publish_lock: Mutex::new(()),
            counters: ServerCounters::default(),
            inflight: AtomicU64::new(0),
            wal,
        }
    }

    /// Open (or create) a durable server rooted at `dir`: recover from the
    /// newest snapshot + WAL, then log every mutating batch before
    /// acknowledging it.
    pub fn open(
        dir: impl AsRef<std::path::Path>,
        durability: DurabilityConfig,
    ) -> Result<Arc<Self>> {
        let storage = FsStorage::open(dir.as_ref().to_path_buf())?;
        Self::open_with_storage(storage, durability, EngineConfig::default())
    }

    /// [`Self::open`] over an arbitrary [`Storage`] — the seam the
    /// fault-injection tests use (`FaultyStorage`).
    ///
    /// Recovery: restore the snapshot (if any), scan the WAL accepting the
    /// longest valid prefix, replay it, and trim a torn tail back to the
    /// crash boundary. Damage *before* the last valid record fails the open
    /// loudly — silently dropping committed work is never an option.
    pub fn open_with_storage(
        storage: Arc<dyn Storage>,
        durability: DurabilityConfig,
        config: EngineConfig,
    ) -> Result<Arc<Self>> {
        let engine = Engine::with_config(config);
        let clock = engine.clock();

        let mut snap_seq = 0u64;
        if let Some(bytes) = storage.load(SNAPSHOT_FILE)? {
            let (db, snap_clock, last_seq) = decode_snapshot(&bytes)?;
            engine.restore_database(db);
            clock.set(snap_clock);
            snap_seq = last_seq;
        }

        let wal_bytes = storage.load(WAL_FILE)?.unwrap_or_default();
        let scan = scan_wal(&wal_bytes);
        if let WalTail::Corrupt { at } = scan.tail {
            return Err(Error::Io {
                msg: format!(
                    "WAL corrupt at byte {at}: valid records follow a damaged one; \
                     refusing to silently drop committed work"
                ),
            });
        }
        // Records at or below the snapshot's high-water mark are already in
        // the restored state: a crash between the checkpoint's snapshot
        // replace and its WAL truncation leaves them on disk, and replaying
        // them would apply every batch twice.
        let mut replayed = 0u64;
        for r in &scan.records {
            if r.seq <= snap_seq {
                continue;
            }
            // Re-seed the clock so getdate() reproduces the original
            // timestamps, then replay the batch verbatim. Errors are
            // deliberately ignored: a batch that failed live fails replaying
            // with the same partial effects (no implicit transaction).
            clock.set(r.clock);
            let _ = engine.execute(&r.sql, &SessionCtx::new(&r.db, &r.user));
            replayed += 1;
        }
        if engine.in_tx() {
            // The crash implicitly rolled back whatever transaction was open.
            let ctx = scan
                .records
                .last()
                .map(|r| SessionCtx::new(&r.db, &r.user))
                .unwrap_or_else(|| SessionCtx::new("master", "recovery"));
            engine.execute("rollback", &ctx)?;
        }

        let torn = matches!(scan.tail, WalTail::Torn { .. });
        let skipped = scan.records.len() as u64 - replayed;
        let mut wal_len = wal_bytes.len() as u64;
        if torn || scan.duplicates_skipped > 0 || skipped > 0 {
            // Rewrite the log as the canonical accepted suffix so the next
            // append lands after well-formed bytes. Dropping snapshot-covered
            // records also finishes the truncation an interrupted checkpoint
            // never got to.
            let mut canonical = Vec::with_capacity(scan.valid_len as usize);
            for r in scan.records.iter().filter(|r| r.seq > snap_seq) {
                canonical.extend(encode_record(
                    r.seq,
                    r.clock,
                    &SessionCtx::new(&r.db, &r.user),
                    &r.sql,
                ));
            }
            storage.replace(WAL_FILE, &canonical)?;
            wal_len = canonical.len() as u64;
        }
        let next_seq = scan
            .records
            .last()
            .map(|r| r.seq + 1)
            .unwrap_or(1)
            .max(snap_seq + 1);

        let wal = Wal::new(storage, durability, next_seq, wal_len);
        wal.counters
            .wal_records_replayed
            .store(replayed, Ordering::Relaxed);
        wal.counters
            .wal_torn_tail
            .store(torn as u64, Ordering::Relaxed);

        let server = Self::assemble(engine, Some(wal));
        // Recovery replayed through the raw engine, which never publishes;
        // seed the MVCC read lane with the recovered state before any
        // session can pin a snapshot.
        server.publish_all_tables();
        Ok(Arc::new(server))
    }

    /// True when the server logs to a WAL (opened via [`Self::open`]).
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// True when a storage failure has degraded the server to read-only.
    pub fn is_read_only(&self) -> bool {
        self.wal.as_ref().is_some_and(|w| w.is_read_only())
    }

    /// Snapshot the engine and truncate the WAL. Errors inside an open
    /// transaction (the snapshot would capture uncommitted state) and on
    /// non-durable servers.
    pub fn checkpoint(&self) -> Result<()> {
        let wal = self.wal.as_ref().ok_or_else(|| {
            Error::exec("checkpoint requires a durable server (opened with a data dir)")
        })?;
        let _excl = self.schedule.write();
        if self.engine.in_tx() {
            return Err(Error::Transaction {
                msg: "cannot checkpoint inside an open transaction".into(),
            });
        }
        self.checkpoint_locked(wal)
    }

    /// Write the snapshot + truncate the log. Caller holds the exclusive
    /// schedule lock and has verified no transaction is open.
    fn checkpoint_locked(&self, wal: &Wal) -> Result<()> {
        // Stamp the snapshot with the WAL high-water mark so recovery can
        // skip records the snapshot already contains — the crash window
        // between the snapshot replace and the WAL truncation (or a
        // truncation that fails outright) must not double-replay.
        let snapshot = {
            let db = self.engine.database();
            encode_snapshot(&db, self.clock.peek(), wal.last_seq())
        };
        wal.checkpoint(&snapshot)
    }

    /// Register the notification sink used by `syb_sendmsg()`.
    pub fn set_sink(&self, sink: Arc<dyn NotificationSink>) {
        self.engine.set_sink(sink);
    }

    /// The engine's logical clock (shared, lock-free).
    pub fn clock(&self) -> Arc<LogicalClock> {
        Arc::clone(&self.clock)
    }

    /// Open a session with the given database/user identity. Each session
    /// gets a server-unique id, usable as a wire-protocol session handle.
    pub fn session(self: &Arc<Self>, database: &str, user: &str) -> Session {
        let id = self
            .counters
            .sql_sessions_opened
            .fetch_add(1, Ordering::Relaxed)
            + 1;
        Session {
            server: Arc::clone(self),
            ctx: SessionCtx::new(database, user),
            id,
        }
    }

    /// Every counter of the server and the layers under it: sessions and
    /// scheduling, plan cache, lock waits, executor and WAL (all zero
    /// without a data dir).
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        self.counters.read_into(&mut m);
        m.push(
            "server",
            "plan_cache_hits",
            self.plans.hits.load(Ordering::Relaxed),
        );
        m.push(
            "server",
            "plan_cache_misses",
            self.plans.misses.load(Ordering::Relaxed),
        );
        m.push(
            "server",
            "lock_waits",
            self.locks.waits.load(Ordering::Relaxed),
        );
        // Publication-epoch reading, two ticks per version-publishing
        // batch. A racy sample may land inside an open (odd) window: round
        // down to the last closed one so parity stays meaningful.
        m.push(
            "server",
            "snapshot_epoch",
            self.publish_epoch.load(Ordering::Relaxed) & !1,
        );
        m.append(self.engine.metrics());
        match &self.wal {
            Some(wal) => wal.counters.read_into(&mut m),
            None => WalCounters::default().read_into(&mut m),
        }
        m
    }

    /// Run a closure over one live table's rows under its recursive read
    /// lock. Returns `None` when the table does not exist.
    ///
    /// Unlike [`Self::snapshot`] this sees *live* (unpublished) rows and
    /// takes no clones, so it is safe from notification sinks running on
    /// the emitting session's thread — the recursive read lock cannot
    /// self-deadlock against row guards that thread already holds.
    pub fn with_table_rows<R>(
        &self,
        table: &str,
        f: impl FnOnce(&[crate::table::Row]) -> R,
    ) -> Option<R> {
        let db = self.engine.database();
        let t = db.table(table)?;
        let rows = t.rows();
        Some(f(&rows))
    }

    /// A point-in-time snapshot of the **live** database: every table is
    /// cloned copy-on-write (O(1) per table, `Arc` bumps only) under the
    /// catalog read guard, then all locks are released. This is the public
    /// read API replacing read-only [`SqlServer::inspect`] uses.
    ///
    /// Live, not published: the snapshot includes rows written by batches
    /// that have executed but not yet published their versions, and an
    /// open transaction's uncommitted rows ([`Self::committed_database`]
    /// leaves those out). Each table is statement-consistent; the set as a
    /// whole is not a serialization point (same contract `inspect` had).
    pub fn snapshot(&self) -> DbSnapshot {
        let db = self.engine.database().clone();
        DbSnapshot {
            db,
            // Racy sample (this pin does not synchronize with publication);
            // round down so the reported epoch is always a closed window.
            epoch: self.publish_epoch.load(Ordering::Acquire) & !1,
        }
    }

    /// The open transaction's pre-image (also what is published), or else
    /// the live catalog, as [`Self::snapshot`] pins it.
    pub fn committed_database(&self) -> Database {
        self.engine.committed_database()
    }

    /// Pin an epoch-consistent snapshot of a read-pure plan's footprint:
    /// published table versions plus the procedure definitions the batch
    /// executes. Retries while a publication window is open (odd epoch) or
    /// a publication landed mid-pin, so the pinned set is always a single
    /// moment's published state.
    ///
    /// `None` means either a table or procedure vanished since
    /// classification — impossible while the caller holds the schedule
    /// read guard (DDL needs the write side) — or the retry bound was
    /// exhausted because publications kept landing mid-pin (or a
    /// publisher sat preempted inside its window). Both degrade to lock
    /// scheduling, which is always correct.
    fn pin_published(&self, plan: &BatchPlan) -> Option<DbSnapshot> {
        // Windows are nanoseconds long, so a handful of spins normally
        // suffices; past that the publisher was likely descheduled, so
        // yield the core to it instead of burning a full CPU under the
        // schedule read lock — and past the hard bound, give up.
        const SPINS_BEFORE_YIELD: u32 = 64;
        const MAX_TRIES: u32 = 4096;
        let mut tries = 0u32;
        let backoff = |tries: u32| {
            if tries < SPINS_BEFORE_YIELD {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        };
        loop {
            let e1 = self.publish_epoch.load(Ordering::Acquire);
            if e1 & 1 == 1 {
                tries += 1;
                if tries >= MAX_TRIES {
                    return None;
                }
                backoff(tries);
                continue;
            }
            let snap = {
                let db = self.engine.database();
                db.pin_published(&plan.requirements.tables, &plan.procedures)?
            };
            let e2 = self.publish_epoch.load(Ordering::Acquire);
            if e1 == e2 {
                return Some(DbSnapshot {
                    db: snap,
                    epoch: e2,
                });
            }
            // A publication landed mid-pin; counts toward the bound too.
            tries += 1;
            if tries >= MAX_TRIES {
                return None;
            }
            backoff(tries);
        }
    }

    /// Publish new versions of `tables` inside one epoch window. Called at
    /// effectful-batch end while the batch still holds its table locks, so
    /// the captured states are batch-consistent and no concurrent writer
    /// of the same tables can republish them mid-window. Concurrent
    /// batches on *disjoint* tables do reach here simultaneously, so the
    /// whole window runs under `publish_lock` — the seqlock epoch needs a
    /// single writer for its parity to mean "window open".
    fn publish_tables(&self, tables: &BTreeSet<String>) {
        if tables.is_empty() {
            return;
        }
        let db = self.engine.database();
        let _window = self.publish_lock.lock();
        self.publish_epoch.fetch_add(1, Ordering::AcqRel);
        for key in tables {
            if let Some(t) = db.table(key) {
                t.publish();
            }
        }
        self.publish_epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Publish every table — barrier-batch exit (DDL, transaction end,
    /// recovery), where the precise write set is unknown. Caller holds the
    /// exclusive schedule lock (or is pre-service, during open); the
    /// window still takes `publish_lock` so epoch parity stays
    /// single-writer everywhere.
    fn publish_all_tables(&self) {
        let db = self.engine.database();
        let _window = self.publish_lock.lock();
        self.publish_epoch.fetch_add(1, Ordering::AcqRel);
        db.publish_all();
        self.publish_epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Schedule and run one planned batch.
    fn run_batch(
        &self,
        batch: &str,
        planned: &Planned,
        session: &SessionCtx,
        out: &mut BatchResult,
    ) -> Result<()> {
        // Durable servers force every loggable batch through the exclusive
        // schedule: WAL order then *is* execution order, which is what makes
        // serial replay reproduce concurrent history (and lets each record
        // stamp the logical-clock reading its batch actually saw).
        let log_durably = self.wal.is_some() && !is_readonly(&planned.stmts);
        let sched = self.schedule.read();
        // An open transaction owns the whole database snapshot, so anything
        // running inside it — reads included, which must see the
        // uncommitted state — serializes; classification otherwise decides.
        // `in_tx` cannot flip under us: BEGIN TRAN is a barrier and needs
        // the schedule write lock we are blocking.
        let plan = if self.engine.in_tx() {
            None
        } else {
            let db = self.engine.database();
            Some(BatchPlan::derive(&db, &planned.stmts, session))
        };
        match plan {
            // MVCC read lane: pin the published versions of the read set
            // under the schedule guard (so no DDL is mid-flight), then drop
            // it — execution holds no server locks at all and blocks
            // neither writers nor DDL. A read-pure batch is never WAL-
            // logged even on a durable server: it has no effects to replay.
            Some(plan) if plan.class == BatchClass::ReadPure && !session.live_reads => {
                if let Some(snap) = self.pin_published(&plan) {
                    drop(sched);
                    self.counters.snapshot_reads.fetch_add(1, Ordering::Relaxed);
                    return self.engine.run_snapshot_stmts_with(
                        snap.database(),
                        &planned.stmts,
                        &planned.params,
                        session,
                        out,
                        Some(&planned.lowered),
                    );
                }
                // A missed pin means the catalog changed since
                // classification (which the schedule guard rules out) or
                // publication churn exhausted the retry bound — either
                // way, degrade to lock scheduling rather than spin or
                // panic.
                self.run_under_table_locks(&plan, planned, session, out)
            }
            Some(plan) if plan.class != BatchClass::Barrier && !log_durably => {
                self.run_under_table_locks(&plan, planned, session, out)
            }
            // Barrier, open transaction, or durable write: exclusive lane.
            _ => {
                drop(sched);
                let excl = self.schedule.write();
                // The admission plan was derived under the read guard we
                // just released; another barrier batch (say CREATE TRIGGER
                // on one of our targets) can run in that gap and grow the
                // write set our triggers touch. Re-derive now that the
                // catalog is frozen by the write lock, so the publication
                // below covers what this batch actually writes.
                let plan = if self.engine.in_tx() {
                    None
                } else {
                    let db = self.engine.database();
                    Some(BatchPlan::derive(&db, &planned.stmts, session))
                };
                self.counters
                    .batches_exclusive
                    .fetch_add(1, Ordering::Relaxed);
                let mut commit_seq = None;
                if log_durably {
                    let wal = self.wal.as_ref().expect("log_durably implies wal");
                    // Log before executing: if the append fails (read-only
                    // degradation) no state changes and the client sees Io.
                    commit_seq = Some(wal.append(self.clock.peek(), session, batch)?);
                }
                let r = self.engine.run_stmts_with(
                    &planned.stmts,
                    &planned.params,
                    session,
                    out,
                    Some(&planned.lowered),
                );
                if mutates_catalog(&planned.stmts) {
                    self.plans.invalidate();
                }
                if let Some(wal) = &self.wal {
                    if wal.wants_checkpoint() && !self.engine.in_tx() {
                        // Best-effort: a failure poisons the WAL (read-only)
                        // but the batch itself already executed and is
                        // covered by the log it was appended to.
                        let _ = self.checkpoint_locked(wal);
                    }
                }
                // Publish before releasing the schedule lock — a later
                // exclusive batch must not be able to interleave its own
                // mid-execution state into what we capture. Never publish
                // while a transaction is open: uncommitted state must stay
                // invisible to the snapshot lane until COMMIT (or be
                // discarded by ROLLBACK), whose own batch republishes.
                if !self.engine.in_tx() {
                    match &plan {
                        Some(p) if p.class != BatchClass::Barrier => {
                            self.publish_tables(&p.effects.tables)
                        }
                        _ => self.publish_all_tables(),
                    }
                }
                drop(excl);
                if let Some(seq) = commit_seq {
                    // Wait for durability *after* releasing the schedule so
                    // queued batches can share the fsync (group commit). A
                    // sync failure outranks an execution error: the client
                    // must not treat unsynced state as acknowledged.
                    self.wal
                        .as_ref()
                        .expect("commit_seq implies wal")
                        .commit(seq)?;
                }
                r
            }
        }
    }

    /// The effectful lane: all-or-nothing per-table lock group over
    /// `requirements ∪ effects`, then publication of the write set while
    /// the locks are still held.
    fn run_under_table_locks(
        &self,
        plan: &BatchPlan,
        planned: &Planned,
        session: &SessionCtx,
        out: &mut BatchResult,
    ) -> Result<()> {
        self.counters
            .batches_parallel
            .fetch_add(1, Ordering::Relaxed);
        let _locks = self.locks.acquire(plan.lock_tables());
        let now = self.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        self.counters
            .batches_inflight_peak
            .fetch_max(now, Ordering::Relaxed);
        let r = self.engine.run_stmts_with(
            &planned.stmts,
            &planned.params,
            session,
            out,
            Some(&planned.lowered),
        );
        // Publish even when `r` is an error: without an explicit
        // transaction, earlier statements' effects persist (real-server
        // semantics), and the snapshot lane must see them.
        self.publish_tables(&plan.effects.tables);
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        r
    }
}

impl SqlEndpoint for SqlServer {
    fn execute(&self, sql: &str, session: &SessionCtx) -> Result<BatchResult> {
        self.counters.statements.fetch_add(1, Ordering::Relaxed);
        let mut out = BatchResult::default();
        for batch in split_batches(sql) {
            let planned = self.plans.plan(batch)?;
            if planned.stmts.is_empty() {
                continue;
            }
            self.run_batch(batch, &planned, session, &mut out)?;
        }
        Ok(out)
    }
}

/// A client connection bound to a database/user identity.
#[derive(Clone)]
pub struct Session {
    server: Arc<SqlServer>,
    ctx: SessionCtx,
    id: u64,
}

impl Session {
    pub fn execute(&self, sql: &str) -> Result<BatchResult> {
        self.server.execute(sql, &self.ctx)
    }

    /// Opt this session out of the MVCC snapshot lane: its read-pure
    /// batches execute against live rows under table locks instead of a
    /// published version. Required for sessions whose reads must observe
    /// effects of batches that have executed but not yet published — the
    /// active agent's internal sessions, whose event datagrams are enqueued
    /// mid-batch, before the triggering batch publishes at its end.
    pub fn with_live_reads(mut self) -> Self {
        self.ctx.live_reads = true;
        self
    }

    pub fn ctx(&self) -> &SessionCtx {
        &self.ctx
    }

    /// Server-unique session id (1-based, in open order).
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn server(&self) -> &Arc<SqlServer> {
        &self.server
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn sessions_share_one_engine() {
        let server = SqlServer::new();
        let s1 = server.session("db", "alice");
        let s2 = server.session("db", "bob");
        s1.execute("create table t (a int)").unwrap();
        s2.execute("insert t values (42)").unwrap();
        let r = s1.execute("select a from t").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(42)));
    }

    #[test]
    fn sessions_have_distinct_identity() {
        let server = SqlServer::new();
        let s1 = server.session("db", "alice");
        let r = s1.execute("select user_name()").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Str("alice".into())));
    }

    #[test]
    fn concurrent_sessions_are_serialized_safely() {
        let server = SqlServer::new();
        server
            .session("db", "u")
            .execute("create table t (a int)")
            .unwrap();
        let mut handles = Vec::new();
        for i in 0..8 {
            let session = server.session("db", &format!("u{i}"));
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    session.execute("insert t values (1)").unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let r = server
            .session("db", "u")
            .execute("select count(*) from t")
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(400)));
    }

    #[test]
    fn session_ids_and_stats_track_usage() {
        let server = SqlServer::new();
        let s1 = server.session("db", "a");
        let s2 = server.session("db", "b");
        assert_eq!(s1.id(), 1);
        assert_eq!(s2.id(), 2);
        s1.execute("create table t (a int)").unwrap();
        s2.execute("insert t values (1)").unwrap();
        let stats = server.metrics();
        assert_eq!(stats["sql_sessions_opened"], 2);
        assert_eq!(stats["statements"], 2);
    }

    #[test]
    fn snapshot_gives_catalog_access() {
        let server = SqlServer::new();
        server
            .session("db", "u")
            .execute("create table t (a int)")
            .unwrap();
        // The lock-free snapshot sees the full catalog.
        assert_eq!(server.snapshot().database().table_count(), 1);
    }

    #[test]
    fn plan_cache_hits_on_repeated_statement_shapes() {
        let server = SqlServer::new();
        let s = server.session("db", "u");
        s.execute("create table t (k int, v varchar(10))").unwrap();
        let before = server.metrics();
        for i in 0..20 {
            s.execute(&format!("insert t values ({i}, 'v{i}')"))
                .unwrap();
            s.execute(&format!("select v from t where k = {i}"))
                .unwrap();
        }
        let after = server.metrics();
        // First insert and first select miss; the remaining 38 hit.
        assert_eq!(after["plan_cache_misses"] - before["plan_cache_misses"], 2);
        assert_eq!(after["plan_cache_hits"] - before["plan_cache_hits"], 38);
        // Literals were rebound per execution, not frozen into the plan.
        let r = s.execute("select v from t where k = 17").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Str("v17".into())));
        let r = s.execute("select count(*) from t").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(20)));
    }

    #[test]
    fn plan_cache_invalidated_by_ddl() {
        let server = SqlServer::new();
        let s = server.session("db", "u");
        s.execute("create table t (a int)").unwrap();
        s.execute("insert t values (1)").unwrap();
        s.execute("insert t values (2)").unwrap();
        // DDL bumps the epoch: the previously hot plan must re-parse.
        s.execute("create table t2 (a int)").unwrap();
        let warm = server.metrics();
        s.execute("insert t values (3)").unwrap();
        let cold = server.metrics();
        assert_eq!(cold["plan_cache_misses"] - warm["plan_cache_misses"], 1);
        assert_eq!(cold["plan_cache_hits"], warm["plan_cache_hits"]);
        // And the re-parsed plan still binds fresh literals.
        s.execute("insert t values (4)").unwrap();
        let r = s.execute("select sum(a) from t").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(10)));
    }

    #[test]
    fn scheduler_classifies_parallel_and_exclusive_batches() {
        let server = SqlServer::new();
        let s = server.session("db", "u");
        s.execute("create table t (a int)").unwrap();
        let after_ddl = server.metrics();
        assert_eq!(after_ddl["batches_exclusive"], 1);
        assert_eq!(after_ddl["batches_parallel"], 0);
        s.execute("insert t values (1)").unwrap();
        s.execute("select a from t").unwrap();
        let after_dml = server.metrics();
        assert_eq!(after_dml["batches_exclusive"], 1);
        // The insert takes table locks; the pure select rides the MVCC
        // snapshot lane and touches no lock state at all.
        assert_eq!(after_dml["batches_parallel"], 1);
        assert_eq!(after_dml["snapshot_reads"], 1);
    }

    #[test]
    fn snapshot_reads_see_every_completed_write() {
        let server = SqlServer::new();
        let s = server.session("db", "u");
        s.execute("create table t (a int)").unwrap();
        for i in 0..10i64 {
            s.execute(&format!("insert t values ({i})")).unwrap();
            let r = s.execute("select count(*) from t").unwrap();
            assert_eq!(r.scalar(), Some(&Value::Int(i + 1)));
        }
        let stats = server.metrics();
        assert_eq!(stats["snapshot_reads"], 10);
        // Seqlock parity: even outside a publication window, and advanced
        // by two per publishing batch (1 DDL + 10 inserts).
        assert_eq!(stats["snapshot_epoch"] % 2, 0);
        assert_eq!(stats["snapshot_epoch"], 22);
    }

    #[test]
    fn snapshot_readers_complete_while_a_writer_holds_table_locks() {
        use crate::notify::{Datagram, NotificationSink};
        use std::sync::mpsc;

        struct ParkSink {
            entered: mpsc::Sender<()>,
            release: Mutex<mpsc::Receiver<()>>,
        }
        impl NotificationSink for ParkSink {
            fn send(&self, _d: Datagram) {
                self.entered.send(()).unwrap();
                self.release.lock().recv().unwrap();
            }
        }

        let server = SqlServer::new();
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        server.set_sink(Arc::new(ParkSink {
            entered: entered_tx,
            release: Mutex::new(release_rx),
        }));
        let s = server.session("db", "u");
        s.execute("create table t (a int)").unwrap();
        s.execute("insert t values (1)").unwrap();
        s.execute(
            "create trigger trt on t for insert as \
             select syb_sendmsg('10.0.0.1', 10011, 'parked') from t",
        )
        .unwrap();
        let writer = {
            let session = server.session("db", "u");
            std::thread::spawn(move || session.execute("insert t values (2)").unwrap())
        };
        entered_rx.recv().unwrap(); // writer is inside the engine, lock held on `t`
                                    // The reader would deadlock this single-threaded test if it touched
                                    // the writer's lock; instead it pins the last *published* version —
                                    // which does not yet contain the writer's in-flight row.
        let r = s.execute("select count(*) from t").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(1)));
        assert_eq!(server.metrics()["lock_waits"], 0);
        // The trigger scans two rows, so the sink parks once per row.
        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        writer.join().unwrap();
        // Once the writer's batch ends it publishes; the next read sees it.
        let r = s.execute("select count(*) from t").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(2)));
        assert_eq!(server.metrics()["snapshot_reads"], 2);
    }

    #[test]
    fn live_reads_sessions_stay_on_lock_scheduling() {
        let server = SqlServer::new();
        let s = server.session("db", "u");
        s.execute("create table t (a int)").unwrap();
        s.execute("insert t values (1)").unwrap();
        let live = server.session("master", "eca_agent").with_live_reads();
        let before = server.metrics();
        let r = live.execute("select a from t").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(1)));
        let after = server.metrics();
        assert_eq!(after["snapshot_reads"], before["snapshot_reads"]);
        assert_eq!(after["batches_parallel"] - before["batches_parallel"], 1);
    }

    #[test]
    fn snapshot_api_pins_an_immutable_catalog() {
        let server = SqlServer::new();
        let s = server.session("db", "u");
        s.execute("create table t (a int)").unwrap();
        s.execute("insert t values (1)").unwrap();
        let snap = server.snapshot();
        let epoch = snap.epoch();
        s.execute("insert t values (2)").unwrap();
        // The pin is CoW: later writes do not leak into it.
        assert_eq!(snap.database().table("t").unwrap().rows().len(), 1);
        assert!(server.snapshot().epoch() > epoch);
    }

    #[test]
    fn reads_inside_a_transaction_see_uncommitted_state() {
        let server = SqlServer::new();
        let s = server.session("db", "u");
        s.execute("create table t (a int)").unwrap();
        s.execute("insert t values (1)").unwrap();
        s.execute("begin tran").unwrap();
        s.execute("insert t values (2)").unwrap();
        let before = server.metrics();
        // Inside the transaction even a pure select runs exclusively: it
        // must observe the uncommitted row, which no snapshot contains.
        let r = s.execute("select count(*) from t").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(2)));
        let after = server.metrics();
        assert_eq!(after["snapshot_reads"], before["snapshot_reads"]);
        assert_eq!(after["batches_exclusive"] - before["batches_exclusive"], 1);
        s.execute("rollback").unwrap();
        // Rollback republishes the surviving (pre-transaction) state.
        let r = s.execute("select count(*) from t").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(1)));
        assert_eq!(
            server.metrics()["snapshot_reads"],
            before["snapshot_reads"] + 1
        );
    }

    #[test]
    fn transactions_escalate_to_exclusive() {
        let server = SqlServer::new();
        let s = server.session("db", "u");
        s.execute("create table t (a int)").unwrap();
        s.execute("insert t values (1)").unwrap();
        s.execute("begin tran").unwrap();
        // Inside the transaction even plain DML runs exclusively.
        let before = server.metrics();
        s.execute("insert t values (2)").unwrap();
        let after = server.metrics();
        assert_eq!(after["batches_exclusive"] - before["batches_exclusive"], 1);
        assert_eq!(after["batches_parallel"], before["batches_parallel"]);
        s.execute("rollback").unwrap();
        let r = s.execute("select count(*) from t").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(1)));
    }

    #[test]
    fn disjoint_tables_make_progress_concurrently() {
        let server = SqlServer::new();
        let setup = server.session("db", "u");
        for i in 0..4 {
            setup
                .execute(&format!("create table t{i} (a int)"))
                .unwrap();
        }
        let mut handles = Vec::new();
        for i in 0..4 {
            let session = server.session("db", "u");
            handles.push(std::thread::spawn(move || {
                for j in 0..50 {
                    session
                        .execute(&format!("insert t{i} values ({j})"))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for i in 0..4 {
            let r = setup
                .execute(&format!("select count(*) from t{i}"))
                .unwrap();
            assert_eq!(r.scalar(), Some(&Value::Int(50)), "table t{i}");
        }
        let stats = server.metrics();
        // The 200 inserts lock their tables; the 4 verification counts are
        // read-pure and went through the snapshot lane instead.
        assert_eq!(stats["batches_parallel"], 4 * 50);
        assert_eq!(stats["snapshot_reads"], 4);
    }

    #[test]
    fn inflight_peak_proves_batches_overlap_inside_the_engine() {
        use crate::notify::{Datagram, NotificationSink};
        use std::sync::mpsc;

        // A sink that parks the sending batch mid-execution until released,
        // holding it *inside* the engine while another disjoint batch runs —
        // deterministic overlap evidence even on a single-CPU host.
        struct ParkSink {
            entered: mpsc::Sender<()>,
            release: Mutex<mpsc::Receiver<()>>,
        }
        impl NotificationSink for ParkSink {
            fn send(&self, _d: Datagram) {
                self.entered.send(()).unwrap();
                self.release.lock().recv().unwrap();
            }
        }

        let server = SqlServer::new();
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        server.set_sink(Arc::new(ParkSink {
            entered: entered_tx,
            release: Mutex::new(release_rx),
        }));
        let s = server.session("db", "u");
        s.execute("create table a (n int)").unwrap();
        s.execute("create table b (n int)").unwrap();
        s.execute(
            "create trigger tra on a for insert as \
             select syb_sendmsg('10.0.0.1', 10011, 'parked') from a",
        )
        .unwrap();
        let parked = {
            let session = server.session("db", "u");
            std::thread::spawn(move || session.execute("insert a values (1)").unwrap())
        };
        entered_rx.recv().unwrap(); // batch on `a` is now inside the engine
        s.execute("insert b values (2)").unwrap();
        release_tx.send(()).unwrap();
        parked.join().unwrap();
        assert!(
            server.metrics()["batches_inflight_peak"] >= 2,
            "disjoint batch on b should have run while the batch on a was parked"
        );
    }

    #[test]
    fn durable_server_survives_reopen() {
        use crate::storage::FaultyStorage;
        use crate::wal::{DurabilityConfig, FsyncPolicy};
        let storage = FaultyStorage::new();
        let cfg = DurabilityConfig {
            fsync: FsyncPolicy::Always,
            checkpoint_bytes: 0,
        };
        {
            let server =
                SqlServer::open_with_storage(storage.clone(), cfg, EngineConfig::default())
                    .unwrap();
            let s = server.session("db", "u");
            s.execute("create table t (a int)").unwrap();
            s.execute("insert t values (1)").unwrap();
            s.execute("insert t values (2)").unwrap();
            let stats = server.metrics();
            assert_eq!(stats["wal_records"], 3);
            assert!(stats["wal_bytes"] > 0);
            assert!(stats["wal_fsyncs"] >= 1);
        }
        let server = SqlServer::open_with_storage(storage, cfg, EngineConfig::default()).unwrap();
        let r = server
            .session("db", "u")
            .execute("select sum(a) from t")
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(3)));
        assert_eq!(server.metrics()["wal_records_replayed"], 3);
    }

    #[test]
    fn checkpoint_truncates_wal_and_restores_from_snapshot() {
        use crate::storage::FaultyStorage;
        use crate::wal::{DurabilityConfig, FsyncPolicy, WAL_FILE};
        let storage = FaultyStorage::new();
        let cfg = DurabilityConfig {
            fsync: FsyncPolicy::Always,
            checkpoint_bytes: 0,
        };
        let server =
            SqlServer::open_with_storage(storage.clone(), cfg, EngineConfig::default()).unwrap();
        let s = server.session("db", "u");
        s.execute("create table t (a int)").unwrap();
        s.execute("insert t values (7)").unwrap();
        server.checkpoint().unwrap();
        assert_eq!(storage.visible_len(WAL_FILE), 0);
        assert_eq!(server.metrics()["wal_checkpoints"], 1);
        s.execute("insert t values (8)").unwrap();
        drop(s);
        drop(server);
        let server = SqlServer::open_with_storage(storage, cfg, EngineConfig::default()).unwrap();
        let r = server
            .session("db", "u")
            .execute("select sum(a) from t")
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(15)));
        // Only the post-checkpoint suffix replayed.
        assert_eq!(server.metrics()["wal_records_replayed"], 1);
    }

    #[test]
    fn wal_failure_degrades_to_read_only() {
        use crate::storage::{DiskFaultPlan, FaultyStorage};
        use crate::wal::{DurabilityConfig, FsyncPolicy};
        let storage = FaultyStorage::with_plan(DiskFaultPlan {
            fail_appends_after: Some(3),
            ..DiskFaultPlan::default()
        });
        let cfg = DurabilityConfig {
            fsync: FsyncPolicy::Always,
            checkpoint_bytes: 0,
        };
        let server = SqlServer::open_with_storage(storage, cfg, EngineConfig::default()).unwrap();
        let s = server.session("db", "u");
        s.execute("create table t (a int)").unwrap();
        s.execute("insert t values (1)").unwrap();
        s.execute("insert t values (2)").unwrap();
        // Fourth append fails: the batch is rejected before executing.
        let err = s.execute("insert t values (3)").unwrap_err();
        assert!(matches!(err, Error::Io { .. }), "{err}");
        assert!(server.is_read_only());
        // Reads still work and see only the committed state.
        let r = s.execute("select count(*) from t").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(2)));
        // Further writes keep failing fast.
        assert!(matches!(
            s.execute("insert t values (4)").unwrap_err(),
            Error::Io { .. }
        ));
    }

    #[test]
    fn non_durable_server_reports_zero_wal_stats() {
        let server = SqlServer::new();
        assert!(!server.is_durable());
        server
            .session("db", "u")
            .execute("create table t (a int)")
            .unwrap();
        let stats = server.metrics();
        assert_eq!(stats["wal_records"], 0);
        assert_eq!(stats["wal_bytes"], 0);
        assert!(server.checkpoint().is_err());
    }

    #[test]
    fn same_table_batches_serialize_on_table_locks() {
        let server = SqlServer::new();
        let s = server.session("db", "u");
        s.execute("create table t (a int)").unwrap();
        s.execute("insert t values (0)").unwrap();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let session = server.session("db", "u");
            handles.push(std::thread::spawn(move || {
                for _ in 0..25 {
                    session.execute("update t set a = a + 1").unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every update saw a consistent row: increments never lost.
        let r = s.execute("select max(a) from t").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(100)));
    }
}
