//! Stands up the real stack in-process — `SqlServer` → `EcaAgent` →
//! `EcaServer` on `127.0.0.1:0`, every config at its `Default` — and, for a
//! traced run, wraps the two public trait boundaries (`ActiveService`,
//! `Storage`) so spans are recorded from outside the product crates.

use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use eca_core::{ActiveService, AgentConfig, AgentResponse, AgentStats, DrainReport, EcaAgent};
use eca_core::{ExecOutcome, Result as EcaResult};
use eca_serve::{EcaServer, ServeClient, ServeConfig, ServeHandle};
use relsql::{DurabilityConfig, EngineConfig, FsStorage, SessionCtx, SqlServer, Storage};

use crate::workload::{self, Scale, Workload, CLIENTS, DB};

/// The flush policy of `fig4_durable`, stated in every output document.
pub const FLUSH_POLICY: &str =
    "DurabilityConfig::default(): fsync Always (group commit), auto-checkpoint at 4 MiB of WAL";

/// Nanoseconds since the first call in this process: one clock for client
/// threads, service spans and storage spans.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn ctx(k: usize) -> SessionCtx {
    SessionCtx::new(DB, workload::user(k))
}

/// `(start_ns, end_ns)`.
pub type Interval = (u64, u64);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageOp {
    Append,
    Sync,
    Replace,
}

impl StorageOp {
    pub fn span_name(self) -> &'static str {
        match self {
            StorageOp::Append => "storage.append",
            StorageOp::Sync => "storage.sync",
            StorageOp::Replace => "storage.replace",
        }
    }
}

pub struct StorageSpan {
    pub op: StorageOp,
    pub interval: Interval,
    /// The client operation whose `execute` was running on this thread.
    pub parent: Option<(usize, usize)>,
}

thread_local! {
    /// The operation `(k, i)` the current exec-worker thread is serving.
    static CURRENT_OP: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Span sink of a traced run. Records only while armed, so set-up statements
/// issued under a client's identity do not shift the operation index.
#[derive(Default)]
pub struct Tracer {
    armed: AtomicBool,
    executes: [Mutex<Vec<Interval>>; CLIENTS],
    storage: Mutex<Vec<StorageSpan>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Tracer {
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// The `execute` spans seen for user `u{k}`; the *i*-th is operation
    /// `(k, i)`, since the server keeps at most one job in flight per session.
    pub fn executes(&self, k: usize) -> MutexGuard<'_, Vec<Interval>> {
        lock(&self.executes[k])
    }

    pub fn storage(&self) -> MutexGuard<'_, Vec<StorageSpan>> {
        lock(&self.storage)
    }

    fn around_execute<R>(&self, ctx: &SessionCtx, f: impl FnOnce() -> R) -> R {
        let client = ctx.user.strip_prefix('u').and_then(|k| k.parse().ok());
        let (Some(k), true) = (
            client.filter(|&k| k < CLIENTS),
            self.armed.load(Ordering::SeqCst),
        ) else {
            return f();
        };
        let i = self.executes(k).len();
        CURRENT_OP.set(Some((k, i)));
        let start = now_ns();
        let out = f();
        let end = now_ns();
        CURRENT_OP.set(None);
        self.executes(k).push((start, end));
        out
    }

    fn around_storage<R>(&self, op: StorageOp, f: impl FnOnce() -> R) -> R {
        if !self.armed.load(Ordering::SeqCst) {
            return f();
        }
        let start = now_ns();
        let out = f();
        let interval = (start, now_ns());
        self.storage().push(StorageSpan {
            op,
            interval,
            parent: CURRENT_OP.get(),
        });
        out
    }
}

/// `ActiveService` around the agent handed to `EcaServer::start`.
struct TracedService {
    inner: EcaAgent,
    tracer: Arc<Tracer>,
}

impl ActiveService for TracedService {
    fn execute(&self, sql: &str, ctx: &SessionCtx) -> EcaResult<AgentResponse> {
        self.tracer
            .around_execute(ctx, || ActiveService::execute(&self.inner, sql, ctx))
    }

    fn define_trigger(&self, ddl: &str, ctx: &SessionCtx) -> EcaResult<AgentResponse> {
        self.inner.define_trigger(ddl, ctx)
    }

    fn drop_trigger(&self, trigger: &str, ctx: &SessionCtx) -> EcaResult<AgentResponse> {
        self.inner.drop_trigger(trigger, ctx)
    }

    fn stats(&self) -> AgentStats {
        ActiveService::stats(&self.inner)
    }

    fn drain(&self, timeout: Duration) -> DrainReport {
        ActiveService::drain(&self.inner, timeout)
    }

    fn resume(&self) {
        ActiveService::resume(&self.inner)
    }

    fn is_draining(&self) -> bool {
        ActiveService::is_draining(&self.inner)
    }

    fn execute_once(
        &self,
        sql: &str,
        ctx: &SessionCtx,
        token: &str,
        seq: u64,
    ) -> EcaResult<ExecOutcome> {
        self.tracer.around_execute(ctx, || {
            ActiveService::execute_once(&self.inner, sql, ctx, token, seq)
        })
    }

    fn record_response(&self, token: &str, seq: u64, line: &str) -> EcaResult<()> {
        self.inner.record_response(token, seq, line)
    }

    fn forget_session(&self, token: &str, below_seq: u64) -> EcaResult<()> {
        self.inner.forget_session(token, below_seq)
    }
}

/// `relsql::Storage` around `FsStorage`.
struct TimedStorage {
    inner: Arc<FsStorage>,
    tracer: Arc<Tracer>,
}

impl Storage for TimedStorage {
    fn load(&self, name: &str) -> relsql::Result<Option<Vec<u8>>> {
        self.inner.load(name)
    }

    fn append(&self, name: &str, bytes: &[u8]) -> relsql::Result<()> {
        self.tracer
            .around_storage(StorageOp::Append, || self.inner.append(name, bytes))
    }

    fn sync(&self, name: &str) -> relsql::Result<()> {
        self.tracer
            .around_storage(StorageOp::Sync, || self.inner.sync(name))
    }

    fn replace(&self, name: &str, bytes: &[u8]) -> relsql::Result<()> {
        self.tracer
            .around_storage(StorageOp::Replace, || self.inner.replace(name, bytes))
    }

    fn reset(&self, name: &str) -> relsql::Result<()> {
        self.inner.reset(name)
    }
}

/// A data directory under the build directory (the benchmark writes nowhere
/// else), removed on drop.
pub struct DataDir(PathBuf);

impl DataDir {
    pub fn create() -> Result<DataDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let root =
            std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
        let dir = root.join("sysbench-data").join(format!(
            "{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(DataDir(dir))
    }

    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Server and agent with the workload's schema, rules and preload applied.
pub struct Prepared {
    pub server: Arc<SqlServer>,
    pub agent: EcaAgent,
    /// Seconds each `create trigger` took, in definition order.
    pub define_rule_s: Vec<f64>,
    // Declared last: the directory goes after the handles that write to it.
    pub data_dir: Option<DataDir>,
}

/// Opens the server (durable for `fig4_durable`) and the agent in front of it.
pub fn open(workload: Workload, tracer: Option<&Arc<Tracer>>) -> Result<Prepared, String> {
    let (server, data_dir) = if workload == Workload::Fig4Durable {
        let dir = DataDir::create()?;
        let fs = FsStorage::open(dir.path()).map_err(|e| e.to_string())?;
        let storage: Arc<dyn Storage> = match tracer {
            Some(tracer) => Arc::new(TimedStorage {
                inner: fs,
                tracer: Arc::clone(tracer),
            }),
            None => fs,
        };
        let server = SqlServer::open_with_storage(
            storage,
            DurabilityConfig::default(),
            EngineConfig::default(),
        )
        .map_err(|e| e.to_string())?;
        (server, Some(dir))
    } else {
        (SqlServer::new(), None)
    };
    let agent =
        EcaAgent::new(Arc::clone(&server), AgentConfig::default()).map_err(|e| e.to_string())?;
    Ok(Prepared {
        server,
        agent,
        define_rule_s: Vec::new(),
        data_dir,
    })
}

/// Runs the workload's set-up statements through `service`.
pub fn apply_setup(
    prepared: &mut Prepared,
    service: &dyn ActiveService,
    workload: Workload,
    seed: u64,
    scale: &Scale,
) -> Result<(), String> {
    for stmt in workload::setup(workload, seed, scale) {
        let t = Instant::now();
        service
            .execute(&stmt.sql, &ctx(stmt.client))
            .map_err(|e| format!("set-up statement failed: {e}: {:.120}", stmt.sql))?;
        if stmt.sql.starts_with("create trigger") {
            prepared.define_rule_s.push(t.elapsed().as_secs_f64());
        }
    }
    Ok(())
}

/// [`open`] + [`apply_setup`] without a listener: the depth replays and the
/// recovery phase drive the layers directly.
pub fn prepare(
    workload: Workload,
    seed: u64,
    scale: &Scale,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Prepared, String> {
    let mut prepared = open(workload, tracer)?;
    let agent = prepared.agent.clone();
    apply_setup(&mut prepared, &agent, workload, seed, scale)?;
    Ok(prepared)
}

/// The whole stack, listening, with one connection per client.
pub struct Stack {
    pub prepared: Prepared,
    pub handle: ServeHandle,
    pub clients: Vec<ServeClient>,
    /// Server + agent + listener start, schema, rule definitions, preload,
    /// until the first client `HELLO` is answered.
    pub setup_s: f64,
}

pub fn stand_up(
    workload: Workload,
    seed: u64,
    scale: &Scale,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Stack, String> {
    let t0 = Instant::now();
    let mut prepared = open(workload, tracer)?;
    let service: Arc<dyn ActiveService> = match tracer {
        Some(tracer) => Arc::new(TracedService {
            inner: prepared.agent.clone(),
            tracer: Arc::clone(tracer),
        }),
        None => Arc::new(prepared.agent.clone()),
    };
    let handle = EcaServer::start(Arc::clone(&service), ServeConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    apply_setup(&mut prepared, service.as_ref(), workload, seed, scale)?;
    let connect = |k: usize| {
        ServeClient::connect_as(handle.addr(), DB, &workload::user(k))
            .map(|(client, _session)| client)
            .map_err(|e| format!("connect client {k}: {e}"))
    };
    let mut clients = vec![connect(0)?];
    let setup_s = t0.elapsed().as_secs_f64();
    for k in 1..CLIENTS {
        clients.push(connect(k)?);
    }
    Ok(Stack {
        prepared,
        handle,
        clients,
        setup_s,
    })
}

impl Stack {
    /// Stops the listener and its threads; the data directory goes with the
    /// returned value.
    pub fn shut_down(self) {
        for client in self.clients {
            let _ = client.quit();
        }
        self.handle.shutdown();
    }
}
