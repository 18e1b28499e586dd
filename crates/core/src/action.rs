//! The Action Handler (§5.5, Figure 16).
//!
//! The Rust analogue of the paper's `SybaseAction`/`NotiStr` machinery:
//! when the LED fires a rule, an [`ActionRequest`] (the `NotiStr` fields —
//! stored procedure, event name, context) plus the occurrence is executed
//! against the SQL server as **one batch**: the `sysContext` refresh from
//! the occurrence's parameter list, then `execute` of the trigger's stored
//! procedure. One batch makes the two atomic against other firings and
//! costs one WAL record on a durable server. DETACHED actions get their
//! own thread, exactly as the paper spawns a thread per `SybaseAction`
//! call.
//!
//! On top of the paper's fire-and-forget execution this handler layers a
//! reliability pipeline, shared with saga steps through one attempt path
//! ([`BatchRunner`]): transiently failing actions are retried under a
//! configurable [`RetryPolicy`] (exponential backoff with deterministic
//! jitter, optional per-attempt wall-clock timeout), panicking action
//! paths are caught and reported as failed outcomes instead of unwinding
//! a thread away, and actions that exhaust their attempts land in a
//! [`DeadLetter`] queue — mirrored into the durable `SysDeadLetter` table
//! when the agent runs on persistent storage, so `\deadletters` and
//! `\requeue` keep working across process lives.
//!
//! Rules whose action is a saga declaration ([`crate::saga::SagaSpec`])
//! are routed to the [`SagaExecutor`] instead of the single-procedure
//! path; see `saga.rs` and DESIGN.md §12.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use led::{CouplingMode, Firing, Occurrence, Param, ParameterContext};
use relsql::sync::Mutex;
use relsql::{BatchResult, SessionCtx};

use crate::codegen::sql_quote;
use crate::context_proc::sys_context_sql;
use crate::error::Result;
use crate::gateway::Gateway;
use crate::registry::TriggerInfo;
use crate::saga::{
    encode_params, occurrence_vno, SagaDisposition, SagaExecutor, SagaRun, SagaSpec,
};

/// The paper's `NotiStr`: everything needed to invoke one SQL action.
#[derive(Debug, Clone)]
pub struct ActionRequest {
    /// `store_proc` — stored procedure implementing the action.
    pub proc_name: String,
    /// `eventName` — the detected event.
    pub event: String,
    /// `context` — parameter context used for the `sysContext` rows.
    pub context: ParameterContext,
    /// The triggering rule (for reporting).
    pub rule: String,
    pub occurrence: Occurrence,
    /// When the rule's action is a saga, its step list; `None` for the
    /// paper's single-procedure actions.
    pub saga: Option<Arc<SagaSpec>>,
}

impl ActionRequest {
    pub fn from_firing(firing: &Firing, trigger: &TriggerInfo) -> Self {
        ActionRequest {
            proc_name: trigger.proc_name.clone(),
            event: firing.event.clone(),
            context: firing.context,
            rule: firing.rule.clone(),
            occurrence: firing.occurrence.clone(),
            saga: trigger.saga.clone(),
        }
    }
}

/// The result of one executed action.
#[derive(Debug, Clone)]
pub struct ActionOutcome {
    pub rule: String,
    pub event: String,
    pub coupling: CouplingMode,
    /// How many attempts were made (1 = succeeded or gave up first try).
    /// For sagas this counts step/compensation attempts across the run.
    pub attempts: u32,
    pub result: std::result::Result<BatchResult, String>,
    /// How the saga ended, when the action was one; lets clients tell
    /// "saga compensated" (settled, by design) from "action dead-lettered".
    pub saga: Option<SagaDisposition>,
}

/// Retry behaviour for failing actions.
///
/// The default makes exactly one attempt and never sleeps — the paper's
/// original fire-once semantics. Backoff grows exponentially from
/// `base_backoff`, is capped at `max_backoff`, and carries a deterministic
/// jitter derived from the rule name and attempt number (so concurrent
/// retries de-synchronize without nondeterminism in tests). When
/// `attempt_timeout` is set, each attempt is abandoned after that much
/// wall-clock time and counts as a failure — a hung step fails over to
/// retry/compensation instead of stalling the pump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub max_attempts: u32,
    pub base_backoff: Duration,
    pub max_backoff: Duration,
    /// Per-attempt wall-clock deadline; `None` = wait forever.
    pub attempt_timeout: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            attempt_timeout: None,
        }
    }
}

impl RetryPolicy {
    pub fn retries(max_attempts: u32, base_backoff: Duration, max_backoff: Duration) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_backoff,
            max_backoff,
            attempt_timeout: None,
        }
    }

    /// Builder: bound each attempt by a wall-clock deadline.
    pub fn with_attempt_timeout(mut self, timeout: Duration) -> Self {
        self.attempt_timeout = Some(timeout);
        self
    }

    /// The delay to sleep after `failed_attempt` (1-based) before the next
    /// try: `min(base * 2^(n-1), max)` plus up to 25% deterministic jitter.
    pub fn backoff_after(&self, rule: &str, failed_attempt: u32) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = failed_attempt.saturating_sub(1).min(16);
        let raw = self.base_backoff.saturating_mul(1u32 << exp);
        let capped = raw.min(self.max_backoff.max(self.base_backoff));
        let span = capped.as_nanos() as u64 / 4;
        let jitter = if span == 0 {
            0
        } else {
            let mut h = DefaultHasher::new();
            rule.hash(&mut h);
            failed_attempt.hash(&mut h);
            h.finish() % (span + 1)
        };
        capped + Duration::from_nanos(jitter)
    }
}

/// An action that exhausted its retry budget (or panicked out of every
/// attempt), parked for inspection and manual requeue.
#[derive(Debug, Clone)]
pub struct DeadLetter {
    pub request: ActionRequest,
    pub coupling: CouplingMode,
    pub error: String,
    pub attempts: u32,
}

/// The `SysDeadLetter` row mirroring one dead letter (satellite: the
/// queue survives a cold restart). Occurrence params are text-encoded via
/// [`encode_params`]; the saga flag lets recovery re-attach the step list.
fn dead_letter_insert_sql(dl: &DeadLetter) -> String {
    format!(
        "insert SysDeadLetter values ({}, {}, {}, {}, {}, {}, {}, {}, {})",
        sql_quote(&dl.request.rule),
        sql_quote(&dl.request.event),
        sql_quote(&dl.request.proc_name),
        sql_quote(dl.coupling.as_str()),
        sql_quote(dl.request.context.as_str()),
        occurrence_vno(&dl.request.occurrence),
        dl.attempts,
        sql_quote(&dl.error),
        sql_quote(&encode_params(&dl.request.occurrence)),
    )
}

/// Test/chaos hook: invoked before each attempt with the request and the
/// 1-based attempt number; returning `Some(err)` fails that attempt,
/// panicking simulates a crashing action path. Saga step attempts flow
/// through the same injector, with `proc_name` set to the step procedure.
pub type FaultInjector = Arc<dyn Fn(&ActionRequest, u32) -> Option<String> + Send + Sync>;

struct DetachedHandle {
    handle: JoinHandle<()>,
    rule: String,
    event: String,
}

/// The one attempt path: a single-procedure action and every saga step or
/// compensation is one server batch run here under the retry policy, with
/// the shared fault injector, the per-attempt deadline and panic capture.
pub(crate) struct BatchRunner {
    gateway: Arc<Gateway>,
    /// Identity the action SQL runs under.
    session: SessionCtx,
    policy: RetryPolicy,
    injector: Mutex<Option<FaultInjector>>,
    retries: AtomicU64,
}

impl BatchRunner {
    /// Run `sql` as one batch until an attempt succeeds or the policy's
    /// budget is spent (then the last error is returned), backing off
    /// between attempts. `attempts` counts every attempt made.
    pub(crate) fn run(
        &self,
        request: &ActionRequest,
        sql: &str,
        attempts: &mut u32,
    ) -> std::result::Result<BatchResult, String> {
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            *attempts += 1;
            let err = match self.attempt(request, attempt, sql) {
                Ok(batch) => return Ok(batch),
                Err(e) => e,
            };
            if attempt >= self.policy.max_attempts.max(1) {
                return Err(err);
            }
            self.retries.fetch_add(1, Ordering::Relaxed);
            let delay = self.policy.backoff_after(&request.rule, attempt);
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
        }
    }

    /// One attempt: fault injection, then the batch (under the per-attempt
    /// deadline when one is configured), with panics caught and converted
    /// into ordinary errors. The injector runs inside the timed region: a
    /// hung dependency (simulated by a sleeping injector) counts against
    /// the deadline.
    fn attempt(
        &self,
        request: &ActionRequest,
        attempt: u32,
        sql: &str,
    ) -> std::result::Result<BatchResult, String> {
        let injector = self.injector.lock().clone();
        let run =
            move |gateway: &Gateway, session: &SessionCtx, request: &ActionRequest, sql: &str| {
                if let Some(err) = injector
                    .as_ref()
                    .and_then(|inject| inject(request, attempt))
                {
                    return Err(err);
                }
                gateway.internal(sql, session).map_err(|e| e.to_string())
            };
        match self.policy.attempt_timeout {
            None => catch_unwind(AssertUnwindSafe(|| {
                run(&self.gateway, &self.session, request, sql)
            }))
            .unwrap_or_else(|panic| Err(panic_message(panic))),
            Some(t) => {
                let (gateway, session) = (Arc::clone(&self.gateway), self.session.clone());
                let (request, sql) = (request.clone(), sql.to_string());
                run_with_timeout(t, move || run(&gateway, &session, &request, &sql))
            }
        }
    }

    /// Agent bookkeeping (journal rows and reads, the dead-letter mirror):
    /// one batch, outside the injector and the retry policy.
    pub(crate) fn internal(&self, sql: &str) -> Result<BatchResult> {
        self.gateway.internal(sql, &self.session)
    }
}

/// Executes actions; detached ones on their own threads.
pub struct ActionHandler {
    runner: Arc<BatchRunner>,
    saga: SagaExecutor,
    detached: Mutex<Vec<DetachedHandle>>,
    detached_outcomes: Arc<Mutex<Vec<ActionOutcome>>>,
    dead_letters: Mutex<Vec<DeadLetter>>,
    /// When set (durable agents), dead letters are mirrored into the
    /// `SysDeadLetter` table so they survive a cold restart.
    durable_dlq: AtomicBool,
    dead_lettered: AtomicU64,
}

impl ActionHandler {
    pub fn new(gateway: Arc<Gateway>) -> Self {
        Self::with_policy(gateway, RetryPolicy::default())
    }

    pub fn with_policy(gateway: Arc<Gateway>, policy: RetryPolicy) -> Self {
        let runner = Arc::new(BatchRunner {
            gateway,
            // Live reads: action/saga batches react to datagrams enqueued
            // mid-batch, before the triggering batch publishes its MVCC
            // versions, so their reads must see live rows (see `SessionCtx`).
            session: SessionCtx::new("master", "eca_agent").with_live_reads(),
            policy,
            injector: Mutex::new(None),
            retries: AtomicU64::new(0),
        });
        ActionHandler {
            saga: SagaExecutor::new(Arc::clone(&runner)),
            runner,
            detached: Mutex::new(Vec::new()),
            detached_outcomes: Arc::new(Mutex::new(Vec::new())),
            dead_letters: Mutex::new(Vec::new()),
            durable_dlq: AtomicBool::new(false),
            dead_lettered: AtomicU64::new(0),
        }
    }

    /// Install (or clear) the per-attempt fault injector (shared with the
    /// saga executor).
    pub fn set_fault_injector(&self, injector: Option<FaultInjector>) {
        *self.runner.injector.lock() = injector;
    }

    /// The saga executor (crash hook installation, counters, journal
    /// inspection).
    pub fn saga_executor(&self) -> &SagaExecutor {
        &self.saga
    }

    /// Mirror dead letters into the durable `SysDeadLetter` table from now
    /// on (called by the agent once the system tables exist).
    pub fn set_durable_dead_letters(&self, on: bool) {
        self.durable_dlq.store(on, Ordering::Relaxed);
    }

    /// Execute an action synchronously (IMMEDIATE and flushed DEFERRED
    /// rules) and return the outcome, retrying per the policy. An outcome
    /// that is still failed after the last attempt is also dead-lettered.
    /// Saga-valued requests route to the saga executor.
    pub fn execute(&self, request: &ActionRequest, coupling: CouplingMode) -> ActionOutcome {
        if let Some(spec) = &request.saga {
            return self.execute_saga(request, spec, coupling);
        }
        let mut attempts = 0;
        let result = self
            .runner
            .run(request, &action_batch(request), &mut attempts);
        if let Err(error) = &result {
            self.dead_letter(DeadLetter {
                request: request.clone(),
                coupling,
                error: error.clone(),
                attempts,
            });
        }
        ActionOutcome {
            rule: request.rule.clone(),
            event: request.event.clone(),
            coupling,
            attempts,
            result,
            saga: None,
        }
    }

    /// Run a saga-valued request through the executor. A `Compensated`
    /// outcome is settled by design and is NOT dead-lettered; a `Parked`
    /// one (compensation failure) is, so `\requeue` can resume it.
    fn execute_saga(
        &self,
        request: &ActionRequest,
        spec: &SagaSpec,
        coupling: CouplingMode,
    ) -> ActionOutcome {
        let run = SagaRun {
            rule: &request.rule,
            event: &request.event,
            vno: occurrence_vno(&request.occurrence),
            spec,
            occurrence: request.occurrence.clone(),
            context: request.context,
            coupling,
        };
        let outcome = self.saga.execute(&run);
        if let Err(err) = &outcome.result {
            if !matches!(outcome.saga, Some(SagaDisposition::Compensated { .. })) {
                self.dead_letter(DeadLetter {
                    request: request.clone(),
                    coupling,
                    error: err.clone(),
                    attempts: outcome.attempts,
                });
            }
        }
        outcome
    }

    /// Resume an in-flight saga found in the journal at cold restart. The
    /// occurrence is synthetic (a single param carrying the journaled
    /// `vNo`): the journal plan is never `Fresh` here, so no context
    /// refresh happens and the params are only used for keying.
    pub fn resume_saga(
        &self,
        rule: &str,
        event: &str,
        vno: i64,
        spec: &Arc<SagaSpec>,
        coupling: CouplingMode,
    ) -> ActionOutcome {
        let request = ActionRequest {
            proc_name: String::new(),
            event: event.to_string(),
            context: ParameterContext::Recent,
            rule: rule.to_string(),
            occurrence: Occurrence::point(event, 0, vec![Param::db(event, "", vno, 0)]),
            saga: Some(Arc::clone(spec)),
        };
        self.execute_saga(&request, spec, coupling)
    }

    fn dead_letter(&self, dl: DeadLetter) {
        self.dead_lettered.fetch_add(1, Ordering::Relaxed);
        if self.durable_dlq.load(Ordering::Relaxed) {
            // Best effort: a failed mirror write must not mask the action
            // error itself (the in-memory queue still holds the letter).
            let _ = self.runner.internal(&dead_letter_insert_sql(&dl));
        }
        self.dead_letters.lock().push(dl);
    }

    /// Execute an action on its own thread (DETACHED coupling). The outcome
    /// lands in the detached-outcome mailbox.
    pub fn execute_detached(self: &Arc<Self>, request: ActionRequest) {
        let handler = Arc::clone(self);
        let outcomes = Arc::clone(&self.detached_outcomes);
        let rule = request.rule.clone();
        let event = request.event.clone();
        let handle = std::thread::spawn(move || {
            let outcome = handler.execute(&request, CouplingMode::Detached);
            outcomes.lock().push(outcome);
        });
        self.detached.lock().push(DetachedHandle {
            handle,
            rule,
            event,
        });
    }

    /// Join all outstanding detached actions and return their outcomes. A
    /// thread that died without reporting (should be unreachable — attempts
    /// catch panics — but threads can still be killed) yields a failed
    /// outcome rather than vanishing.
    pub fn wait_detached(&self) -> Vec<ActionOutcome> {
        let handles: Vec<DetachedHandle> = std::mem::take(&mut *self.detached.lock());
        for h in handles {
            if h.handle.join().is_err() {
                self.detached_outcomes.lock().push(ActionOutcome {
                    rule: h.rule,
                    event: h.event,
                    coupling: CouplingMode::Detached,
                    attempts: 0,
                    result: Err("detached action thread panicked before reporting".into()),
                    saga: None,
                });
            }
        }
        std::mem::take(&mut *self.detached_outcomes.lock())
    }

    /// Number of detached actions not yet joined.
    pub fn detached_pending(&self) -> usize {
        self.detached.lock().len()
    }

    /// Snapshot of the dead-letter queue.
    pub fn dead_letters(&self) -> Vec<DeadLetter> {
        self.dead_letters.lock().clone()
    }

    /// Adopt dead letters recovered from the durable table at cold restart
    /// (already persisted — not re-mirrored, not re-counted).
    pub fn seed_dead_letters(&self, letters: Vec<DeadLetter>) {
        self.dead_letters.lock().extend(letters);
    }

    /// Drain the dead-letter queue and re-execute every entry (with the
    /// full retry policy again); entries that fail again re-enter the
    /// queue (and the durable mirror). Returns the requeue outcomes.
    pub fn requeue_dead_letters(&self) -> Vec<ActionOutcome> {
        let letters: Vec<DeadLetter> = std::mem::take(&mut *self.dead_letters.lock());
        if self.durable_dlq.load(Ordering::Relaxed) && !letters.is_empty() {
            let _ = self.runner.internal("delete SysDeadLetter");
        }
        letters
            .into_iter()
            .map(|dl| self.execute(&dl.request, dl.coupling))
            .collect()
    }

    /// Retries performed (attempts beyond the first, across all actions
    /// and saga steps).
    pub fn retry_count(&self) -> u64 {
        self.runner.retries.load(Ordering::Relaxed)
    }

    /// Actions dead-lettered (cumulative; requeued failures count again).
    pub fn dead_letter_count(&self) -> u64 {
        self.dead_lettered.load(Ordering::Relaxed)
    }
}

/// The single-procedure action as one batch (steps 3–4 of §5.6): the
/// `sysContext` refresh, then the procedure. The server runs a batch under
/// one lock group (or the exclusive WAL lane) from start to end, so no
/// other firing's refresh can land between the two, and a durable firing
/// appends one WAL record.
fn action_batch(request: &ActionRequest) -> String {
    sys_context_sql(&request.occurrence, request.context) + "execute " + &request.proc_name
}

/// Run `f` on a worker thread and give up after `timeout`. An abandoned
/// attempt's thread keeps running to completion in the background (the
/// engine has no statement kill switch) — its effects, if any, land under
/// the same idempotency protections as a crash, and the worker's result
/// is discarded.
fn run_with_timeout(
    timeout: Duration,
    f: impl FnOnce() -> std::result::Result<BatchResult, String> + Send + 'static,
) -> std::result::Result<BatchResult, String> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let r = catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| Err(panic_message(p)));
        let _ = tx.send(r);
    });
    match rx.recv_timeout(timeout) {
        Ok(r) => r,
        Err(_) => Err(format!(
            "action attempt exceeded its {}ms deadline and was abandoned",
            timeout.as_millis()
        )),
    }
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("action panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("action panicked: {s}")
    } else {
        "action panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use led::Param;
    use relsql::{SqlEndpoint, SqlServer};

    fn setup() -> (Arc<Gateway>, SessionCtx) {
        let server = SqlServer::new();
        let ctx = SessionCtx::new("db", "u");
        server
            .execute(
                "create table sysContext (tableName varchar(120) not null, \
                 context varchar(12) not null, vNo int not null)",
                &ctx,
            )
            .unwrap();
        (Arc::new(Gateway::new(server)), ctx)
    }

    fn request(proc_name: &str, occ: Occurrence) -> ActionRequest {
        ActionRequest {
            proc_name: proc_name.into(),
            event: "e".into(),
            context: ParameterContext::Recent,
            rule: "r".into(),
            occurrence: occ,
            saga: None,
        }
    }

    #[test]
    fn execute_refreshes_syscontext_then_runs_proc() {
        let (gw, ctx) = setup();
        gw.internal("create table log (msg varchar(50))", &ctx)
            .unwrap();
        gw.internal(
            "create procedure p as insert log select tableName from sysContext",
            &ctx,
        )
        .unwrap();
        let handler = ActionHandler::new(Arc::clone(&gw));
        let occ = Occurrence::point("e", 1, vec![Param::db("e", "shadow1", 5, 1)]);
        let outcome = handler.execute(&request("p", occ), CouplingMode::Immediate);
        assert!(outcome.result.is_ok());
        assert_eq!(outcome.attempts, 1);
        let r = gw.internal("select msg from log", &ctx).unwrap();
        assert_eq!(r.scalar(), Some(&relsql::Value::Str("shadow1".into())));
    }

    #[test]
    fn failed_proc_reports_error_outcome_and_dead_letters() {
        let (gw, _ctx) = setup();
        let handler = ActionHandler::new(gw);
        let occ = Occurrence::point("e", 1, vec![]);
        let outcome = handler.execute(&request("nosuch_proc", occ), CouplingMode::Immediate);
        assert!(outcome.result.is_err());
        assert!(outcome.result.unwrap_err().contains("nosuch_proc"));
        let letters = handler.dead_letters();
        assert_eq!(letters.len(), 1);
        assert_eq!(letters[0].attempts, 1);
        assert_eq!(handler.dead_letter_count(), 1);
    }

    #[test]
    fn detached_actions_run_on_threads() {
        let (gw, ctx) = setup();
        gw.internal("create table log (a int)", &ctx).unwrap();
        gw.internal("create procedure p as insert log values (1)", &ctx)
            .unwrap();
        let handler = Arc::new(ActionHandler::new(Arc::clone(&gw)));
        for _ in 0..4 {
            let occ = Occurrence::point("e", 1, vec![]);
            handler.execute_detached(request("p", occ));
        }
        let outcomes = handler.wait_detached();
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes.iter().all(|o| o.result.is_ok()));
        assert_eq!(handler.detached_pending(), 0);
        let r = gw.internal("select count(*) from log", &ctx).unwrap();
        assert_eq!(r.scalar(), Some(&relsql::Value::Int(4)));
    }

    #[test]
    fn transient_failures_are_retried_to_success() {
        let (gw, ctx) = setup();
        gw.internal("create table log (a int)", &ctx).unwrap();
        gw.internal("create procedure p as insert log values (1)", &ctx)
            .unwrap();
        let handler = ActionHandler::with_policy(
            Arc::clone(&gw),
            RetryPolicy::retries(5, Duration::ZERO, Duration::ZERO),
        );
        // Fail the first two attempts, then let the action through.
        handler.set_fault_injector(Some(Arc::new(|_, attempt| {
            (attempt <= 2).then(|| format!("transient glitch #{attempt}"))
        })));
        let occ = Occurrence::point("e", 1, vec![]);
        let outcome = handler.execute(&request("p", occ), CouplingMode::Immediate);
        assert!(outcome.result.is_ok());
        assert_eq!(outcome.attempts, 3);
        assert_eq!(handler.retry_count(), 2);
        assert!(handler.dead_letters().is_empty());
        // The action ran exactly once: failed attempts never reached SQL.
        let r = gw.internal("select count(*) from log", &ctx).unwrap();
        assert_eq!(r.scalar(), Some(&relsql::Value::Int(1)));
    }

    #[test]
    fn exhausted_retries_dead_letter_then_requeue_succeeds() {
        let (gw, ctx) = setup();
        gw.internal("create table log (a int)", &ctx).unwrap();
        gw.internal("create procedure p as insert log values (1)", &ctx)
            .unwrap();
        let handler = ActionHandler::with_policy(
            Arc::clone(&gw),
            RetryPolicy::retries(2, Duration::ZERO, Duration::ZERO),
        );
        handler.set_fault_injector(Some(Arc::new(|_, _| Some("outage".into()))));
        let occ = Occurrence::point("e", 1, vec![]);
        let outcome = handler.execute(&request("p", occ), CouplingMode::Immediate);
        assert_eq!(outcome.attempts, 2);
        assert!(outcome.result.is_err());
        assert_eq!(handler.dead_letters().len(), 1);
        // The outage clears; requeue drains the queue and the action runs.
        handler.set_fault_injector(None);
        let requeued = handler.requeue_dead_letters();
        assert_eq!(requeued.len(), 1);
        assert!(requeued[0].result.is_ok());
        assert!(handler.dead_letters().is_empty());
        let r = gw.internal("select count(*) from log", &ctx).unwrap();
        assert_eq!(r.scalar(), Some(&relsql::Value::Int(1)));
    }

    #[test]
    fn panicking_action_yields_failed_outcome_not_a_dead_thread() {
        let (gw, _ctx) = setup();
        let handler = Arc::new(ActionHandler::new(gw));
        handler.set_fault_injector(Some(Arc::new(|req: &ActionRequest, _| {
            panic!("boom in {}", req.proc_name)
        })));
        // Synchronous path.
        let occ = Occurrence::point("e", 1, vec![]);
        let outcome = handler.execute(&request("p", occ.clone()), CouplingMode::Immediate);
        let err = outcome.result.unwrap_err();
        assert!(err.contains("panicked"), "{err}");
        assert!(err.contains("boom in p"), "{err}");
        // Detached path: the panic must surface as an outcome, not vanish
        // in wait_detached (regression for the swallowed-join bug).
        handler.execute_detached(request("p", occ));
        let outcomes = handler.wait_detached();
        assert_eq!(outcomes.len(), 1);
        let err = outcomes[0].result.as_ref().unwrap_err();
        assert!(err.contains("panicked"), "{err}");
        assert_eq!(handler.dead_letter_count(), 2);
    }

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let p = RetryPolicy::retries(8, Duration::from_millis(10), Duration::from_millis(40));
        let b1 = p.backoff_after("rule", 1);
        let b2 = p.backoff_after("rule", 2);
        let b3 = p.backoff_after("rule", 3);
        let b4 = p.backoff_after("rule", 4);
        assert!(b1 >= Duration::from_millis(10) && b1 < Duration::from_millis(13));
        assert!(b2 >= Duration::from_millis(20) && b2 < Duration::from_millis(25));
        assert!(b3 >= Duration::from_millis(40) && b3 < Duration::from_millis(50));
        assert!(
            b4 >= Duration::from_millis(40) && b4 < Duration::from_millis(50),
            "capped"
        );
        assert_eq!(b2, p.backoff_after("rule", 2), "deterministic");
        assert_ne!(
            p.backoff_after("rule_a", 2),
            p.backoff_after("rule_b", 2),
            "jitter varies by rule"
        );
        assert_eq!(RetryPolicy::default().backoff_after("r", 1), Duration::ZERO);
    }

    #[test]
    fn hung_attempt_times_out_and_fails_over_to_retry() {
        let (gw, ctx) = setup();
        gw.internal("create table log (a int)", &ctx).unwrap();
        gw.internal("create procedure p as insert log values (1)", &ctx)
            .unwrap();
        let handler = ActionHandler::with_policy(
            Arc::clone(&gw),
            RetryPolicy::retries(2, Duration::ZERO, Duration::ZERO)
                .with_attempt_timeout(Duration::from_millis(50)),
        );
        // First attempt hangs well past the deadline; second sails through.
        handler.set_fault_injector(Some(Arc::new(|_, attempt| {
            if attempt == 1 {
                std::thread::sleep(Duration::from_secs(2));
            }
            None
        })));
        let occ = Occurrence::point("e", 1, vec![]);
        let start = std::time::Instant::now();
        let outcome = handler.execute(&request("p", occ), CouplingMode::Immediate);
        assert!(outcome.result.is_ok(), "{:?}", outcome.result);
        assert_eq!(outcome.attempts, 2);
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "the hung attempt must be abandoned, not awaited"
        );
    }

    #[test]
    fn timeout_error_names_the_deadline() {
        let err = run_with_timeout(Duration::from_millis(10), || {
            std::thread::sleep(Duration::from_secs(1));
            Ok(BatchResult::default())
        })
        .unwrap_err();
        assert!(err.contains("10ms"), "{err}");
        assert!(err.contains("abandoned"), "{err}");
    }

    #[test]
    fn dead_letter_sql_parses_and_quotes() {
        let dl = DeadLetter {
            request: request(
                "db.u.p",
                Occurrence::point("e", 1, vec![Param::db("e", "s", 3, 1)]),
            ),
            coupling: CouplingMode::Immediate,
            error: "it's broken".into(),
            attempts: 2,
        };
        let sql = dead_letter_insert_sql(&dl);
        relsql::parser::parse_script(&sql).unwrap();
        assert!(sql.contains("'it''s broken'"), "{sql}");
        assert!(sql.contains("'IMMEDIATE'"), "{sql}");
        assert!(sql.contains("'s,3,1'"), "{sql}");
    }
}
