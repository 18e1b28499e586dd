//! Transactional action sagas (DESIGN.md §12).
//!
//! A rule's action can be declared as an ordered list of step/compensation
//! pairs instead of a single stored procedure:
//!
//! ```text
//! as saga
//!    step p_reserve compensate p_release
//!    step p_charge  compensate p_refund
//!    step p_ship
//! ```
//!
//! Each forward step runs as **one server batch** — `EXECUTE <step_proc>`
//! followed by the `SysSagaJournal` "done" row — so on a durable server
//! the step's side effects and its journal record share a single WAL
//! record: at every crash point the step either happened (the WAL record
//! is fsynced and replays exactly once) or never happened at all. The
//! journal row carries a deterministic idempotency key (rule + occurrence
//! `vNo` + step index), so a retried, requeued or replayed saga probes the
//! journal and never double-applies a step.
//!
//! When a forward step exhausts its retry budget, a `failed` marker is
//! journaled and the compensations of every applied step run in reverse
//! order (each with the same retry/backoff/timeout policy). On cold
//! restart [`crate::EcaAgent::open`] scans the journal for in-flight sagas
//! and deterministically resumes forward (no `failed` marker) or
//! compensates backward (marker present), skipping every step or
//! compensation that already has a `done` row.
//!
//! The journal deliberately has **no timestamp column**: a resumed run
//! must produce a journal byte-identical to an uninterrupted one, and
//! post-recovery statements see different virtual-clock values.

use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use led::{CouplingMode, Occurrence, ParameterContext};
use relsql::sync::Mutex;
use relsql::{BatchResult, Value};

use crate::action::{ActionOutcome, ActionRequest, BatchRunner};
use crate::codegen::sql_quote;
use crate::context_proc::sys_context_sql;
use crate::error::{EcaError, Result};

/// One forward step and its optional compensation, both user-created
/// stored procedures (internal names).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SagaStep {
    pub proc: String,
    pub compensation: Option<String>,
}

/// A parsed saga declaration: an ordered list of steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SagaSpec {
    pub steps: Vec<SagaStep>,
}

impl SagaSpec {
    /// Parse an action body of the form
    /// `saga step <proc> [compensate <proc>] step <proc> ...`.
    ///
    /// Returns `Ok(None)` when the body is not a saga declaration (does
    /// not start with the `saga` keyword); `expand` maps each procedure
    /// name to its internal form (§5.1 name expansion).
    pub fn parse_action(body: &str, expand: &dyn Fn(&str) -> String) -> Result<Option<SagaSpec>> {
        let mut tokens = body.split_whitespace().peekable();
        match tokens.peek() {
            Some(t) if t.eq_ignore_ascii_case("saga") => {
                tokens.next();
            }
            _ => return Ok(None),
        }
        let mut steps: Vec<SagaStep> = Vec::new();
        while let Some(tok) = tokens.next() {
            if !tok.eq_ignore_ascii_case("step") {
                return Err(EcaError::EcaSyntax(format!(
                    "saga action: expected 'step', found '{tok}'"
                )));
            }
            let proc = tokens.next().ok_or_else(|| {
                EcaError::EcaSyntax("saga action: 'step' needs a procedure name".into())
            })?;
            let mut step = SagaStep {
                proc: expand(proc),
                compensation: None,
            };
            if let Some(next) = tokens.peek() {
                if next.eq_ignore_ascii_case("compensate") {
                    tokens.next();
                    let comp = tokens.next().ok_or_else(|| {
                        EcaError::EcaSyntax(
                            "saga action: 'compensate' needs a procedure name".into(),
                        )
                    })?;
                    step.compensation = Some(expand(comp));
                }
            }
            steps.push(step);
        }
        if steps.is_empty() {
            return Err(EcaError::EcaSyntax(
                "saga action: at least one step is required".into(),
            ));
        }
        Ok(Some(SagaSpec { steps }))
    }
}

/// The saga instance key: rule + triggering occurrence number. One firing
/// of one rule is one saga.
pub fn saga_key(rule: &str, vno: i64) -> String {
    format!("{rule}#{vno}")
}

/// The per-unit idempotency key journaled with every step/compensation
/// (rule id + occurrence vNo + phase + step index).
pub fn idem_key(rule: &str, vno: i64, phase: &str, step: i64) -> String {
    format!("{rule}#{vno}/{phase}{step}")
}

/// The triggering occurrence number of a firing: the highest constituent
/// `vNo` in its parameter list (a primitive occurrence has exactly one).
pub fn occurrence_vno(occurrence: &Occurrence) -> i64 {
    occurrence
        .params
        .iter()
        .filter_map(|p| p.vno)
        .max()
        .unwrap_or(0)
}

// Journal phase / state vocabulary (stored in char columns, trimmed on
// load). `saga` rows bracket the instance; `forward` / `comp` rows record
// individual units.
pub const PHASE_SAGA: &str = "saga";
pub const PHASE_FORWARD: &str = "forward";
pub const PHASE_COMP: &str = "comp";
pub const STATE_STARTED: &str = "started";
pub const STATE_DONE: &str = "done";
pub const STATE_FAILED: &str = "failed";
pub const STATE_COMMITTED: &str = "committed";
pub const STATE_COMPENSATED: &str = "compensated";

/// How a saga execution ended, attached to its [`ActionOutcome`] so
/// clients (shell, serve) can tell "saga compensated" from "action
/// dead-lettered".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SagaDisposition {
    /// All forward steps applied; terminal `committed` row journaled.
    Committed { steps: u32 },
    /// The journal already held a terminal row (duplicate firing, requeue
    /// of a settled saga, or post-recovery re-raise): nothing re-applied.
    AlreadySettled,
    /// A forward step failed and every applied step was compensated;
    /// terminal `compensated` row journaled. **Not** dead-lettered — the
    /// saga is settled.
    Compensated {
        failed_step: u32,
        compensations: u32,
    },
    /// A compensation itself failed: the saga is parked in-flight (journal
    /// unterminated) and the action is dead-lettered; a requeue or restart
    /// resumes compensation where it stopped.
    Parked { failed_step: u32 },
}

/// One decoded `SysSagaJournal` row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SagaJournalRow {
    pub key: String,
    pub rule: String,
    pub event: String,
    pub vno: i64,
    pub step: i64,
    pub phase: String,
    pub state: String,
    pub idem: String,
}

impl SagaJournalRow {
    /// Decode a `select sagaKey, triggerName, eventName, vNo, stepIdx,
    /// phase, state, idemKey` row.
    pub fn decode(row: &[Value]) -> Option<SagaJournalRow> {
        let s = |i: usize| match row.get(i) {
            Some(Value::Str(s)) => Some(s.trim().to_string()),
            _ => None,
        };
        let n = |i: usize| match row.get(i) {
            Some(Value::Int(n)) => Some(*n),
            _ => None,
        };
        Some(SagaJournalRow {
            key: s(0)?,
            rule: s(1)?,
            event: s(2)?,
            vno: n(3)?,
            step: n(4)?,
            phase: s(5)?,
            state: s(6)?,
            idem: s(7)?,
        })
    }
}

/// The SQL for one journal row.
fn journal_insert_sql(
    key: &str,
    rule: &str,
    event: &str,
    vno: i64,
    step: i64,
    phase: &str,
    state: &str,
) -> String {
    format!(
        "insert SysSagaJournal values ({}, {}, {}, {vno}, {step}, {}, {}, {})",
        sql_quote(key),
        sql_quote(rule),
        sql_quote(event),
        sql_quote(phase),
        sql_quote(state),
        sql_quote(&idem_key(rule, vno, phase, step)),
    )
}

/// INSERT rows persisting a saga declaration into `SysSagaStep`.
pub fn persist_saga_steps_sql(trigger: &str, spec: &SagaSpec) -> String {
    spec.steps
        .iter()
        .enumerate()
        .map(|(i, s)| {
            format!(
                "insert SysSagaStep values ({}, {i}, {}, {})",
                sql_quote(trigger),
                sql_quote(&s.proc),
                match &s.compensation {
                    Some(c) => sql_quote(c),
                    None => "null".to_string(),
                },
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// The deterministic recovery decision for one saga instance, derived
/// purely from its journal rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SagaPlan {
    /// No journal rows: run the saga from the top.
    Fresh,
    /// A terminal row exists: do nothing.
    Settled { state: String },
    /// No failure marker: resume forward, skipping steps with done rows.
    ResumeForward { done: BTreeSet<i64> },
    /// Failure marker present: compensate the applied steps in reverse,
    /// skipping compensations with done rows.
    Compensate {
        applied: BTreeSet<i64>,
        comps_done: BTreeSet<i64>,
        failed_step: i64,
    },
}

/// Derive the recovery plan from journal rows (the §12 decision rule).
/// Pure and deterministic: two agents scanning the same journal make the
/// same decision.
pub fn plan_from_journal(rows: &[SagaJournalRow]) -> SagaPlan {
    if rows.is_empty() {
        return SagaPlan::Fresh;
    }
    let mut applied: BTreeSet<i64> = BTreeSet::new();
    let mut comps_done: BTreeSet<i64> = BTreeSet::new();
    let mut failed_step: Option<i64> = None;
    for r in rows {
        match (r.phase.as_str(), r.state.as_str()) {
            (PHASE_SAGA, STATE_COMMITTED) | (PHASE_SAGA, STATE_COMPENSATED) => {
                return SagaPlan::Settled {
                    state: r.state.clone(),
                };
            }
            (PHASE_FORWARD, STATE_DONE) => {
                applied.insert(r.step);
            }
            (PHASE_FORWARD, STATE_FAILED) => failed_step = Some(r.step),
            (PHASE_COMP, STATE_DONE) => {
                comps_done.insert(r.step);
            }
            _ => {} // the 'saga started' row
        }
    }
    match failed_step {
        Some(f) => SagaPlan::Compensate {
            applied,
            comps_done,
            failed_step: f,
        },
        None => SagaPlan::ResumeForward { done: applied },
    }
}

/// A crash-point boundary crossed by the executor; the chaos hook sees
/// every one. `step` is `-1` for the instance-level `saga` rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SagaBoundary<'a> {
    pub key: &'a str,
    pub phase: &'a str,
    pub step: i64,
    /// `false` = before the unit's journal batch, `true` = after it.
    pub after: bool,
}

/// Chaos hook: invoked at every saga boundary; returning `true` simulates
/// a hard process death by panicking out of the executor (the test
/// catches the unwind, discards the process state, and recovers from the
/// durable image).
pub type SagaCrashHook = Arc<dyn Fn(&SagaBoundary) -> bool + Send + Sync>;

relsql::counters! {
    /// Saga executor counters, part of the agent's metrics.
    pub struct SagaCounters("sagas") {
        /// Saga instances started fresh (journal `started` rows written).
        sagas_started,
        /// Sagas that committed (every forward step applied).
        sagas_committed,
        /// Sagas that failed forward and fully compensated backward.
        sagas_compensated,
        /// In-flight sagas resumed from the journal (restart or requeue).
        sagas_resumed,
        /// Forward saga steps applied (journaled `done`).
        saga_steps_executed,
        /// Compensations applied (journaled `done`).
        saga_compensations,
    }
}

/// One saga invocation handed to the executor.
pub struct SagaRun<'a> {
    pub rule: &'a str,
    pub event: &'a str,
    pub vno: i64,
    pub spec: &'a SagaSpec,
    /// The firing's occurrence; a fresh instance refreshes `sysContext`
    /// from it in the batch that journals `started` (a resumed saga's
    /// context rows are already durable).
    pub occurrence: Occurrence,
    pub context: ParameterContext,
    pub coupling: CouplingMode,
}

/// Executes sagas against the server. Owned by the
/// [`crate::action::ActionHandler`]; every step and compensation goes
/// through the handler's attempt path, so the fault injector, the retry
/// policy and `STATS` cover saga steps too.
pub struct SagaExecutor {
    runner: Arc<BatchRunner>,
    crash: Mutex<Option<SagaCrashHook>>,
    counters: SagaCounters,
}

impl SagaExecutor {
    pub(crate) fn new(runner: Arc<BatchRunner>) -> Self {
        SagaExecutor {
            runner,
            crash: Mutex::new(None),
            counters: SagaCounters::default(),
        }
    }

    pub fn counters(&self) -> &SagaCounters {
        &self.counters
    }

    /// Install (or clear) the crash-point chaos hook.
    pub fn set_crash_hook(&self, hook: Option<SagaCrashHook>) {
        *self.crash.lock() = hook;
    }

    fn check_crash(&self, key: &str, phase: &str, step: i64, after: bool) {
        let hook = self.crash.lock().clone();
        if let Some(hook) = hook {
            let b = SagaBoundary {
                key,
                phase,
                step,
                after,
            };
            if hook(&b) {
                panic!(
                    "saga chaos: injected crash at {phase}[{step}] {} of '{key}'",
                    if after { "exit" } else { "entry" }
                );
            }
        }
    }

    /// Journal rows of one saga instance, in insertion order.
    pub fn journal_rows(&self, key: &str) -> Result<Vec<SagaJournalRow>> {
        let r = self.runner.internal(&format!(
            "select sagaKey, triggerName, eventName, vNo, stepIdx, phase, state, idemKey \
             from SysSagaJournal where sagaKey = {}",
            sql_quote(key)
        ))?;
        let rows = match r.last_select() {
            Some(q) => &q.rows,
            None => return Ok(Vec::new()),
        };
        Ok(rows
            .iter()
            .filter_map(|r| SagaJournalRow::decode(r))
            .collect())
    }

    /// Run (or resume) one saga instance. All three entry paths — dispatch
    /// of a firing, dead-letter requeue, and cold-restart recovery —
    /// converge here: the journal decides what is left to do.
    pub fn execute(&self, run: &SagaRun<'_>) -> ActionOutcome {
        let key = saga_key(run.rule, run.vno);
        let mut attempts = 0u32;
        let rows = match self.journal_rows(&key) {
            Ok(rows) => rows,
            Err(e) => {
                return self.outcome_err(run, attempts, format!("saga journal read: {e}"), None)
            }
        };
        match plan_from_journal(&rows) {
            SagaPlan::Settled { .. } => {
                self.outcome_ok(run, 0, Some(SagaDisposition::AlreadySettled))
            }
            SagaPlan::Fresh => {
                self.counters.sagas_started.fetch_add(1, Ordering::Relaxed);
                self.check_crash(&key, PHASE_SAGA, -1, false);
                // The context refresh and the `started` row: one batch.
                let start = sys_context_sql(&run.occurrence, run.context)
                    + &journal_insert_sql(
                        &key,
                        run.rule,
                        run.event,
                        run.vno,
                        -1,
                        PHASE_SAGA,
                        STATE_STARTED,
                    );
                if let Err(e) = self.runner.internal(&start) {
                    return self.outcome_err(run, attempts, format!("saga journal: {e}"), None);
                }
                self.check_crash(&key, PHASE_SAGA, -1, true);
                self.run_forward(run, &key, BTreeSet::new(), &mut attempts)
            }
            SagaPlan::ResumeForward { done } => {
                self.counters.sagas_resumed.fetch_add(1, Ordering::Relaxed);
                self.run_forward(run, &key, done, &mut attempts)
            }
            SagaPlan::Compensate {
                applied,
                comps_done,
                failed_step,
            } => {
                self.counters.sagas_resumed.fetch_add(1, Ordering::Relaxed);
                self.compensate(
                    run,
                    &key,
                    failed_step,
                    &applied,
                    &comps_done,
                    &mut attempts,
                    "resumed after restart".to_string(),
                )
            }
        }
    }

    /// Forward phase: run every step not yet journaled done, in order.
    fn run_forward(
        &self,
        run: &SagaRun<'_>,
        key: &str,
        mut applied: BTreeSet<i64>,
        attempts: &mut u32,
    ) -> ActionOutcome {
        for (i, step) in run.spec.steps.iter().enumerate() {
            let i = i as i64;
            if applied.contains(&i) {
                continue;
            }
            match self.run_unit(run, key, PHASE_FORWARD, i, &step.proc, attempts) {
                Ok(()) => {
                    self.counters
                        .saga_steps_executed
                        .fetch_add(1, Ordering::Relaxed);
                    applied.insert(i);
                }
                Err(e) => {
                    // Journal the failure marker so a crash from here on
                    // resumes into compensation, not a forward retry.
                    self.check_crash(key, PHASE_FORWARD, i, false);
                    if let Err(je) = self.runner.internal(&journal_insert_sql(
                        key,
                        run.rule,
                        run.event,
                        run.vno,
                        i,
                        PHASE_FORWARD,
                        STATE_FAILED,
                    )) {
                        return self.outcome_err(
                            run,
                            *attempts,
                            format!("saga step {i} failed ({e}); journaling the failure also failed: {je}"),
                            Some(SagaDisposition::Parked {
                                failed_step: i as u32,
                            }),
                        );
                    }
                    self.check_crash(key, PHASE_FORWARD, i, true);
                    return self.compensate(run, key, i, &applied, &BTreeSet::new(), attempts, e);
                }
            }
        }
        self.check_crash(key, PHASE_SAGA, -1, false);
        if let Err(e) = self.runner.internal(&journal_insert_sql(
            key,
            run.rule,
            run.event,
            run.vno,
            -1,
            PHASE_SAGA,
            STATE_COMMITTED,
        )) {
            return self.outcome_err(run, *attempts, format!("saga commit journal: {e}"), None);
        }
        self.check_crash(key, PHASE_SAGA, -1, true);
        self.counters
            .sagas_committed
            .fetch_add(1, Ordering::Relaxed);
        self.outcome_ok(
            run,
            *attempts,
            Some(SagaDisposition::Committed {
                steps: run.spec.steps.len() as u32,
            }),
        )
    }

    /// Backward phase: compensate the applied steps in reverse order.
    #[allow(clippy::too_many_arguments)]
    fn compensate(
        &self,
        run: &SagaRun<'_>,
        key: &str,
        failed_step: i64,
        applied: &BTreeSet<i64>,
        comps_done: &BTreeSet<i64>,
        attempts: &mut u32,
        cause: String,
    ) -> ActionOutcome {
        let mut compensations = comps_done.len() as u32;
        for &j in applied.iter().rev() {
            let comp = match run
                .spec
                .steps
                .get(j as usize)
                .and_then(|s| s.compensation.as_ref())
            {
                Some(c) => c,
                None => continue,
            };
            if comps_done.contains(&j) {
                continue;
            }
            match self.run_unit(run, key, PHASE_COMP, j, comp, attempts) {
                Ok(()) => {
                    self.counters
                        .saga_compensations
                        .fetch_add(1, Ordering::Relaxed);
                    compensations += 1;
                }
                Err(e) => {
                    // Park in-flight: a requeue or restart resumes the
                    // compensation from here.
                    return self.outcome_err(
                        run,
                        *attempts,
                        format!(
                            "saga parked: compensation for step {j} failed: {e} \
                             (original failure at step {failed_step}: {cause})"
                        ),
                        Some(SagaDisposition::Parked {
                            failed_step: failed_step as u32,
                        }),
                    );
                }
            }
        }
        self.check_crash(key, PHASE_SAGA, -1, false);
        if let Err(e) = self.runner.internal(&journal_insert_sql(
            key,
            run.rule,
            run.event,
            run.vno,
            -1,
            PHASE_SAGA,
            STATE_COMPENSATED,
        )) {
            return self.outcome_err(
                run,
                *attempts,
                format!("saga compensated but terminal journal failed: {e}"),
                Some(SagaDisposition::Parked {
                    failed_step: failed_step as u32,
                }),
            );
        }
        self.check_crash(key, PHASE_SAGA, -1, true);
        self.counters
            .sagas_compensated
            .fetch_add(1, Ordering::Relaxed);
        self.outcome_err(
            run,
            *attempts,
            format!("saga compensated: step {failed_step} failed: {cause}"),
            Some(SagaDisposition::Compensated {
                failed_step: failed_step as u32,
                compensations,
            }),
        )
    }

    /// One step or compensation: the `EXECUTE proc` + journal-done row as
    /// a single batch (one WAL record), through the handler's attempt path.
    /// The crash hook fires outside the attempt, whose panic capture would
    /// otherwise swallow it, so an injected crash unwinds the executor.
    fn run_unit(
        &self,
        run: &SagaRun<'_>,
        key: &str,
        phase: &str,
        step: i64,
        proc: &str,
        attempts: &mut u32,
    ) -> std::result::Result<(), String> {
        let batch = format!(
            "execute {proc}\n{}",
            journal_insert_sql(key, run.rule, run.event, run.vno, step, phase, STATE_DONE)
        );
        // The injector sees a per-unit request whose proc_name is the
        // step's procedure, so chaos tests can target individual steps.
        let request = ActionRequest {
            proc_name: proc.to_string(),
            event: run.event.to_string(),
            context: run.context,
            rule: run.rule.to_string(),
            occurrence: run.occurrence.clone(),
            saga: None,
        };
        self.check_crash(key, phase, step, false);
        self.runner.run(&request, &batch, attempts)?;
        self.check_crash(key, phase, step, true);
        Ok(())
    }

    fn outcome_ok(
        &self,
        run: &SagaRun<'_>,
        attempts: u32,
        saga: Option<SagaDisposition>,
    ) -> ActionOutcome {
        ActionOutcome {
            rule: run.rule.to_string(),
            event: run.event.to_string(),
            coupling: run.coupling,
            attempts,
            result: Ok(BatchResult::default()),
            saga,
        }
    }

    fn outcome_err(
        &self,
        run: &SagaRun<'_>,
        attempts: u32,
        error: String,
        saga: Option<SagaDisposition>,
    ) -> ActionOutcome {
        ActionOutcome {
            rule: run.rule.to_string(),
            event: run.event.to_string(),
            coupling: run.coupling,
            attempts,
            result: Err(error),
            saga,
        }
    }
}

// ------------------------------------------------- durable dead letters

/// Serialize an occurrence's db params as `table,vno,ts;...` for the
/// `SysDeadLetter.params` column (only db params drive context refresh,
/// so only they round-trip).
pub fn encode_params(occurrence: &Occurrence) -> String {
    occurrence
        .params
        .iter()
        .filter_map(|p| {
            let table = p.table.as_deref()?;
            let vno = p.vno?;
            Some(format!("{table},{vno},{}", p.ts))
        })
        .collect::<Vec<_>>()
        .join(";")
}

/// Inverse of [`encode_params`].
pub fn decode_params(event: &str, encoded: &str) -> Vec<led::Param> {
    encoded
        .split(';')
        .filter(|s| !s.is_empty())
        .filter_map(|s| {
            let mut it = s.rsplitn(3, ',');
            let ts: i64 = it.next()?.parse().ok()?;
            let vno: i64 = it.next()?.parse().ok()?;
            let table = it.next()?;
            Some(led::Param::db(event, table, vno, ts))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use led::Param;

    fn ident(n: &str) -> String {
        format!("db.u.{n}")
    }

    #[test]
    fn parse_saga_action_with_and_without_compensations() {
        let spec = SagaSpec::parse_action(
            "saga step p_reserve compensate p_release step p_charge compensate p_refund step p_ship",
            &|n| ident(n),
        )
        .unwrap()
        .unwrap();
        assert_eq!(spec.steps.len(), 3);
        assert_eq!(spec.steps[0].proc, "db.u.p_reserve");
        assert_eq!(
            spec.steps[0].compensation.as_deref(),
            Some("db.u.p_release")
        );
        assert_eq!(spec.steps[2].proc, "db.u.p_ship");
        assert_eq!(spec.steps[2].compensation, None);
    }

    #[test]
    fn non_saga_bodies_pass_through() {
        assert_eq!(
            SagaSpec::parse_action("print 'hello'", &|n| ident(n)).unwrap(),
            None
        );
        assert_eq!(
            SagaSpec::parse_action("update t set a = 1", &|n| ident(n)).unwrap(),
            None
        );
    }

    #[test]
    fn malformed_saga_bodies_error() {
        assert!(SagaSpec::parse_action("saga", &|n| ident(n)).is_err());
        assert!(SagaSpec::parse_action("saga step", &|n| ident(n)).is_err());
        assert!(SagaSpec::parse_action("saga p_x", &|n| ident(n)).is_err());
        assert!(SagaSpec::parse_action("saga step p_x compensate", &|n| ident(n)).is_err());
    }

    #[test]
    fn keys_are_deterministic_and_distinct() {
        assert_eq!(saga_key("db.u.t", 7), "db.u.t#7");
        assert_eq!(idem_key("db.u.t", 7, PHASE_FORWARD, 2), "db.u.t#7/forward2");
        assert_ne!(
            idem_key("db.u.t", 7, PHASE_FORWARD, 2),
            idem_key("db.u.t", 7, PHASE_COMP, 2)
        );
        let occ = Occurrence::point(
            "e",
            9,
            vec![Param::db("e", "s1", 3, 1), Param::db("e", "s2", 5, 2)],
        );
        assert_eq!(occurrence_vno(&occ), 5);
        assert_eq!(occurrence_vno(&Occurrence::point("e", 0, vec![])), 0);
    }

    fn row(step: i64, phase: &str, state: &str) -> SagaJournalRow {
        SagaJournalRow {
            key: "k".into(),
            rule: "r".into(),
            event: "e".into(),
            vno: 1,
            step,
            phase: phase.into(),
            state: state.into(),
            idem: idem_key("r", 1, phase, step),
        }
    }

    #[test]
    fn plan_decision_rule() {
        // Empty journal: fresh.
        assert_eq!(plan_from_journal(&[]), SagaPlan::Fresh);
        // Terminal row: settled, regardless of what else is present.
        assert!(matches!(
            plan_from_journal(&[
                row(-1, PHASE_SAGA, STATE_STARTED),
                row(0, PHASE_FORWARD, STATE_DONE),
                row(-1, PHASE_SAGA, STATE_COMMITTED),
            ]),
            SagaPlan::Settled { .. }
        ));
        // In-flight, no failure marker: resume forward past done steps.
        match plan_from_journal(&[
            row(-1, PHASE_SAGA, STATE_STARTED),
            row(0, PHASE_FORWARD, STATE_DONE),
            row(1, PHASE_FORWARD, STATE_DONE),
        ]) {
            SagaPlan::ResumeForward { done } => {
                assert_eq!(done.into_iter().collect::<Vec<_>>(), vec![0, 1])
            }
            other => panic!("{other:?}"),
        }
        // Failure marker: compensate applied steps, skipping done comps.
        match plan_from_journal(&[
            row(-1, PHASE_SAGA, STATE_STARTED),
            row(0, PHASE_FORWARD, STATE_DONE),
            row(1, PHASE_FORWARD, STATE_DONE),
            row(2, PHASE_FORWARD, STATE_FAILED),
            row(1, PHASE_COMP, STATE_DONE),
        ]) {
            SagaPlan::Compensate {
                applied,
                comps_done,
                failed_step,
            } => {
                assert_eq!(applied.into_iter().collect::<Vec<_>>(), vec![0, 1]);
                assert_eq!(comps_done.into_iter().collect::<Vec<_>>(), vec![1]);
                assert_eq!(failed_step, 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn journal_sql_parses_and_roundtrips() {
        let sql = journal_insert_sql(
            "db.u.t#3",
            "db.u.t",
            "db.u.e",
            3,
            1,
            PHASE_FORWARD,
            STATE_DONE,
        );
        relsql::parser::parse_script(&sql).unwrap();
        assert!(sql.contains("'db.u.t#3'"));
        assert!(sql.contains("'db.u.t#3/forward1'"));
        let steps_sql = persist_saga_steps_sql(
            "db.u.t",
            &SagaSpec {
                steps: vec![
                    SagaStep {
                        proc: "db.u.p1".into(),
                        compensation: Some("db.u.c1".into()),
                    },
                    SagaStep {
                        proc: "db.u.p2".into(),
                        compensation: None,
                    },
                ],
            },
        );
        relsql::parser::parse_script(&steps_sql).unwrap();
        assert!(steps_sql.contains("'db.u.p1'"));
        assert!(steps_sql.contains("null"));
    }

    #[test]
    fn params_roundtrip_through_text_encoding() {
        let occ = Occurrence::point(
            "db.u.e",
            5,
            vec![
                Param::db("db.u.e", "db.u.e_inserted", 4, 5),
                Param::db("db.u.e", "db.u.e_deleted", 4, 5),
            ],
        );
        let encoded = encode_params(&occ);
        let decoded = decode_params("db.u.e", &encoded);
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0].table.as_deref(), Some("db.u.e_inserted"));
        assert_eq!(decoded[0].vno, Some(4));
        assert_eq!(decoded[0].ts, 5);
        assert!(decode_params("e", "").is_empty());
    }
}
