//! The ECA Agent (§3, Figure 2): the Virtual Active SQL Server.
//!
//! Wires the seven functional modules together: Gateway Open Server
//! ([`crate::gateway`]), Language Filter ([`crate::filter`]), ECA Parser
//! ([`crate::eca_parser`] + [`crate::codegen`]), Local Event Detector
//! ([`led`]), Persistent Manager ([`crate::persist`]), Event Notifier
//! ([`crate::notifier`]) and Action Handler ([`crate::action`]).
//!
//! Control flow follows Figures 3 and 4: ECA commands are parsed, code is
//! generated and installed through the gateway, and rules are persisted;
//! plain SQL passes through, native triggers notify the agent over the
//! datagram channel, the LED detects (composite) events, and the Action
//! Handler invokes stored procedures back inside the server.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use led::{CouplingMode, Detector, Firing, Occurrence, Param, ParameterContext};
use relsql::ast::TriggerOp;
use relsql::notify::{ChannelSink, ChaosSink, Datagram, FaultPlan, NotificationSink};
use relsql::sync::channel::Receiver;
use relsql::sync::Mutex;
use relsql::{BatchResult, DbSnapshot, Metrics, SessionCtx, SqlServer};

use crate::action::{
    ActionHandler, ActionOutcome, ActionRequest, DeadLetter, FaultInjector, RetryPolicy,
};
use crate::codegen;
use crate::define::{self, Direction, Entry};
use crate::eca_parser::{parse_eca, EcaCommand};
use crate::error::{AgentError, Result};
use crate::filter::{classify, contains_commit, Classification};
use crate::gateway::Gateway;
use crate::naming;
use crate::notifier;
use crate::persist::PersistentManager;
use crate::registry::{CompositeEventInfo, PrimitiveEventInfo, Registry, TriggerInfo, TriggerKind};
use crate::reliability::{Admission, ReliabilityTracker};
use crate::saga::{plan_from_journal, SagaCrashHook, SagaJournalRow, SagaPlan, SagaSpec, SagaStep};

/// Agent configuration.
///
/// Construct through [`AgentConfig::builder`]; the struct is
/// `#[non_exhaustive]` so fields can be added without breaking callers.
/// The `Default` impl remains as a deprecated construction path for one
/// release — it produces the same configuration as an unmodified builder.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct AgentConfig {
    /// Host/port baked into generated `syb_sendmsg` calls (cosmetic — the
    /// in-process transport ignores them, like the paper's fixed UDP
    /// endpoint in Figure 11).
    pub notify_host: String,
    pub notify_port: u16,
    /// Fault plan (drop, duplicate, reorder, delay bursts) for the
    /// notification channel; `None` delivers every datagram.
    pub fault_plan: Option<FaultPlan>,
    /// Exactly-once notification semantics: suppress duplicate
    /// `(event, vNo)` deliveries, repair gaps from the durable occurrence
    /// counters, and replay occurrences missed while the agent was down.
    /// Disable to get the paper's honest fire-and-forget UDP behaviour
    /// (events lost on the channel stay lost).
    pub exactly_once: bool,
    /// Retry policy for failing rule actions (default: single attempt).
    pub retry: RetryPolicy,
    /// Safety cap on occurrences one pump raises (a client call's
    /// notifications plus the cascades its actions cause).
    pub max_cascade: usize,
    /// Per-node LED buffered-occurrence ceiling (circuit breaker for
    /// unbounded CHRONICLE/CONTINUOUS state — see experiment E9).
    /// `None` disables the check.
    pub led_state_limit: Option<usize>,
    /// Bound on the notification channel feeding the detector stage.
    /// `None` keeps the channel unbounded; `Some(depth)` makes `syb_sendmsg`
    /// drop-on-full (UDP semantics, counted in
    /// the `notify_overflows` metric) so a slow detector can never hold
    /// table locks hostage — the exactly-once anti-entropy sweep repairs
    /// any overflowed occurrence from the durable version tables.
    pub notify_queue_depth: Option<usize>,
}

impl AgentConfig {
    /// Start building a configuration from the defaults.
    pub fn builder() -> AgentConfigBuilder {
        AgentConfigBuilder {
            config: AgentConfig {
                notify_host: "128.227.205.215".into(), // the paper's Figure 11 address
                notify_port: 10006,
                fault_plan: None,
                exactly_once: true,
                retry: RetryPolicy::default(),
                max_cascade: 10_000,
                led_state_limit: None,
                notify_queue_depth: None,
            },
        }
    }
}

// Deprecated construction path (one release): prefer
// `AgentConfig::builder().build()`. Kept because `EcaAgent::with_defaults`
// and a long tail of tests still go through it.
impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig::builder().build()
    }
}

/// Builder for [`AgentConfig`]. Every setter mirrors one config field;
/// unset fields keep their defaults.
///
/// ```
/// use eca_core::AgentConfig;
/// let config = AgentConfig::builder()
///     .exactly_once(true)
///     .max_cascade(50_000)
///     .build();
/// assert!(config.exactly_once);
/// ```
#[derive(Debug, Clone)]
pub struct AgentConfigBuilder {
    config: AgentConfig,
}

impl AgentConfigBuilder {
    /// Host baked into generated `syb_sendmsg` calls.
    pub fn notify_host(mut self, host: impl Into<String>) -> Self {
        self.config.notify_host = host.into();
        self
    }

    /// Port baked into generated `syb_sendmsg` calls.
    pub fn notify_port(mut self, port: u16) -> Self {
        self.config.notify_port = port;
        self
    }

    /// Drop-only channel loss: shorthand for
    /// `fault_plan(FaultPlan::lossy(probability, seed))`.
    pub fn drop_probability(self, probability: f64, seed: u64) -> Self {
        self.fault_plan(FaultPlan::lossy(probability, seed))
    }

    /// Full channel fault plan.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.config.fault_plan = Some(plan);
        self
    }

    /// Exactly-once notification semantics (on by default).
    pub fn exactly_once(mut self, on: bool) -> Self {
        self.config.exactly_once = on;
        self
    }

    /// Retry policy for failing rule actions.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.config.retry = policy;
        self
    }

    /// Safety cap on occurrences one pump raises.
    pub fn max_cascade(mut self, cap: usize) -> Self {
        self.config.max_cascade = cap;
        self
    }

    /// Per-node LED buffered-occurrence ceiling (`None` disables).
    pub fn led_state_limit(mut self, limit: Option<usize>) -> Self {
        self.config.led_state_limit = limit;
        self
    }

    /// Bound the notification channel feeding the detector stage (`None`
    /// keeps it unbounded).
    pub fn notify_queue_depth(mut self, depth: Option<usize>) -> Self {
        self.config.notify_queue_depth = depth;
        self
    }

    /// Finish the build.
    pub fn build(self) -> AgentConfig {
        self.config
    }
}

relsql::counters! {
    /// The agent's own counters. [`EcaAgent::stats`] adds reliability,
    /// action, saga, gateway and server readings.
    struct AgentCounters("agent") {
        /// ECA commands (rule definitions and drops) handled.
        eca_commands,
        /// Notification datagrams decoded and signalled.
        notifications,
        malformed_notifications,
        actions_executed,
        /// Stamped wire requests journaled into `SysWireJournal`.
        wire_journaled,
        /// Stamped wire requests answered from the journal instead of
        /// re-applied (the exactly-once dedup firing).
        wire_replays,
    }
}

/// The agent's counter snapshot, by its older name.
pub type AgentStats = Metrics;

/// What one client call produced.
#[derive(Debug, Default)]
pub struct AgentResponse {
    /// Direct results from the SQL server (pass-through path).
    pub server: BatchResult,
    /// Rule actions executed as a consequence of this call (IMMEDIATE and
    /// flushed DEFERRED rules).
    pub actions: Vec<ActionOutcome>,
    /// Agent-level informational messages.
    pub messages: Vec<String>,
}

impl AgentResponse {
    /// Outcome of a specific rule's action, if it ran.
    pub fn action_of(&self, rule_suffix: &str) -> Option<&ActionOutcome> {
        self.actions.iter().find(|a| a.rule.ends_with(rule_suffix))
    }
}

/// What [`EcaAgent::execute_once`] produced for an idempotency-keyed
/// request (DESIGN.md §16).
#[derive(Debug)]
pub enum ExecOutcome {
    /// First application: the batch ran and these are its results.
    Fresh(AgentResponse),
    /// The key was already journaled — the batch's effects are in the
    /// engine from an earlier submission and were **not** re-applied. The
    /// payload is the recorded response line if the backfill ran before
    /// the crash/reconnect, else `None` (caller answers with a
    /// placeholder).
    Replayed(Option<String>),
}

/// Callback invoked for every primitive-event occurrence the agent raises
/// into its LED. Used by the Global Event Detector (§6 future work) to
/// subscribe to a site's event stream.
pub type OccurrenceListener = Arc<dyn Fn(&str, &[Param], i64) + Send + Sync>;

struct Inner {
    gateway: Arc<Gateway>,
    led: Mutex<Detector>,
    registry: Mutex<Registry>,
    persist: PersistentManager,
    action: Arc<ActionHandler>,
    rx: Receiver<Datagram>,
    /// The base channel sink (possibly bounded) — kept for the overflow
    /// counter even when a chaos sink wraps it.
    sink: Arc<ChannelSink>,
    /// The chaos sink, when a fault plan is active — kept so tests and the
    /// shell can flush held datagrams and read channel fault counters.
    chaos: Option<Arc<ChaosSink<ChannelSink>>>,
    /// Per-event high-water marks for exactly-once admission.
    tracker: Mutex<ReliabilityTracker>,
    config: AgentConfig,
    listeners: Mutex<Vec<OccurrenceListener>>,
    /// When set, a dedicated notifier thread owns the channel and the
    /// synchronous per-call pump stands down.
    async_mode: std::sync::atomic::AtomicBool,
    /// Stop flag for the notifier thread.
    notifier_stop: std::sync::atomic::AtomicBool,
    /// Drain latch: once set, `execute` rejects new statements with
    /// [`EcaError::Unavailable`] while in-flight work quiesces.
    draining: std::sync::atomic::AtomicBool,
    /// Outcomes produced on the notifier thread, for later collection.
    async_outcomes: Mutex<Vec<ActionOutcome>>,
    /// Serializes ECA commands from plan to activation.
    define_lock: Mutex<()>,
    counters: AgentCounters,
    /// Last observed value of the combined loss signal (channel overflows,
    /// malformed datagrams and chaos faults). The
    /// exactly-once pump runs its durable-counter anti-entropy sweep only
    /// when this moves — in a loss-free steady state the sweep is pure
    /// overhead and serializes disjoint-table clients on the tracker lock.
    last_loss_signal: AtomicU64,
}

/// The agent. Cheap to clone (all state shared).
#[derive(Clone)]
pub struct EcaAgent {
    inner: Arc<Inner>,
}

impl EcaAgent {
    /// Stand up an agent in front of `server`: installs the notification
    /// sink, creates missing system tables, and restores every persisted
    /// ECA rule (Persistent Manager recovery, Figure 8).
    pub fn new(server: Arc<SqlServer>, config: AgentConfig) -> Result<Self> {
        let (sink, rx) = match config.notify_queue_depth {
            Some(depth) => ChannelSink::bounded(depth),
            None => ChannelSink::new(),
        };
        let plan = config.fault_plan.clone().unwrap_or_default();
        let chaos = if plan.is_noop() {
            server.set_sink(Arc::clone(&sink) as Arc<dyn NotificationSink>);
            None
        } else {
            let chaos = ChaosSink::new(Arc::clone(&sink), plan);
            server.set_sink(Arc::clone(&chaos) as Arc<dyn NotificationSink>);
            Some(chaos)
        };
        let gateway = Arc::new(Gateway::new(Arc::clone(&server)));
        let persist = PersistentManager::new(&server);
        persist.ensure_system_tables()?;
        let mut detector = Detector::new();
        detector.set_state_limit(config.led_state_limit);
        let agent = EcaAgent {
            inner: Arc::new(Inner {
                action: Arc::new(ActionHandler::with_policy(
                    Arc::clone(&gateway),
                    config.retry.clone(),
                )),
                gateway,
                led: Mutex::new(detector),
                registry: Mutex::new(Registry::new()),
                persist,
                rx,
                sink,
                chaos,
                tracker: Mutex::new(ReliabilityTracker::new()),
                config,
                listeners: Mutex::new(Vec::new()),
                async_mode: std::sync::atomic::AtomicBool::new(false),
                notifier_stop: std::sync::atomic::AtomicBool::new(false),
                draining: std::sync::atomic::AtomicBool::new(false),
                async_outcomes: Mutex::new(Vec::new()),
                define_lock: Mutex::new(()),
                counters: AgentCounters::default(),
                last_loss_signal: AtomicU64::new(0),
            }),
        };
        agent.inner.action.set_durable_dead_letters(true);
        agent.recover()?;
        agent.recover_dead_letters()?;
        // Settle in-flight sagas from the journal *before* watermark replay
        // re-raises their occurrences: the journal makes the re-raised
        // firing a no-op (AlreadySettled) instead of a double-apply.
        agent.recover_sagas()?;
        agent.recovery_replay()?;
        Ok(agent)
    }

    /// Stand up an agent over a *durable* server rooted at `data_dir`:
    /// crash recovery (snapshot + WAL replay) restores the database, the
    /// Sys* tables, and `SysAgentWatermark` before the normal Persistent
    /// Manager recovery and watermark-driven occurrence replay run — so a
    /// hard process death loses no rules and fires no action twice.
    pub fn open(
        data_dir: impl AsRef<std::path::Path>,
        durability: relsql::DurabilityConfig,
        config: AgentConfig,
    ) -> Result<Self> {
        let server = SqlServer::open(data_dir, durability)?;
        Self::new(server, config)
    }

    /// Convenience constructor with defaults.
    pub fn with_defaults(server: Arc<SqlServer>) -> Result<Self> {
        EcaAgent::new(server, AgentConfig::default())
    }

    /// Open a client connection through the agent (the transparent
    /// "Virtual Active SQL Server" interface).
    pub fn client(&self, database: &str, user: &str) -> EcaClient {
        EcaClient {
            agent: self.clone(),
            ctx: SessionCtx::new(database, user),
        }
    }

    pub fn server(&self) -> &Arc<SqlServer> {
        self.inner.gateway.server()
    }

    /// Every counter of the agent and the server behind it, one snapshot.
    pub fn stats(&self) -> Metrics {
        let mut m = Metrics::default();
        self.inner.counters.read_into(&mut m);
        {
            let tracker = self.inner.tracker.lock();
            m.push("reliability", "drops_detected", tracker.drops_detected());
            m.push("reliability", "gaps_repaired", tracker.gaps_repaired());
            m.push(
                "reliability",
                "duplicates_suppressed",
                tracker.duplicates_suppressed(),
            );
        }
        m.push(
            "reliability",
            "notify_overflows",
            self.inner.sink.overflow_count(),
        );
        m.push("actions", "retries", self.inner.action.retry_count());
        m.push(
            "actions",
            "dead_lettered",
            self.inner.action.dead_letter_count(),
        );
        self.inner
            .action
            .saga_executor()
            .counters()
            .read_into(&mut m);
        self.inner.gateway.counters().read_into(&mut m);
        m.append(self.server().metrics());
        m
    }

    /// Snapshot of the action dead-letter queue.
    pub fn dead_letters(&self) -> Vec<DeadLetter> {
        self.inner.action.dead_letters()
    }

    /// Drain the dead-letter queue and re-execute every parked action.
    pub fn requeue_dead_letters(&self) -> Vec<ActionOutcome> {
        self.inner.action.requeue_dead_letters()
    }

    /// Install (or clear) a per-attempt action fault injector (chaos hook).
    pub fn set_action_fault_injector(&self, injector: Option<FaultInjector>) {
        self.inner.action.set_fault_injector(injector)
    }

    /// Release any datagrams the chaos sink is still holding (reorder
    /// buffer / delay burst) into the channel. No-op without a fault plan.
    pub fn flush_notification_channel(&self) {
        if let Some(chaos) = &self.inner.chaos {
            chaos.flush();
        }
    }

    /// The chaos sink's fault counters (`dropped`, `duplicated`,
    /// `reordered`, `delayed`, `forwarded`), if a fault plan is active.
    pub fn channel_fault_counts(&self) -> Option<Metrics> {
        self.inner.chaos.as_ref().map(|c| c.metrics())
    }

    pub fn led_stats(&self) -> led::DetectorStats {
        self.inner.led.lock().stats()
    }

    /// Total buffered occurrences in the LED (E9 metric).
    pub fn led_state_size(&self) -> usize {
        self.inner.led.lock().total_state_size()
    }

    /// Registered event names (internal form).
    pub fn event_names(&self) -> Vec<String> {
        self.inner.led.lock().event_names()
    }

    /// Registered trigger names (internal form).
    pub fn trigger_names(&self) -> Vec<String> {
        self.inner.registry.lock().trigger_names()
    }

    /// Human-readable operator tree of a registered event, for diagnostics
    /// (e.g. "SEQ AND PRIMITIVE PRIMITIVE PRIMITIVE").
    pub fn describe_event(&self, event: &str) -> Option<String> {
        self.inner.led.lock().describe(event)
    }

    /// Structured metadata of one registered trigger.
    pub fn trigger_info(&self, name: &str) -> Option<crate::registry::TriggerInfo> {
        self.inner.registry.lock().trigger(name).cloned()
    }

    /// Structured metadata of every registered trigger, by name order.
    pub fn triggers(&self) -> Vec<crate::registry::TriggerInfo> {
        let registry = self.inner.registry.lock();
        let mut v: Vec<crate::registry::TriggerInfo> = registry
            .trigger_names()
            .iter()
            .filter_map(|n| registry.trigger(n).cloned())
            .collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Advance virtual time: temporal events (P, P*, PLUS, absolute) due up
    /// to the new time fire, and their rule actions execute.
    pub fn advance_time(&self, micros: i64) -> Result<AgentResponse> {
        let clock = self.server().clock();
        clock.advance(micros);
        let target = clock.peek();
        let firings = self.inner.led.lock().advance_to(target);
        let mut resp = AgentResponse::default();
        self.dispatch(firings, &mut resp)?;
        self.pump(&mut resp)?;
        Ok(resp)
    }

    /// Join all outstanding DETACHED actions and collect their outcomes.
    pub fn wait_detached(&self) -> Vec<ActionOutcome> {
        self.inner.action.wait_detached()
    }

    /// Flush DEFERRED rule actions now (normally driven by COMMIT).
    pub fn flush_deferred(&self) -> Result<AgentResponse> {
        let firings = self.inner.led.lock().flush_deferred();
        let mut resp = AgentResponse::default();
        self.dispatch(firings, &mut resp)?;
        self.pump(&mut resp)?;
        Ok(resp)
    }

    // ----------------------------------------------------------- recovery

    /// Persistent Manager recovery (Figure 8): decode every persisted
    /// rule, register it through the same path a fresh definition takes,
    /// then regenerate any native trigger that disagrees with the catalog —
    /// the only trace a crash between a definition's commit and its
    /// activation (or a drop's deactivation and its commit) can leave.
    fn recover(&self) -> Result<()> {
        let primitives = self.inner.persist.load_primitives()?;
        let composites = self.inner.persist.load_composites()?;
        let triggers = self.inner.persist.load_triggers()?;
        let mut saga_steps = self.inner.persist.load_saga_steps()?;
        // Decode the enum columns strictly, before registering anything: a
        // corrupted system-table row must fail recovery loudly, not
        // silently fall back to the default coupling/context and change
        // rule semantics.
        let mut pending = composites
            .iter()
            .map(|c| {
                Ok(CompositeEventInfo {
                    name: c.event.clone(),
                    expr_src: c.expr_src.clone(),
                    context: parse_recovered_context(&c.context, "SysCompositeEvent", &c.event)?,
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let triggers = triggers
            .into_iter()
            .map(|t| {
                let saga = saga_steps.remove(&t.name).map(|steps| {
                    Arc::new(SagaSpec {
                        steps: steps
                            .into_iter()
                            .map(|s| SagaStep {
                                proc: s.step_proc,
                                compensation: s.comp_proc,
                            })
                            .collect(),
                    })
                });
                Ok(Entry::Trigger(TriggerInfo {
                    coupling: parse_recovered_coupling(&t.coupling, &t.name)?,
                    context: parse_recovered_context(&t.context, "SysEcaTrigger", &t.name)?,
                    kind: if t.kind.trim() == "native" {
                        TriggerKind::Native
                    } else {
                        TriggerKind::Led
                    },
                    name: t.name,
                    event: t.event,
                    proc_name: t.proc_name,
                    priority: t.priority,
                    saga,
                }))
            })
            .collect::<Result<Vec<_>>>()?;
        let snap = self.server().snapshot();
        let primitives = primitives
            .iter()
            .map(|p| {
                let op = TriggerOp::parse(&p.operation).ok_or_else(|| {
                    AgentError::Recovery(format!(
                        "bad operation '{}' for '{}'",
                        p.operation, p.event
                    ))
                })?;
                let table = snap
                    .database()
                    .resolve_table_key(&p.table, Some((&p.db, &p.user)))
                    .unwrap_or_else(|| p.table.clone());
                Ok(Entry::Primitive(PrimitiveEventInfo::new(
                    &p.event, &p.db, &p.user, &p.table, &table, op,
                )))
            })
            .collect::<Result<Vec<_>>>()?;
        let recovered = |e: AgentError| AgentError::Recovery(e.to_string());
        self.registration(&primitives, define::register)
            .map_err(recovered)?;
        // Composites may reference each other; register to a fixpoint.
        while !pending.is_empty() {
            let (ready, rest): (Vec<_>, Vec<_>) = {
                let led = self.inner.led.lock();
                pending.into_iter().partition(|c| {
                    snoop::parse(&c.expr_src)
                        .is_ok_and(|e| e.references().iter().all(|r| led.has_event(&r.key())))
                })
            };
            if ready.is_empty() {
                return Err(AgentError::Recovery(format!(
                    "unresolvable composite events: {:?}",
                    rest.iter().map(|c| c.name.as_str()).collect::<Vec<_>>()
                )));
            }
            let ready: Vec<Entry> = ready.into_iter().map(Entry::Composite).collect();
            self.registration(&ready, define::register)
                .map_err(recovered)?;
            pending = rest;
        }
        self.registration(&triggers, define::register)
            .map_err(recovered)?;
        let events: Vec<PrimitiveEventInfo> =
            self.inner.registry.lock().primitives().cloned().collect();
        self.sync_native_triggers(&snap, &events)
    }

    /// Re-seed the in-memory dead-letter queue from `SysDeadLetter` so
    /// `\requeue` works across process lives, not just within one.
    fn recover_dead_letters(&self) -> Result<()> {
        let rows = self.inner.persist.load_dead_letters()?;
        if rows.is_empty() {
            return Ok(());
        }
        let mut letters = Vec::with_capacity(rows.len());
        for r in rows {
            let coupling = parse_recovered_coupling(&r.coupling, &r.trigger)?;
            let context = parse_recovered_context(&r.context, "SysDeadLetter", &r.trigger)?;
            let params = crate::saga::decode_params(&r.event, &r.params);
            let saga = self
                .inner
                .registry
                .lock()
                .trigger(&r.trigger)
                .and_then(|t| t.saga.clone());
            letters.push(DeadLetter {
                request: ActionRequest {
                    proc_name: r.proc_name,
                    event: r.event,
                    context,
                    rule: r.trigger,
                    occurrence: Occurrence::point("", 0, params),
                    saga,
                },
                coupling,
                error: r.error,
                attempts: r.attempts as u32,
            });
        }
        self.inner.action.seed_dead_letters(letters);
        Ok(())
    }

    /// Scan `SysSagaJournal` for sagas left in flight by a crash and settle
    /// each one deterministically: resume forward if every journaled step
    /// succeeded so far, compensate backward if a forward step failed.
    /// Outcomes land in the async-outcome mailbox.
    fn recover_sagas(&self) -> Result<()> {
        let journal = self.inner.persist.load_saga_journal()?;
        if journal.is_empty() {
            return Ok(());
        }
        // Group by saga key, preserving first-seen (journal append) order.
        let mut order: Vec<String> = Vec::new();
        let mut groups: std::collections::HashMap<String, Vec<SagaJournalRow>> =
            std::collections::HashMap::new();
        for row in journal {
            if !groups.contains_key(&row.key) {
                order.push(row.key.clone());
            }
            groups.entry(row.key.clone()).or_default().push(row);
        }
        let mut outcomes = Vec::new();
        for key in order {
            let rows = &groups[&key];
            if matches!(plan_from_journal(rows), SagaPlan::Settled { .. }) {
                continue;
            }
            let first = &rows[0];
            let (spec, coupling) = {
                let registry = self.inner.registry.lock();
                match registry.trigger(&first.rule) {
                    Some(t) => match &t.saga {
                        Some(spec) => (Arc::clone(spec), t.coupling),
                        // Trigger no longer declares a saga: the journal rows
                        // are orphans; leave them for inspection.
                        None => continue,
                    },
                    None => continue,
                }
            };
            let outcome = self.inner.action.resume_saga(
                &first.rule,
                &first.event,
                first.vno,
                &spec,
                coupling,
            );
            outcomes.push(outcome);
        }
        if !outcomes.is_empty() {
            self.inner.async_outcomes.lock().extend(outcomes);
        }
        Ok(())
    }

    /// Anti-entropy at startup: replay occurrences that happened while the
    /// agent was down. The durable `SysPrimitiveEvent.vNo` counters kept
    /// advancing (native triggers run with or without an agent listening);
    /// everything between the persisted watermark and the durable counter
    /// is raised now, in `vNo` order. Rule-action outcomes land in the
    /// async-outcome mailbox. Skipped when `exactly_once` is off.
    fn recovery_replay(&self) -> Result<()> {
        if !self.inner.config.exactly_once {
            return Ok(());
        }
        let watermarks = self.inner.persist.load_watermarks()?;
        let durables = self.inner.persist.load_durable_vnos()?;
        let mut resp = AgentResponse::default();
        let mut raised = 0usize;
        for (event, durable) in durables {
            if self.inner.registry.lock().primitive(&event).is_none() {
                continue;
            }
            let hwm = match watermarks.get(&event) {
                Some(&h) => h.min(durable),
                None => {
                    // Database predates the watermark table (or the row was
                    // lost): assume caught up rather than replaying history
                    // of unknown age.
                    self.inner.persist.save_watermark(&event, durable)?;
                    durable
                }
            };
            let missing = {
                let mut tracker = self.inner.tracker.lock();
                tracker.seed_event(&event, hwm);
                tracker.observe_durable(&event, durable)
            };
            for vno in missing {
                self.raise_occurrence(&event, vno, &mut raised, &mut resp)?;
            }
        }
        self.flush_watermarks()?;
        if !resp.actions.is_empty() {
            self.inner.async_outcomes.lock().extend(resp.actions);
        }
        Ok(())
    }

    // ------------------------------------------------ notification pumping

    /// Start the dedicated Event Notifier thread (Figure 15): notifications
    /// are processed asynchronously and IMMEDIATE/DEFERRED-flushed action
    /// outcomes accumulate in a mailbox drained via
    /// [`EcaAgent::take_async_outcomes`]. Returns the thread handle; stop
    /// it with [`EcaAgent::stop_notifier_thread`].
    ///
    /// In this mode client calls no longer process notifications inline, so
    /// `execute()` responses carry no composite-rule actions — the paper's
    /// actual asynchronous architecture, traded against the synchronous
    /// default's determinism.
    pub fn start_notifier_thread(&self) -> std::thread::JoinHandle<()> {
        use std::sync::atomic::Ordering as O;
        self.inner.async_mode.store(true, O::SeqCst);
        self.inner.notifier_stop.store(false, O::SeqCst);
        let agent = self.clone();
        std::thread::spawn(move || {
            while !agent.inner.notifier_stop.load(O::SeqCst) {
                let mut resp = AgentResponse::default();
                let _ = agent.pump_inner(&mut resp);
                if !resp.actions.is_empty() {
                    agent.inner.async_outcomes.lock().extend(resp.actions);
                }
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        })
    }

    /// Signal the notifier thread to stop (join the handle afterwards) and
    /// return to synchronous pumping.
    pub fn stop_notifier_thread(&self) {
        use std::sync::atomic::Ordering as O;
        self.inner.notifier_stop.store(true, O::SeqCst);
        self.inner.async_mode.store(false, O::SeqCst);
    }

    /// Drain the action outcomes the notifier thread produced.
    pub fn take_async_outcomes(&self) -> Vec<ActionOutcome> {
        std::mem::take(&mut *self.inner.async_outcomes.lock())
    }

    /// Block until the notification channel is empty and has stayed empty
    /// for a short settle interval (async mode only). Returns false on
    /// timeout.
    pub fn wait_quiescent(&self, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut calm = 0;
        while std::time::Instant::now() < deadline {
            if self.inner.rx.is_empty() {
                calm += 1;
                if calm >= 3 {
                    return true;
                }
            } else {
                calm = 0;
            }
            std::thread::sleep(std::time::Duration::from_micros(500));
        }
        false
    }

    /// Gracefully quiesce the agent: reject new statements, release any
    /// datagrams the chaos sink still holds, pump the notification channel
    /// dry (or wait for the dedicated notifier thread to do so), join all
    /// outstanding DETACHED actions, and persist the reliability
    /// watermarks. Joined/pumped action outcomes land in the async-outcome
    /// mailbox ([`EcaAgent::take_async_outcomes`]). Statements are
    /// rejected with [`crate::EcaError::Unavailable`] until
    /// [`EcaAgent::resume`].
    pub fn drain(&self, timeout: std::time::Duration) -> crate::service::DrainReport {
        use std::sync::atomic::Ordering as O;
        self.inner.draining.store(true, O::SeqCst);
        self.flush_notification_channel();
        let quiescent = if self.inner.async_mode.load(O::SeqCst) {
            self.wait_quiescent(timeout)
        } else {
            let mut resp = AgentResponse::default();
            let pumped = self.pump_inner(&mut resp).is_ok();
            if !resp.actions.is_empty() {
                self.inner.async_outcomes.lock().extend(resp.actions);
            }
            pumped && self.inner.rx.is_empty()
        };
        let detached = self.wait_detached();
        let detached_joined = detached.len();
        let async_outcomes = {
            let mut mailbox = self.inner.async_outcomes.lock();
            mailbox.extend(detached);
            mailbox.len()
        };
        let _ = self.flush_watermarks();
        crate::service::DrainReport {
            quiescent,
            detached_joined,
            async_outcomes,
        }
    }

    /// Lift the drain latch set by [`EcaAgent::drain`].
    pub fn resume(&self) {
        self.inner.draining.store(false, Ordering::SeqCst);
    }

    /// Whether the agent is currently refusing statements (drained).
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// Drain and process pending notifications (Figure 4 steps 2–6),
    /// including cascades caused by the actions themselves. No-op while the
    /// dedicated notifier thread owns the channel.
    fn pump(&self, resp: &mut AgentResponse) -> Result<()> {
        if self.inner.async_mode.load(Ordering::SeqCst) {
            return Ok(());
        }
        self.pump_inner(resp)
    }

    /// Combined monotonic loss signal: every path that can leave a durable
    /// occurrence counter ahead of the admission tracker without a matching
    /// datagram in the channel bumps one of these counters *during the
    /// statement that caused it* (at send time), so by the time that
    /// statement's own pump runs, the signal has already moved.
    fn loss_signal(&self) -> u64 {
        let chaos = self
            .inner
            .chaos
            .as_ref()
            .map(|c| {
                let m = c.metrics();
                m["dropped"] + m["duplicated"] + m["reordered"] + m["delayed"]
            })
            .unwrap_or(0);
        self.inner
            .sink
            .overflow_count()
            .wrapping_add(
                self.inner
                    .counters
                    .malformed_notifications
                    .load(Ordering::SeqCst),
            )
            .wrapping_add(chaos)
    }

    /// The pump. With `exactly_once` it drains the channel through the
    /// admission tracker (duplicates suppressed, gaps synthesized in `vNo`
    /// order), then reconciles against the durable occurrence counters so
    /// occurrences whose datagram was dropped outright are repaired too;
    /// it loops until a full pass makes no progress, then write-behinds
    /// the watermarks. Without it, it is the paper's fire-and-forget UDP
    /// receiver: every datagram that arrives is raised as-is, in channel
    /// order, so duplicates are raised twice and dropped datagrams stay
    /// lost; no mark moves, so nothing is flushed. Either way the cascade
    /// cap counts the occurrences raised by this call.
    fn pump_inner(&self, resp: &mut AgentResponse) -> Result<()> {
        let exactly_once = self.inner.config.exactly_once;
        let mut raised = 0usize;
        loop {
            let mut progressed = false;
            // Phase 1: the channel (wake-up hints, UDP semantics).
            while let Ok(datagram) = self.inner.rx.try_recv() {
                progressed = true;
                let note = match notifier::decode(&datagram) {
                    Some(n) => n,
                    None => {
                        self.inner
                            .counters
                            .malformed_notifications
                            .fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                };
                if self.inner.registry.lock().primitive(&note.event).is_none() {
                    // Stale notification for a dropped event: received,
                    // counted, not raisable.
                    self.inner
                        .counters
                        .notifications
                        .fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                if !exactly_once {
                    self.raise_occurrence(&note.event, note.vno, &mut raised, resp)?;
                    continue;
                }
                let admission = self.inner.tracker.lock().admit(&note.event, note.vno);
                match admission {
                    Admission::Duplicate | Admission::LateArrival => continue,
                    Admission::Fresh { missing } => {
                        for vno in missing {
                            self.raise_occurrence(&note.event, vno, &mut raised, resp)?;
                        }
                        self.raise_occurrence(&note.event, note.vno, &mut raised, resp)?;
                    }
                }
            }
            // Phase 2 (exactly-once only): anti-entropy against the
            // committed durable counters. A counter the mark has already
            // passed (a concurrent admit got there first) repairs nothing.
            // Only tracker-seeded events are reconciled (the tracker mirrors
            // registry membership for primitives), which keeps the registry
            // lock out of this section — `drop_event` nests registry →
            // tracker, so the reverse order here would deadlock.
            //
            // The sweep is gated on the loss signal: in a loss-free steady
            // state (no faults, no overflow) every occurrence
            // arrives through the channel and the sweep can find nothing,
            // yet it would serialize disjoint-table clients on the tracker
            // lock and the durable read. `swap` claims the new signal value;
            // concurrent pumps racing here at worst both sweep (idempotent
            // under the tracker lock), never both skip a moved signal.
            let sweep = exactly_once && {
                let signal = self.loss_signal();
                signal != self.inner.last_loss_signal.swap(signal, Ordering::SeqCst)
            };
            let repairs: Vec<(String, Vec<i64>)> = if !sweep {
                Vec::new()
            } else {
                let durables = self.inner.persist.load_durable_vnos()?;
                let mut tracker = self.inner.tracker.lock();
                let mut repairs = Vec::new();
                for (event, durable) in durables {
                    if tracker.hwm(&event).is_none() {
                        continue;
                    }
                    let missing = tracker.observe_durable(&event, durable);
                    if !missing.is_empty() {
                        repairs.push((event, missing));
                    }
                }
                repairs
            };
            for (event, missing) in repairs {
                for vno in missing {
                    progressed = true;
                    self.raise_occurrence(&event, vno, &mut raised, resp)?;
                }
            }
            if !progressed {
                break;
            }
        }
        self.flush_watermarks()
    }

    /// Raise one primitive-event occurrence into the LED: build the shadow
    /// params, signal, dispatch the firings, publish to listeners. `raised`
    /// guards the per-call cascade cap.
    fn raise_occurrence(
        &self,
        event: &str,
        vno: i64,
        raised: &mut usize,
        resp: &mut AgentResponse,
    ) -> Result<()> {
        *raised += 1;
        if *raised > self.inner.config.max_cascade {
            return Err(AgentError::Recovery(format!(
                "notification cascade exceeded {} messages",
                self.inner.config.max_cascade
            )));
        }
        let params = {
            let registry = self.inner.registry.lock();
            match registry.primitive(event) {
                Some(info) => info
                    .stamped_shadows()
                    .iter()
                    .map(|(shadow, _)| Param::db(event, *shadow, vno, 0))
                    .collect::<Vec<_>>(),
                None => return Ok(()), // dropped concurrently
            }
        };
        self.inner
            .counters
            .notifications
            .fetch_add(1, Ordering::Relaxed);
        let ts = self.server().clock().now();
        let params: Vec<Param> = params
            .into_iter()
            .map(|mut p| {
                p.ts = ts;
                p
            })
            .collect();
        let firings = self
            .inner
            .led
            .lock()
            .signal(event, params.clone(), ts)
            .map_err(AgentError::from)?;
        self.dispatch(firings, resp)?;
        // Publish the occurrence to external subscribers (e.g. a GED)
        // with no internal locks held.
        let listeners: Vec<OccurrenceListener> = self.inner.listeners.lock().clone();
        for l in &listeners {
            l(event, &params, ts);
        }
        Ok(())
    }

    /// Write-behind the high-water marks that changed since the last flush.
    fn flush_watermarks(&self) -> Result<()> {
        let dirty = self.inner.tracker.lock().take_dirty();
        self.inner.persist.save_watermarks(&dirty)
    }

    /// Subscribe to every primitive-event occurrence this agent raises —
    /// the hook the Global Event Detector uses (§6 future work).
    pub fn add_occurrence_listener(&self, listener: OccurrenceListener) {
        self.inner.listeners.lock().push(listener);
    }

    /// The full saga journal in append order — the `\sagas` inspection
    /// surface. Each row is one journaled boundary (saga started/settled,
    /// step done/failed, compensation done).
    pub fn saga_journal(&self) -> Result<Vec<SagaJournalRow>> {
        self.inner.persist.load_saga_journal()
    }

    /// Install (or clear) a crash hook fired at every saga journal
    /// boundary — the chaos harness uses this to `panic!` the executor at a
    /// chosen boundary and simulate a process death mid-saga.
    pub fn set_saga_crash_hook(&self, hook: Option<SagaCrashHook>) {
        self.inner.action.saga_executor().set_crash_hook(hook);
    }

    fn dispatch(&self, firings: Vec<Firing>, resp: &mut AgentResponse) -> Result<()> {
        for firing in firings {
            let request = match self.inner.registry.lock().trigger(&firing.rule) {
                Some(t) => ActionRequest::from_firing(&firing, t),
                None => continue,
            };
            self.inner
                .counters
                .actions_executed
                .fetch_add(1, Ordering::Relaxed);
            match firing.coupling {
                CouplingMode::Detached => self.inner.action.execute_detached(request),
                coupling => {
                    let outcome = self.inner.action.execute(&request, coupling);
                    resp.actions.push(outcome);
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------ rule definitions

    /// Plan an ECA command against the current registry, detector and
    /// catalog, then apply the plan (see [`crate::define`]). Commands are
    /// serialized so no plan is computed against state another command
    /// is about to change.
    fn handle_eca(&self, sql: &str, ctx: &SessionCtx) -> Result<AgentResponse> {
        self.inner
            .counters
            .eca_commands
            .fetch_add(1, Ordering::Relaxed);
        let cmd = parse_eca(sql)?;
        let _serial = self.inner.define_lock.lock();
        if let EcaCommand::DropTrigger { trigger } = &cmd {
            let managed = {
                let registry = self.inner.registry.lock();
                registry.trigger(&naming::internal(ctx, trigger)).is_some()
                    || registry.trigger(trigger).is_some()
            };
            if !managed {
                // Not agent-managed: forward to the server (it may be a
                // plain native trigger).
                let server = self
                    .inner
                    .gateway
                    .forward(&format!("drop trigger {trigger}"), ctx)?;
                return Ok(AgentResponse {
                    server,
                    ..Default::default()
                });
            }
        }
        // The commit batch never touches a native trigger or a watched
        // table, so the planning snapshot stays valid for activation.
        let snap = self.server().snapshot();
        let plan = {
            let led = self.inner.led.lock();
            let registry = self.inner.registry.lock();
            define::plan_rule(&cmd, ctx, &registry, &led, &snap)?
        };
        match plan.direction {
            Direction::Define => {
                self.inner.gateway.internal(&plan.batch, ctx)?;
                self.registration(&plan.entries, define::register)?;
                self.sync_native_triggers(&snap, &plan.native)?;
            }
            Direction::Retire => {
                self.registration(&plan.entries, define::unregister)?;
                self.sync_native_triggers(&snap, &plan.native)?;
                self.inner.gateway.internal(&plan.batch, ctx)?;
            }
        }
        Ok(AgentResponse {
            messages: plan.messages,
            ..Default::default()
        })
    }

    /// Apply `step` ([`define::register`] or [`define::unregister`]) to
    /// each entry, under the detector, registry and tracker locks.
    fn registration(&self, entries: &[Entry], step: RegistrationStep) -> Result<()> {
        let mut led = self.inner.led.lock();
        let mut registry = self.inner.registry.lock();
        let mut tracker = self.inner.tracker.lock();
        entries
            .iter()
            .try_for_each(|e| step(&mut led, &mut registry, &mut tracker, e))
    }

    /// Bring the native trigger of each event in line with the registry,
    /// issuing DDL only where the catalog in `snap` differs. Each statement
    /// runs under the identity that defined the event, so the generated
    /// text never depends on who issued the command.
    fn sync_native_triggers<'a>(
        &self,
        snap: &DbSnapshot,
        events: impl IntoIterator<Item = &'a PrimitiveEventInfo>,
    ) -> Result<()> {
        let fixes: Vec<(SessionCtx, String)> = {
            let registry = self.inner.registry.lock();
            events
                .into_iter()
                .filter_map(|e| {
                    define::native_trigger_fix(
                        &registry,
                        snap.database(),
                        e,
                        &self.inner.config.notify_host,
                        self.inner.config.notify_port,
                    )
                    .map(|sql| (SessionCtx::new(&e.db, &e.user), sql))
                })
                .collect()
        };
        for (owner, sql) in fixes {
            self.inner.gateway.internal(&sql, &owner)?;
        }
        Ok(())
    }
}

type RegistrationStep =
    fn(&mut Detector, &mut Registry, &mut ReliabilityTracker, &Entry) -> Result<()>;

/// Strict parse of a persisted coupling mode — a corrupted system-table
/// row must fail recovery, not silently become the default mode.
fn parse_recovered_coupling(raw: &str, trigger: &str) -> Result<CouplingMode> {
    raw.trim().parse().map_err(|_| {
        AgentError::Recovery(format!(
            "corrupted SysEcaTrigger row for '{trigger}': bad coupling '{raw}'"
        ))
    })
}

/// Strict parse of a persisted parameter context (see above).
fn parse_recovered_context(raw: &str, table: &str, name: &str) -> Result<ParameterContext> {
    raw.trim().parse().map_err(|_| {
        AgentError::Recovery(format!(
            "corrupted {table} row for '{name}': bad context '{raw}'"
        ))
    })
}

/// A client connection through the agent.
#[derive(Clone)]
pub struct EcaClient {
    agent: EcaAgent,
    ctx: SessionCtx,
}

impl EcaClient {
    /// Execute a batch: ECA commands are interpreted by the agent, plain
    /// SQL passes through and any resulting event detections run their
    /// actions before this returns (IMMEDIATE semantics).
    pub fn execute(&self, sql: &str) -> Result<AgentResponse> {
        self.agent.execute(sql, &self.ctx)
    }

    pub fn agent(&self) -> &EcaAgent {
        &self.agent
    }

    pub fn ctx(&self) -> &SessionCtx {
        &self.ctx
    }
}

impl EcaAgent {
    /// Execute a batch on behalf of `ctx` — the single entry point behind
    /// [`EcaClient::execute`] and [`crate::service::ActiveService`]: ECA
    /// commands are interpreted by the agent, plain SQL passes through and
    /// any resulting event detections run their actions before this
    /// returns (IMMEDIATE semantics). Occurrences raised inside an explicit
    /// transaction are detected when its `COMMIT` batch runs.
    pub fn execute(&self, sql: &str, ctx: &SessionCtx) -> Result<AgentResponse> {
        if self.inner.draining.load(Ordering::SeqCst) {
            return Err(AgentError::Unavailable(
                "agent is draining; no new statements accepted".into(),
            ));
        }
        match classify(sql) {
            Classification::Eca(_) => self.handle_eca(sql, ctx),
            Classification::PassThrough => {
                let server = self.inner.gateway.forward(sql, ctx)?;
                let mut resp = AgentResponse {
                    server,
                    ..Default::default()
                };
                self.pump(&mut resp)?;
                if contains_commit(sql) {
                    let deferred = self.flush_deferred()?;
                    resp.actions.extend(deferred.actions);
                }
                Ok(resp)
            }
        }
    }

    /// Execute a batch **exactly once** under the idempotency key
    /// `token#seq` — the serve layer's resilient-session entry point
    /// (DESIGN.md §16). If the key was already journaled the batch is NOT
    /// re-applied and the recorded response (if any) comes back as
    /// [`ExecOutcome::Replayed`].
    ///
    /// Atomicity: for pass-through SQL the journal insert is *prepended*
    /// to the client batch, so journal row and user effects commit in one
    /// WAL record — after any crash, either both exist or neither does.
    /// The unique index on `idemKey` turns a concurrent or re-submitted
    /// duplicate into an engine error that is mapped to a replay here.
    /// ECA commands journal *after* they apply (they mutate agent
    /// registries, not just engine tables); a crash between the two can
    /// surface an "already exists" error on re-submission, which is
    /// state-consistent — documented in DESIGN.md §16.
    pub fn execute_once(
        &self,
        sql: &str,
        ctx: &SessionCtx,
        token: &str,
        seq: u64,
    ) -> Result<ExecOutcome> {
        if self.inner.draining.load(Ordering::SeqCst) {
            return Err(AgentError::Unavailable(
                "agent is draining; no new statements accepted".into(),
            ));
        }
        let idem = format!("{token}#{seq}");
        if let Some(recorded) = self.inner.persist.wire_journal_lookup(&idem)? {
            self.inner
                .counters
                .wire_replays
                .fetch_add(1, Ordering::Relaxed);
            return Ok(ExecOutcome::Replayed(recorded));
        }
        let journal_insert = format!(
            "insert SysWireJournal values ({}, {}, {}, NULL)",
            codegen::sql_quote(&idem),
            codegen::sql_quote(token),
            seq as i64,
        );
        // Classify the ORIGINAL text: the prepended insert must not turn
        // an ECA command into pass-through SQL.
        match classify(sql) {
            Classification::Eca(_) => {
                let resp = self.handle_eca(sql, ctx)?;
                self.inner.persist.run(&journal_insert)?;
                self.inner
                    .counters
                    .wire_journaled
                    .fetch_add(1, Ordering::Relaxed);
                Ok(ExecOutcome::Fresh(resp))
            }
            Classification::PassThrough => {
                let batch = format!("{journal_insert}\n{sql}");
                let server = match self.inner.gateway.forward(&batch, ctx) {
                    Ok(server) => server,
                    // The journal insert runs first, so a duplicate-key
                    // violation on *our* index means a racing submission
                    // of the same seq won — nothing else was applied.
                    Err(e) if e.to_string().contains("ux_SysWireJournal") => {
                        self.inner
                            .counters
                            .wire_replays
                            .fetch_add(1, Ordering::Relaxed);
                        let recorded = self.inner.persist.wire_journal_lookup(&idem)?.flatten();
                        return Ok(ExecOutcome::Replayed(recorded));
                    }
                    Err(e) => return Err(e),
                };
                self.inner
                    .counters
                    .wire_journaled
                    .fetch_add(1, Ordering::Relaxed);
                let mut resp = AgentResponse {
                    server,
                    ..Default::default()
                };
                // Drop the journal insert's own result entry so the
                // response is indistinguishable from an unstamped execute.
                if !resp.server.results.is_empty() {
                    resp.server.results.remove(0);
                }
                self.pump(&mut resp)?;
                if contains_commit(sql) {
                    let deferred = self.flush_deferred()?;
                    resp.actions.extend(deferred.actions);
                }
                Ok(ExecOutcome::Fresh(resp))
            }
        }
    }

    /// Backfill the rendered response for a journaled request so a
    /// replay after process restart can answer verbatim.
    pub fn record_wire_response(&self, token: &str, seq: u64, line: &str) -> Result<()> {
        self.inner
            .persist
            .wire_journal_record(&format!("{token}#{seq}"), line)
    }

    /// Forget journal rows for `token` below `below_seq` (acknowledged
    /// prefix), or the whole session with `u64::MAX`.
    pub fn forget_wire_session(&self, token: &str, below_seq: u64) -> Result<()> {
        let below = i64::try_from(below_seq).unwrap_or(i64::MAX);
        self.inner.persist.wire_journal_prune(token, below)
    }
}

/// The transparency claim made concrete: an [`EcaClient`] is a drop-in
/// [`relsql::SqlEndpoint`], so any code written against the plain server
/// works unchanged through the agent (and silently gains active
/// capability). Only the direct server results are surfaced; rule-action
/// outputs are available through [`EcaClient::execute`].
impl relsql::SqlEndpoint for EcaClient {
    fn execute(&self, sql: &str, session: &SessionCtx) -> relsql::Result<BatchResult> {
        let client = EcaClient {
            agent: self.agent.clone(),
            ctx: session.clone(),
        };
        client
            .execute(sql)
            .map(|resp| resp.server)
            .map_err(|e| match e {
                AgentError::Sql(sql_err) => sql_err,
                other => relsql::Error::exec(other.to_string()),
            })
    }
}
