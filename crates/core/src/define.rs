//! The rule-definition pipeline (DESIGN.md §6, "plan → commit →
//! activate"). [`plan_rule`] lowers every ECA command into a [`RulePlan`]
//! after checking everything against the registry, the detector and a
//! catalog snapshot, so a rejected command sends nothing. The agent then
//! applies a definition as: one commit batch (one WAL record) →
//! [`register`] → native-trigger activation ([`native_trigger_fix`]); a drop
//! runs the same steps backwards. The native trigger therefore only ever
//! executes a subset of the persisted rules, and recovery restores the rest
//! by regenerating it.

use std::sync::Arc;

use led::{CouplingMode, Detector, ParameterContext, RuleSpec};
use relsql::ast::TriggerOp;
use relsql::catalog::Database;
use relsql::{DbSnapshot, SessionCtx};

use crate::codegen::{self, sql_quote, ContextRef, ContextSource};
use crate::eca_parser::{EcaCommand, TriggerClauses};
use crate::error::{AgentError, Result};
use crate::naming;
use crate::registry::{CompositeEventInfo, PrimitiveEventInfo, Registry, TriggerInfo, TriggerKind};
use crate::reliability::ReliabilityTracker;
use crate::saga::{persist_saga_steps_sql, SagaSpec};

/// Whether a plan adds its entries or removes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Define,
    Retire,
}

/// One event or trigger a plan defines or retires.
#[derive(Debug, Clone)]
pub enum Entry {
    Primitive(PrimitiveEventInfo),
    /// The expression source is in internal names (as persisted).
    Composite(CompositeEventInfo),
    Trigger(TriggerInfo),
}

/// A fully validated ECA command, ready to apply.
#[derive(Debug)]
pub struct RulePlan {
    pub direction: Direction,
    /// The commit batch: one server batch, hence one WAL record.
    pub batch: String,
    /// Detector/registry entries, in registration order.
    pub entries: Vec<Entry>,
    /// The primitive event whose native trigger the plan changes.
    pub native: Option<PrimitiveEventInfo>,
    /// Informational messages for the client.
    pub messages: Vec<String>,
}

/// Lower `cmd`, issued by `session`, into a plan. Nothing is mutated and
/// nothing is sent: every rejection happens here.
pub fn plan_rule(
    cmd: &EcaCommand,
    session: &SessionCtx,
    registry: &Registry,
    led: &Detector,
    snap: &DbSnapshot,
) -> Result<RulePlan> {
    let p = Planner {
        session,
        registry,
        led,
        db: snap.database(),
    };
    match cmd {
        EcaCommand::CreatePrimitive {
            trigger,
            table,
            operation,
            event,
            clauses,
            action,
        } => {
            let target = p.new_primitive(table, *operation, event)?;
            p.create(trigger, target, clauses, action)
        }
        EcaCommand::CreateOnExisting {
            trigger,
            event,
            clauses,
            action,
        } => {
            let target = Target::Existing(p.resolve_event(event)?);
            p.create(trigger, target, clauses, action)
        }
        EcaCommand::CreateComposite {
            trigger,
            event,
            expr_src,
            clauses,
            action,
        } => {
            let target = p.new_composite(event, expr_src, clauses)?;
            p.create(trigger, target, clauses, action)
        }
        EcaCommand::DropTrigger { trigger } => p.drop_trigger(trigger),
        EcaCommand::DropEvent { event } => p.drop_event(event),
    }
}

/// Add one entry to the detector, the registry and the reliability
/// tracker. The one registration path: a fresh definition and recovery
/// both go through here.
pub fn register(
    led: &mut Detector,
    registry: &mut Registry,
    tracker: &mut ReliabilityTracker,
    entry: &Entry,
) -> Result<()> {
    match entry {
        Entry::Primitive(info) => {
            led.define_primitive(&info.name)?;
            registry.add_primitive(info.clone())?;
            // A fresh event has raised nothing; recovery re-seeds from
            // the persisted watermark.
            tracker.seed_event(&info.name, 0);
        }
        Entry::Composite(info) => {
            let expr = snoop::parse(&info.expr_src)?;
            led.define_composite(&info.name, &expr, info.context)?;
            registry.add_composite(info.clone())?;
        }
        Entry::Trigger(t) => {
            if t.kind == TriggerKind::Led {
                led.add_rule(
                    RuleSpec::new(&t.name, &t.event)
                        .with_coupling(t.coupling)
                        .with_priority(t.priority),
                )?;
            }
            registry.add_trigger(t.clone())?;
        }
    }
    Ok(())
}

/// Remove one entry from the detector, the registry and the tracker.
pub fn unregister(
    led: &mut Detector,
    registry: &mut Registry,
    tracker: &mut ReliabilityTracker,
    entry: &Entry,
) -> Result<()> {
    match entry {
        Entry::Primitive(info) => {
            led.drop_composite(&info.name)?;
            registry.remove_primitive(&info.name);
            tracker.forget_event(&info.name);
        }
        Entry::Composite(info) => {
            led.drop_composite(&info.name)?;
            registry.remove_composite(&info.name);
        }
        Entry::Trigger(t) => {
            if t.kind == TriggerKind::Led {
                led.drop_rule(&t.name)?;
            }
            registry.remove_trigger(&t.name);
        }
    }
    Ok(())
}

/// The statement that brings the catalog's native trigger for `event` in
/// line with `registry`: the generated `create trigger` while the event is
/// registered, `drop trigger` once it is not, `None` when the catalog
/// already agrees or the watched table is gone (nothing can fire then).
pub fn native_trigger_fix(
    registry: &Registry,
    db: &Database,
    event: &PrimitiveEventInfo,
    host: &str,
    port: u16,
) -> Option<String> {
    let name = naming::native_trigger(&event.name);
    let current = db.trigger(&name);
    let Some(info) = registry.primitive(&event.name) else {
        return current.map(|_| format!("drop trigger {name}"));
    };
    let table = db.resolve_table_key(&info.table_sql, Some((&info.db, &info.user)))?;
    let procs: Vec<String> = registry
        .native_triggers_on(&info.name)
        .iter()
        .map(|t| t.proc_name.clone())
        .collect();
    let body = codegen::native_trigger_body(info, host, port, &procs);
    let in_line = current.is_some_and(|def| {
        def.table_key == table && def.operation == info.operation && def.body_src == body.trim()
    });
    (!in_line).then(|| codegen::native_trigger_sql(info, host, port, &procs))
}

struct Planner<'a> {
    session: &'a SessionCtx,
    registry: &'a Registry,
    led: &'a Detector,
    db: &'a Database,
}

/// The event a `create trigger` attaches to.
enum Target<'a> {
    /// Figure 9: a new primitive event.
    Primitive(PrimitiveEventInfo),
    /// Figure 12: a new composite event, with its primitive constituents.
    Composite(CompositeEventInfo, Vec<&'a PrimitiveEventInfo>),
    /// Figure 10: an event defined earlier.
    Existing(String),
}

/// Where a generated action procedure reads its context tuples from.
enum Source<'a> {
    /// The event's own shadow tables at its current vNo (Figure 11).
    Shadows(PrimitiveEventInfo),
    /// `sysContext`, in this parameter context, over the shadows of these
    /// primitive constituents (Figure 14).
    Context(Vec<&'a PrimitiveEventInfo>, ParameterContext),
}

/// A trigger's action body, lowered: a saga, or SQL run by a generated
/// action procedure.
struct Action {
    saga: Option<SagaSpec>,
    /// The generated action procedure; empty for a saga, whose steps are
    /// the user's own procedures.
    proc_name: String,
    sql: Option<ActionSql>,
}

/// SQL action text with its `T.inserted`/`T.deleted` accessors rewritten
/// to tmp tables, and the accessors found.
struct ActionSql {
    rewritten: String,
    refs: Vec<ContextRef>,
}

impl<'a> Planner<'a> {
    /// Figure 9's event half: a new primitive event on `table`.
    fn new_primitive(&self, table: &str, op: TriggerOp, event: &str) -> Result<Target<'a>> {
        let event_i = self.internal(event);
        let table_key = self.resolve_table(table)?;
        if self.registry.has_event(&event_i) {
            return Err(naming_err(format!(
                "event '{event_i}' already exists — use the ON-EVENT form to reuse it"
            )));
        }
        if let Some(existing) = self.registry.primitive_for_slot(&table_key, op) {
            return Err(naming_err(format!(
                "event '{}' already watches {op} on '{table}' — reuse it",
                existing.name
            )));
        }
        self.no_vno_column(&table_key)?;
        let s = self.session;
        let info = PrimitiveEventInfo::new(&event_i, &s.database, &s.user, table, &table_key, op);
        for shadow in [&info.shadow_inserted, &info.shadow_deleted] {
            free("table", shadow, self.db.has_table(shadow))?;
            let index = format!("{shadow}_vix");
            free("index", &index, self.db.index_table_key(&index).is_some())?;
        }
        let ver = &info.version_table;
        free("table", ver, self.db.has_table(ver))?;
        let native = naming::native_trigger(&event_i);
        free("trigger", &native, self.db.trigger(&native).is_some())?;
        Ok(Target::Primitive(info))
    }

    /// Figure 12's event half: name checking and expansion (§5.3) — every
    /// referenced event must already be defined, and user names expand to
    /// internal names.
    fn new_composite(
        &self,
        event: &str,
        expr_src: &str,
        clauses: &TriggerClauses,
    ) -> Result<Target<'a>> {
        let event_i = self.internal(event);
        if self.registry.has_event(&event_i) {
            return Err(naming_err(format!("event '{event_i}' already exists")));
        }
        let mut unknown: Option<String> = None;
        let expr = snoop::parse(expr_src)?.map_names(&mut |n| match self.resolve_event(&n.key()) {
            Ok(internal) => snoop::EventName::simple(internal),
            Err(_) => {
                unknown.get_or_insert_with(|| n.key());
                n.clone()
            }
        });
        if let Some(name) = unknown {
            return Err(naming_err(format!("event '{name}' is not defined")));
        }
        self.led.check_composite(&event_i, &expr)?;
        // Not registered yet: reach the constituents through the references.
        let mut constituents: Vec<&PrimitiveEventInfo> = Vec::new();
        for r in expr.references() {
            for p in self.registry.primitive_constituents(&r.key()) {
                if !constituents.iter().any(|c| c.name == p.name) {
                    constituents.push(p);
                }
            }
        }
        let info = CompositeEventInfo {
            name: event_i,
            expr_src: expr.to_string(),
            context: clauses.context,
        };
        Ok(Target::Composite(info, constituents))
    }

    /// The trigger half shared by all three create forms: rows for a new
    /// event, the trigger's rows, and its action procedure last — a
    /// procedure body runs to the end of its batch.
    fn create(
        &self,
        trigger: &str,
        target: Target<'a>,
        clauses: &TriggerClauses,
        body: &str,
    ) -> Result<RulePlan> {
        let trigger_i = self.internal(trigger);
        let taken = self.registry.trigger(&trigger_i).is_some();
        free("trigger", &trigger_i, taken)?;
        let action = self.action(&trigger_i, body)?;
        let immediate = action.sql.is_some() && clauses.coupling == CouplingMode::Immediate;
        let (mut batch, mut entries, mut messages) = (Vec::new(), Vec::new(), Vec::new());
        let (event_i, source) = match target {
            Target::Primitive(info) => {
                batch.extend([
                    codegen::primitive_event_setup(&info),
                    codegen::persist_primitive_sql(&info),
                    // A fresh event starts with watermark 0 (nothing raised).
                    format!(
                        "delete SysAgentWatermark where eventName = {ev}\n\
                         insert SysAgentWatermark values ({ev}, 0)",
                        ev = sql_quote(&info.name)
                    ),
                ]);
                messages.push(format!("primitive event '{}' created", info.name));
                entries.push(Entry::Primitive(info.clone()));
                (info.name.clone(), Source::Shadows(info))
            }
            Target::Composite(info, constituents) => {
                let s = self.session;
                batch.push(codegen::persist_composite_sql(
                    &s.database,
                    &s.user,
                    &info,
                    clauses,
                ));
                messages.push(format!(
                    "composite event '{}' = {} created",
                    info.name, info.expr_src
                ));
                let event_i = info.name.clone();
                entries.push(Entry::Composite(info));
                (event_i, Source::Context(constituents, clauses.context))
            }
            Target::Existing(event_i) => {
                let source = match self.registry.primitive(&event_i).filter(|_| immediate) {
                    Some(info) => Source::Shadows(info.clone()),
                    // Rules on a composite inherit the event's context (it
                    // is a property of the detection graph).
                    None => Source::Context(
                        self.registry.primitive_constituents(&event_i),
                        self.registry
                            .composite(&event_i)
                            .map_or(clauses.context, |c| c.context),
                    ),
                };
                (event_i, source)
            }
        };
        let proc = match (&action.sql, &source) {
            (None, _) => None,
            (Some(sql), Source::Shadows(info)) => {
                self.tmp_from_event(&sql.refs, info, &mut batch);
                let (name, text) = (&action.proc_name, &sql.rewritten);
                Some(codegen::native_action_proc(name, info, &sql.refs, text))
            }
            (Some(sql), Source::Context(constituents, context)) => {
                self.tmp_from_refs(&sql.refs, &mut batch)?;
                let sources = context_sources(&sql.refs, constituents);
                let (name, text) = (&action.proc_name, &sql.rewritten);
                Some(codegen::led_action_proc(name, *context, &sources, text))
            }
        };
        // The event's native trigger is (re)generated whenever the rule
        // reads the event's shadows: a new primitive event, or one more
        // IMMEDIATE procedure on an existing one.
        let native = match source {
            Source::Shadows(info) => Some(info),
            Source::Context(..) => None,
        };
        let trigger = TriggerInfo {
            name: trigger_i,
            event: event_i,
            proc_name: action.proc_name,
            kind: match native {
                Some(_) if immediate => TriggerKind::Native,
                _ => TriggerKind::Led,
            },
            coupling: clauses.coupling,
            context: clauses.context,
            priority: clauses.priority,
            saga: action.saga.map(Arc::new),
        };
        batch.push(codegen::persist_trigger_sql(
            &self.session.database,
            &self.session.user,
            &trigger,
        ));
        if let Some(spec) = &trigger.saga {
            batch.push(persist_saga_steps_sql(&trigger.name, spec));
        }
        batch.extend(proc);
        messages.push(format!(
            "trigger '{}' created on event '{}'",
            trigger.name, trigger.event
        ));
        entries.push(Entry::Trigger(trigger));
        Ok(RulePlan {
            direction: Direction::Define,
            batch: batch.join("\n"),
            entries,
            native,
            messages,
        })
    }

    fn drop_trigger(&self, trigger: &str) -> Result<RulePlan> {
        let info = self
            .registry
            .trigger(&self.internal(trigger))
            .or_else(|| self.registry.trigger(trigger))
            .ok_or_else(|| naming_err(format!("trigger '{trigger}' does not exist")))?;
        let mut batch = vec![format!(
            "delete SysEcaTrigger where triggerName = {}",
            sql_quote(&info.name)
        )];
        if info.saga.is_some() {
            // A saga's step procedures belong to the user and stay.
            batch.push(format!(
                "delete SysSagaStep where triggerName = {}",
                sql_quote(&info.name)
            ));
        } else if self.db.procedure(&info.proc_name, None).is_some() {
            batch.push(format!("drop procedure {}", info.proc_name));
        }
        let native = self.registry.primitive(&info.event);
        let native = native.filter(|_| info.kind == TriggerKind::Native).cloned();
        Ok(RulePlan {
            direction: Direction::Retire,
            batch: batch.join("\n"),
            entries: vec![Entry::Trigger(info.clone())],
            native,
            messages: vec![format!("trigger '{}' dropped", info.name)],
        })
    }

    fn drop_event(&self, event: &str) -> Result<RulePlan> {
        let event_i = self.resolve_event(event)?;
        let triggers = self.registry.triggers_on(&event_i);
        if !triggers.is_empty() {
            return Err(naming_err(format!(
                "event '{event_i}' still has {} trigger(s)",
                triggers.len()
            )));
        }
        let deps = self.registry.dependents_of(&event_i);
        if !deps.is_empty() {
            return Err(naming_err(format!(
                "event '{event_i}' is referenced by {} composite event(s)",
                deps.len()
            )));
        }
        let ev = sql_quote(&event_i);
        let (batch, entry, native) = match self.registry.primitive(&event_i) {
            Some(info) => {
                let mut batch = vec![format!(
                    "delete SysPrimitiveEvent where eventName = {ev}\n\
                     delete SysAgentWatermark where eventName = {ev}"
                )];
                for t in [
                    &info.shadow_inserted,
                    &info.shadow_deleted,
                    &info.version_table,
                ] {
                    if self.db.has_table(t) {
                        batch.push(format!("drop table {t}"));
                    }
                }
                (batch, Entry::Primitive(info.clone()), Some(info.clone()))
            }
            None => {
                let info = self.registry.composite(&event_i).expect("resolved event");
                (
                    vec![format!("delete SysCompositeEvent where eventName = {ev}")],
                    Entry::Composite(info.clone()),
                    None,
                )
            }
        };
        Ok(RulePlan {
            direction: Direction::Retire,
            batch: batch.join("\n"),
            entries: vec![entry],
            native,
            messages: vec![format!("event '{event_i}' dropped")],
        })
    }

    /// Lower an action body: a saga declaration (whose step procedures
    /// must already exist) or SQL with its context accessors rewritten.
    fn action(&self, trigger_i: &str, body: &str) -> Result<Action> {
        let saga = SagaSpec::parse_action(body, &|n| self.internal(n))?;
        if let Some(spec) = &saga {
            for step in &spec.steps {
                for proc in std::iter::once(&step.proc).chain(step.compensation.as_ref()) {
                    if self.db.procedure(proc, None).is_none() {
                        return Err(naming_err(format!(
                            "saga step procedure '{proc}' does not exist"
                        )));
                    }
                }
            }
            return Ok(Action {
                saga,
                proc_name: String::new(),
                sql: None,
            });
        }
        let proc_name = naming::action_proc(trigger_i);
        free(
            "procedure",
            &proc_name,
            self.db.procedure(&proc_name, None).is_some(),
        )?;
        let (rewritten, refs) = codegen::rewrite_context_refs(body, |t| {
            self.resolve_table(t).unwrap_or_else(|_| self.internal(t))
        });
        Ok(Action {
            saga: None,
            proc_name,
            sql: Some(ActionSql { rewritten, refs }),
        })
    }

    /// Context tmp tables cloned from `info`'s own shadows, for the ones
    /// that do not exist yet (tmp tables are shared per user table).
    fn tmp_from_event(
        &self,
        refs: &[ContextRef],
        info: &PrimitiveEventInfo,
        batch: &mut Vec<String>,
    ) {
        for r in refs {
            let tmp = r.tmp();
            if !self.db.has_table(&tmp) {
                batch.push(codegen::tmp_table_ddl(&tmp, info.shadow(r.kind)));
            }
        }
    }

    /// Context tmp tables cloned from the shadow of any event on the
    /// referenced table or, with no event there yet, from the table itself
    /// plus a `vNo` column.
    fn tmp_from_refs(&self, refs: &[ContextRef], batch: &mut Vec<String>) -> Result<()> {
        for r in refs {
            let tmp = r.tmp();
            if self.db.has_table(&tmp) {
                continue;
            }
            let shadow = [TriggerOp::Insert, TriggerOp::Update, TriggerOp::Delete]
                .into_iter()
                .find_map(|op| self.registry.primitive_for_slot(&r.table, op))
                .map(|p| p.shadow(r.kind));
            match shadow {
                Some(shadow) => batch.push(codegen::tmp_table_ddl(&tmp, shadow)),
                None => {
                    let key = self
                        .db
                        .resolve_table_key(&r.table, None)
                        .ok_or_else(|| naming_err(format!("table '{}' does not exist", r.table)))?;
                    self.no_vno_column(&key)?;
                    batch.push(format!(
                        "select * into {tmp} from {t} where 1=2\n\
                         alter table {tmp} add vNo int null",
                        t = r.table
                    ));
                }
            }
        }
        Ok(())
    }

    fn internal(&self, name: &str) -> String {
        naming::internal(self.session, name)
    }

    fn resolve_table(&self, name: &str) -> Result<String> {
        self.db
            .resolve_table_key(name, Some((&self.session.database, &self.session.user)))
            .ok_or_else(|| naming_err(format!("table '{name}' does not exist")))
    }

    /// Resolve an event reference: try the §5.1 expansion first, then the
    /// name as written (it may already be internal).
    fn resolve_event(&self, name: &str) -> Result<String> {
        let expanded = self.internal(name);
        if self.registry.has_event(&expanded) {
            return Ok(expanded);
        }
        if self.registry.has_event(name) {
            return Ok(name.to_string());
        }
        Err(naming_err(format!("unknown event '{name}'")))
    }

    /// A shadow table is the table's schema plus `vNo`; a table that
    /// already has one cannot be shadowed.
    fn no_vno_column(&self, table_key: &str) -> Result<()> {
        match self.db.table(table_key) {
            Some(t) if t.schema.index_of("vNo").is_some() => Err(naming_err(format!(
                "table '{table_key}' already has a vNo column"
            ))),
            _ => Ok(()),
        }
    }
}

/// Reject a name the plan would create that the registry or the server
/// already holds: the object is someone else's, and the command must not
/// touch it.
fn free(kind: &str, name: &str, taken: bool) -> Result<()> {
    if taken {
        return Err(naming_err(format!("{kind} '{name}' already exists")));
    }
    Ok(())
}

/// Context sources for an LED action procedure: the shadows of the
/// primitive constituents that match each referenced (table, kind).
fn context_sources(
    refs: &[ContextRef],
    constituents: &[&PrimitiveEventInfo],
) -> Vec<ContextSource> {
    let mut sources = Vec::new();
    for r in refs {
        for p in constituents {
            if p.table.eq_ignore_ascii_case(&r.table)
                && p.stamped_shadows().iter().any(|(_, kind)| *kind == r.kind)
            {
                sources.push(ContextSource {
                    tmp: r.tmp(),
                    shadow: p.shadow(r.kind).to_string(),
                });
            }
        }
    }
    sources
}

fn naming_err(msg: String) -> AgentError {
    AgentError::Naming(msg)
}
