//! In-memory registry of agent-managed events and triggers.
//!
//! The registry is the agent's working view of the metadata that the
//! Persistent Manager stores in the system tables (Figures 5–7); it is
//! rebuilt from those tables on recovery.

use std::collections::HashMap;
use std::sync::Arc;

use led::{CouplingMode, ParameterContext};
use relsql::ast::TriggerOp;

use crate::error::{AgentError, Result};
use crate::naming;
use crate::saga::SagaSpec;

/// A primitive event: a (table, operation) pair with named, reusable
/// identity (the thing native Sybase cannot do — §2.2).
#[derive(Debug, Clone)]
pub struct PrimitiveEventInfo {
    /// Internal event name (`db.user.event`).
    pub name: String,
    /// Identity of the defining session (`SysPrimitiveEvent.dbName` /
    /// `userName`): the native trigger is always issued under it.
    pub db: String,
    pub user: String,
    /// The watched table as the defining user wrote it
    /// (`SysPrimitiveEvent.tableName`).
    pub table_sql: String,
    /// Catalog key the watched table resolved to.
    pub table: String,
    pub operation: TriggerOp,
    /// Shadow and helper tables generated for this event.
    pub shadow_inserted: String,
    pub shadow_deleted: String,
    pub version_table: String,
}

impl PrimitiveEventInfo {
    /// The event `name` (internal form) that `db.user` defined on
    /// `table_sql`, which resolves to the catalog key `table`. Shadow and
    /// helper table names follow [`crate::naming`].
    pub(crate) fn new(
        name: &str,
        db: &str,
        user: &str,
        table_sql: &str,
        table: &str,
        operation: TriggerOp,
    ) -> Self {
        PrimitiveEventInfo {
            name: name.to_string(),
            db: db.to_string(),
            user: user.to_string(),
            table_sql: table_sql.to_string(),
            table: table.to_string(),
            operation,
            shadow_inserted: naming::shadow_inserted(name),
            shadow_deleted: naming::shadow_deleted(name),
            version_table: naming::version_table(name),
        }
    }

    /// The shadow table holding `kind` tuples.
    pub(crate) fn shadow(&self, kind: ShadowKind) -> &str {
        match kind {
            ShadowKind::Inserted => &self.shadow_inserted,
            ShadowKind::Deleted => &self.shadow_deleted,
        }
    }

    /// Shadow tables this event stamps for its operation.
    pub fn stamped_shadows(&self) -> Vec<(&str, ShadowKind)> {
        match self.operation {
            TriggerOp::Insert => vec![(self.shadow_inserted.as_str(), ShadowKind::Inserted)],
            TriggerOp::Delete => vec![(self.shadow_deleted.as_str(), ShadowKind::Deleted)],
            TriggerOp::Update => vec![
                (self.shadow_inserted.as_str(), ShadowKind::Inserted),
                (self.shadow_deleted.as_str(), ShadowKind::Deleted),
            ],
        }
    }
}

/// Which pseudo-table a shadow corresponds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShadowKind {
    Inserted,
    Deleted,
}

/// A composite event defined through Snoop.
#[derive(Debug, Clone)]
pub struct CompositeEventInfo {
    pub name: String,
    /// The Snoop expression over *internal* names (as persisted in
    /// `SysCompositeEvent.eventDescribe`).
    pub expr_src: String,
    pub context: ParameterContext,
}

/// How a trigger's action is dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerKind {
    /// `EXECUTE proc` embedded in the event's native SQL trigger —
    /// the Figure 11 path (primitive event, IMMEDIATE coupling).
    Native,
    /// Registered as an LED rule, dispatched via Event Notifier → Action
    /// Handler — the Figure 14 path.
    Led,
}

/// An agent-managed trigger (ECA rule).
#[derive(Debug, Clone)]
pub struct TriggerInfo {
    pub name: String,
    pub event: String,
    pub proc_name: String,
    pub kind: TriggerKind,
    pub coupling: CouplingMode,
    pub context: ParameterContext,
    pub priority: i32,
    /// When the action is a saga, its ordered step/compensation list
    /// (DESIGN.md §12); `None` for single-procedure actions. Saga-valued
    /// triggers are always [`TriggerKind::Led`] — the executor owns the
    /// journal protocol, so the action is never embedded natively.
    pub saga: Option<Arc<SagaSpec>>,
}

/// The registry proper.
#[derive(Debug, Default)]
pub struct Registry {
    primitives: HashMap<String, PrimitiveEventInfo>,
    composites: HashMap<String, CompositeEventInfo>,
    triggers: HashMap<String, TriggerInfo>,
    /// (table_key, op) -> event name; enforces one event per slot.
    slots: HashMap<(String, TriggerOp), String>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    // -------------------------------------------------------------- events

    pub fn add_primitive(&mut self, info: PrimitiveEventInfo) -> Result<()> {
        if self.has_event(&info.name) {
            return Err(AgentError::Naming(format!(
                "event '{}' already exists",
                info.name
            )));
        }
        let slot = (info.table.to_ascii_lowercase(), info.operation);
        if let Some(existing) = self.slots.get(&slot) {
            return Err(AgentError::Naming(format!(
                "event '{existing}' already watches {} on '{}' — reuse it instead",
                info.operation, info.table
            )));
        }
        self.slots.insert(slot, info.name.clone());
        self.primitives.insert(info.name.clone(), info);
        Ok(())
    }

    pub fn add_composite(&mut self, info: CompositeEventInfo) -> Result<()> {
        if self.has_event(&info.name) {
            return Err(AgentError::Naming(format!(
                "event '{}' already exists",
                info.name
            )));
        }
        self.composites.insert(info.name.clone(), info);
        Ok(())
    }

    pub fn has_event(&self, name: &str) -> bool {
        self.primitives.contains_key(name) || self.composites.contains_key(name)
    }

    pub fn primitive(&self, name: &str) -> Option<&PrimitiveEventInfo> {
        self.primitives.get(name)
    }

    pub fn composite(&self, name: &str) -> Option<&CompositeEventInfo> {
        self.composites.get(name)
    }

    /// Every primitive event, in no particular order.
    pub(crate) fn primitives(&self) -> impl Iterator<Item = &PrimitiveEventInfo> {
        self.primitives.values()
    }

    pub fn primitive_for_slot(&self, table: &str, op: TriggerOp) -> Option<&PrimitiveEventInfo> {
        self.slots
            .get(&(table.to_ascii_lowercase(), op))
            .and_then(|name| self.primitives.get(name))
    }

    /// The transitive *primitive* constituents of an event (an event may be
    /// built from other composites — contribution #2, event reuse).
    pub fn primitive_constituents(&self, event: &str) -> Vec<&PrimitiveEventInfo> {
        let mut out: Vec<&PrimitiveEventInfo> = Vec::new();
        let mut stack = vec![event.to_string()];
        let mut seen = Vec::new();
        while let Some(name) = stack.pop() {
            if seen.contains(&name) {
                continue;
            }
            seen.push(name.clone());
            if let Some(p) = self.primitives.get(&name) {
                if !out.iter().any(|e| e.name == p.name) {
                    out.push(p);
                }
            } else if let Some(c) = self.composites.get(&name) {
                if let Ok(expr) = snoop::parse(&c.expr_src) {
                    for r in expr.references() {
                        stack.push(r.key());
                    }
                }
            }
        }
        out
    }

    /// Composite events that (directly) reference `event`.
    pub fn dependents_of(&self, event: &str) -> Vec<&CompositeEventInfo> {
        self.composites
            .values()
            .filter(|c| {
                snoop::parse(&c.expr_src)
                    .map(|e| e.references().iter().any(|r| r.key() == event))
                    .unwrap_or(false)
            })
            .collect()
    }

    pub fn remove_primitive(&mut self, name: &str) -> Option<PrimitiveEventInfo> {
        let info = self.primitives.remove(name)?;
        self.slots
            .remove(&(info.table.to_ascii_lowercase(), info.operation));
        Some(info)
    }

    pub fn remove_composite(&mut self, name: &str) -> Option<CompositeEventInfo> {
        self.composites.remove(name)
    }

    // ------------------------------------------------------------ triggers

    pub fn add_trigger(&mut self, info: TriggerInfo) -> Result<()> {
        if self.triggers.contains_key(&info.name) {
            return Err(AgentError::Naming(format!(
                "trigger '{}' already exists",
                info.name
            )));
        }
        self.triggers.insert(info.name.clone(), info);
        Ok(())
    }

    pub fn trigger(&self, name: &str) -> Option<&TriggerInfo> {
        self.triggers.get(name)
    }

    pub fn remove_trigger(&mut self, name: &str) -> Option<TriggerInfo> {
        self.triggers.remove(name)
    }

    /// Triggers on a given event, in insertion-independent (name) order.
    pub fn triggers_on(&self, event: &str) -> Vec<&TriggerInfo> {
        let mut v: Vec<&TriggerInfo> = self
            .triggers
            .values()
            .filter(|t| t.event == event)
            .collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Native-embedded (Figure 11 path) triggers on a primitive event, in
    /// descending priority then name order — the order their `EXECUTE`
    /// lines appear in the regenerated native trigger.
    pub fn native_triggers_on(&self, event: &str) -> Vec<&TriggerInfo> {
        let mut v: Vec<&TriggerInfo> = self
            .triggers
            .values()
            .filter(|t| t.event == event && t.kind == TriggerKind::Native)
            .collect();
        v.sort_by(|a, b| b.priority.cmp(&a.priority).then(a.name.cmp(&b.name)));
        v
    }

    pub fn trigger_count(&self) -> usize {
        self.triggers.len()
    }

    pub fn trigger_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.triggers.keys().cloned().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prim(name: &str, table: &str, op: TriggerOp) -> PrimitiveEventInfo {
        PrimitiveEventInfo::new(name, "db", "u", table, table, op)
    }

    fn trig(name: &str, event: &str, kind: TriggerKind, priority: i32) -> TriggerInfo {
        TriggerInfo {
            name: name.into(),
            event: event.into(),
            proc_name: format!("{name}__Proc"),
            kind,
            coupling: CouplingMode::Immediate,
            context: ParameterContext::Recent,
            priority,
            saga: None,
        }
    }

    #[test]
    fn slot_uniqueness() {
        let mut r = Registry::new();
        r.add_primitive(prim("e1", "db.u.stock", TriggerOp::Insert))
            .unwrap();
        let err = r
            .add_primitive(prim("e2", "DB.U.STOCK", TriggerOp::Insert))
            .unwrap_err();
        assert!(err.to_string().contains("reuse"));
        // A different operation is a different slot.
        r.add_primitive(prim("e3", "db.u.stock", TriggerOp::Delete))
            .unwrap();
        assert_eq!(
            r.primitive_for_slot("db.u.stock", TriggerOp::Insert)
                .unwrap()
                .name,
            "e1"
        );
    }

    #[test]
    fn stamped_shadows_per_operation() {
        let p = prim("e", "t", TriggerOp::Update);
        let shadows = p.stamped_shadows();
        assert_eq!(shadows.len(), 2);
        assert_eq!(prim("e", "t", TriggerOp::Insert).stamped_shadows().len(), 1);
        assert_eq!(
            prim("e", "t", TriggerOp::Delete).stamped_shadows()[0].1,
            ShadowKind::Deleted
        );
    }

    #[test]
    fn transitive_constituents() {
        let mut r = Registry::new();
        r.add_primitive(prim("a", "t1", TriggerOp::Insert)).unwrap();
        r.add_primitive(prim("b", "t2", TriggerOp::Delete)).unwrap();
        r.add_composite(CompositeEventInfo {
            name: "ab".into(),
            expr_src: "a ^ b".into(),
            context: ParameterContext::Recent,
        })
        .unwrap();
        r.add_composite(CompositeEventInfo {
            name: "abc".into(),
            expr_src: "ab ; a".into(),
            context: ParameterContext::Recent,
        })
        .unwrap();
        let names: Vec<&str> = r
            .primitive_constituents("abc")
            .iter()
            .map(|p| p.name.as_str())
            .collect();
        assert_eq!(names.len(), 2);
        assert!(names.contains(&"a") && names.contains(&"b"));
    }

    #[test]
    fn dependents() {
        let mut r = Registry::new();
        r.add_primitive(prim("a", "t1", TriggerOp::Insert)).unwrap();
        r.add_composite(CompositeEventInfo {
            name: "c".into(),
            expr_src: "a | a".into(),
            context: ParameterContext::Recent,
        })
        .unwrap();
        assert_eq!(r.dependents_of("a").len(), 1);
        assert!(r.dependents_of("c").is_empty());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut r = Registry::new();
        r.add_primitive(prim("e", "t", TriggerOp::Insert)).unwrap();
        assert!(r
            .add_composite(CompositeEventInfo {
                name: "e".into(),
                expr_src: "x".into(),
                context: ParameterContext::Recent,
            })
            .is_err());
        r.add_trigger(trig("tr", "e", TriggerKind::Native, 0))
            .unwrap();
        assert!(r.add_trigger(trig("tr", "e", TriggerKind::Led, 0)).is_err());
    }

    #[test]
    fn native_triggers_ordered_by_priority() {
        let mut r = Registry::new();
        r.add_trigger(trig("t_low", "e", TriggerKind::Native, 1))
            .unwrap();
        r.add_trigger(trig("t_high", "e", TriggerKind::Native, 9))
            .unwrap();
        r.add_trigger(trig("t_led", "e", TriggerKind::Led, 99))
            .unwrap();
        let order: Vec<&str> = r
            .native_triggers_on("e")
            .iter()
            .map(|t| t.name.as_str())
            .collect();
        assert_eq!(order, vec!["t_high", "t_low"]);
        assert_eq!(r.triggers_on("e").len(), 3);
    }

    #[test]
    fn removal() {
        let mut r = Registry::new();
        r.add_primitive(prim("e", "t", TriggerOp::Insert)).unwrap();
        r.add_trigger(trig("tr", "e", TriggerKind::Native, 0))
            .unwrap();
        assert!(r.remove_trigger("tr").is_some());
        assert!(r.remove_trigger("tr").is_none());
        assert!(r.remove_primitive("e").is_some());
        // The slot is free again.
        r.add_primitive(prim("e2", "t", TriggerOp::Insert)).unwrap();
    }
}
