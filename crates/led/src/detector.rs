//! The Local Event Detector (LED): an event graph over Snoop operators.
//!
//! Mirrors Sentinel's LED as used by the paper (§2, §5.3): primitive events
//! are leaf nodes signalled from outside (the Event Notifier, in the
//! agent); composite events are operator nodes built from a parsed
//! [`snoop::EventExpr`]; rules attach to any registered event and fire with
//! the detected occurrence, its parameter-context composition already
//! applied.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use snoop::{EventExpr, TimeSpec};

use crate::context::{CouplingMode, ParameterContext};
use crate::occurrence::{Occurrence, Param};
use crate::operators::OpState;
use crate::rule::{Firing, RuleSpec};

/// Errors from detector operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedError {
    DuplicateEvent(String),
    UnknownEvent(String),
    DuplicateRule(String),
    UnknownRule(String),
    /// The event still has rules or other events depending on it.
    HasDependents(String),
    /// A node's buffered state exceeded the configured limit — the
    /// circuit breaker for unbounded CHRONICLE/CONTINUOUS growth (see
    /// experiment E9). Carries (event name, buffered size).
    StateLimitExceeded(String, usize),
}

impl fmt::Display for LedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedError::DuplicateEvent(n) => write!(f, "event '{n}' already exists"),
            LedError::UnknownEvent(n) => write!(f, "unknown event '{n}'"),
            LedError::DuplicateRule(n) => write!(f, "rule '{n}' already exists"),
            LedError::UnknownRule(n) => write!(f, "unknown rule '{n}'"),
            LedError::HasDependents(n) => write!(f, "event '{n}' has dependents"),
            LedError::StateLimitExceeded(n, size) => write!(
                f,
                "event '{n}' buffers {size} occurrences, over the configured limit"
            ),
        }
    }
}

impl std::error::Error for LedError {}

struct Node {
    state: OpState,
    context: ParameterContext,
    /// The event name this node emits under.
    out_name: String,
    /// (parent node, child slot) subscriptions.
    parents: Vec<(usize, usize)>,
    /// Child node ids, in slot order (for subtree walks).
    children: Vec<usize>,
    /// Names of rules attached to this node.
    rules: Vec<String>,
}

struct RuleEntry {
    spec: RuleSpec,
    node: usize,
}

/// Detector counters (monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectorStats {
    /// Primitive signals received.
    pub signals: u64,
    /// Occurrences produced by any node (including re-emissions).
    pub emissions: u64,
    /// Rule firings (all coupling modes).
    pub firings: u64,
}

/// The Local Event Detector.
pub struct Detector {
    nodes: Vec<Node>,
    names: HashMap<String, usize>,
    rules: HashMap<String, RuleEntry>,
    deferred: Vec<Firing>,
    now: i64,
    stats: DetectorStats,
    /// Per-node buffered-occurrence ceiling; `None` disables the check.
    state_limit: Option<usize>,
}

impl Default for Detector {
    fn default() -> Self {
        Detector::new()
    }
}

impl Detector {
    pub fn new() -> Self {
        Detector {
            nodes: Vec::new(),
            names: HashMap::new(),
            rules: HashMap::new(),
            deferred: Vec::new(),
            now: 0,
            stats: DetectorStats::default(),
            state_limit: None,
        }
    }

    /// Install a per-node buffered-occurrence ceiling. When any operator
    /// node's state exceeds it after a signal, [`Detector::signal`] returns
    /// [`LedError::StateLimitExceeded`] — detection state is preserved, so
    /// the caller can shed load, drop the rule, or clear the event's state.
    pub fn set_state_limit(&mut self, limit: Option<usize>) {
        self.state_limit = limit;
    }

    /// Discard all buffered occurrences in a registered event's subtree
    /// (the recovery lever after a state-limit trip). Shared constituent
    /// nodes are cleared too — detection restarts from empty windows.
    pub fn clear_event_state(&mut self, event: &str) -> Result<(), LedError> {
        let &root = self
            .names
            .get(event)
            .ok_or_else(|| LedError::UnknownEvent(event.to_string()))?;
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut seen[n], true) {
                continue;
            }
            self.nodes[n].state.clear_state();
            stack.extend(self.nodes[n].children.iter().copied());
        }
        Ok(())
    }

    /// Current virtual time (the latest timestamp seen).
    pub fn now(&self) -> i64 {
        self.now
    }

    pub fn stats(&self) -> DetectorStats {
        self.stats
    }

    pub fn has_event(&self, name: &str) -> bool {
        self.names.contains_key(name)
    }

    pub fn event_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.names.keys().cloned().collect();
        v.sort();
        v
    }

    pub fn rule_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.rules.keys().cloned().collect();
        v.sort();
        v
    }

    pub fn rules_on(&self, event: &str) -> Vec<String> {
        match self.names.get(event) {
            Some(&nid) => self.nodes[nid].rules.clone(),
            None => Vec::new(),
        }
    }

    /// Register a primitive event (the paper's `PRIMITIVE` constructor).
    pub fn define_primitive(&mut self, name: &str) -> Result<(), LedError> {
        if self.names.contains_key(name) {
            return Err(LedError::DuplicateEvent(name.to_string()));
        }
        let id = self.push_node(OpState::Primitive, ParameterContext::Recent, name);
        self.names.insert(name.to_string(), id);
        Ok(())
    }

    /// Check, without touching the graph, that [`Detector::define_composite`]
    /// would accept `name = expr`: the name is free and every referenced
    /// event is already defined.
    pub fn check_composite(&self, name: &str, expr: &EventExpr) -> Result<(), LedError> {
        if self.names.contains_key(name) {
            return Err(LedError::DuplicateEvent(name.to_string()));
        }
        match expr
            .references()
            .into_iter()
            .find(|r| !self.names.contains_key(&r.key()))
        {
            Some(r) => Err(LedError::UnknownEvent(r.key())),
            None => Ok(()),
        }
    }

    /// Register a composite event from a Snoop expression. Every referenced
    /// event name must already be defined (primitive or composite) —
    /// the paper's "reuse of previously defined events" (§1).
    pub fn define_composite(
        &mut self,
        name: &str,
        expr: &EventExpr,
        context: ParameterContext,
    ) -> Result<(), LedError> {
        self.check_composite(name, expr)?;
        let id = self.build(expr, context, Some(name))?;
        self.names.insert(name.to_string(), id);
        Ok(())
    }

    fn push_node(&mut self, state: OpState, context: ParameterContext, out_name: &str) -> usize {
        let id = self.nodes.len();
        self.nodes.push(Node {
            state,
            context,
            out_name: out_name.to_string(),
            parents: Vec::new(),
            children: Vec::new(),
            rules: Vec::new(),
        });
        id
    }

    /// Subscribe `child` to `parent` at `slot`. Within one parent node, a
    /// child's subscriptions are kept in **descending slot order** so that
    /// when the same event feeds several operands (e.g. `e ; e`,
    /// `NOT(e, x, e)`), an arriving occurrence reaches the terminator slot
    /// *before* it (re-)initiates at slot 0 — otherwise `e ; e` could never
    /// detect because each occurrence would overwrite the initiator it was
    /// supposed to terminate.
    fn wire(&mut self, parent: usize, slot: usize, child: usize) {
        let parents = &mut self.nodes[child].parents;
        let at = parents
            .iter()
            .position(|&(p, s)| p == parent && s < slot)
            .unwrap_or(parents.len());
        parents.insert(at, (parent, slot));
        self.nodes[parent].children.push(child);
    }

    /// Recursively build the subgraph for `expr`; returns the root node id.
    fn build(
        &mut self,
        expr: &EventExpr,
        ctx: ParameterContext,
        name: Option<&str>,
    ) -> Result<usize, LedError> {
        let out_name = |id: usize| format!("_anon#{id}");
        match expr {
            EventExpr::Named(n) => {
                let key = n.key();
                let id = *self.names.get(&key).ok_or(LedError::UnknownEvent(key))?;
                if let Some(alias) = name {
                    // A composite defined as a pure alias of an existing
                    // event gets a pass-through OR node so it has its own
                    // name and rule attachment point.
                    let nid = self.push_node(OpState::Or, ctx, alias);
                    self.wire(nid, 0, id);
                    return Ok(nid);
                }
                Ok(id)
            }
            EventExpr::Or(l, r) | EventExpr::And(l, r) | EventExpr::Seq(l, r) => {
                let lid = self.build(l, ctx, None)?;
                let rid = self.build(r, ctx, None)?;
                let state = match expr {
                    EventExpr::Or(..) => OpState::Or,
                    EventExpr::And(..) => OpState::and(),
                    _ => OpState::seq(),
                };
                let nid = self.push_node(state, ctx, name.unwrap_or(""));
                if name.is_none() {
                    self.nodes[nid].out_name = out_name(nid);
                }
                self.wire(nid, 0, lid);
                self.wire(nid, 1, rid);
                Ok(nid)
            }
            EventExpr::Not { start, mid, end }
            | EventExpr::Aperiodic { start, mid, end }
            | EventExpr::AperiodicStar { start, mid, end } => {
                let sid = self.build(start, ctx, None)?;
                let mid_id = self.build(mid, ctx, None)?;
                let eid = self.build(end, ctx, None)?;
                let state = match expr {
                    EventExpr::Not { .. } => OpState::not(),
                    EventExpr::Aperiodic { .. } => OpState::aperiodic(),
                    _ => OpState::aperiodic_star(),
                };
                let nid = self.push_node(state, ctx, name.unwrap_or(""));
                if name.is_none() {
                    self.nodes[nid].out_name = out_name(nid);
                }
                self.wire(nid, 0, sid);
                self.wire(nid, 1, mid_id);
                self.wire(nid, 2, eid);
                Ok(nid)
            }
            EventExpr::Periodic {
                start,
                period,
                param,
                end,
            }
            | EventExpr::PeriodicStar {
                start,
                period,
                param,
                end,
            } => {
                let star = matches!(expr, EventExpr::PeriodicStar { .. });
                let sid = self.build(start, ctx, None)?;
                let eid = self.build(end, ctx, None)?;
                let nid = self.push_node(
                    OpState::periodic(period.micros, param.clone(), star),
                    ctx,
                    name.unwrap_or(""),
                );
                if name.is_none() {
                    self.nodes[nid].out_name = out_name(nid);
                }
                self.wire(nid, 0, sid);
                self.wire(nid, 2, eid);
                Ok(nid)
            }
            EventExpr::Plus { event, delta } => {
                let cid = self.build(event, ctx, None)?;
                let nid = self.push_node(OpState::plus(delta.micros), ctx, name.unwrap_or(""));
                if name.is_none() {
                    self.nodes[nid].out_name = out_name(nid);
                }
                self.wire(nid, 0, cid);
                Ok(nid)
            }
            EventExpr::Temporal(spec) => {
                let due = match spec {
                    TimeSpec::Absolute(t) => *t,
                    // Relative temporal events are anchored at definition time.
                    TimeSpec::Relative(d) => self.now + d.micros,
                };
                let nid = self.push_node(OpState::temporal(due), ctx, name.unwrap_or(""));
                if name.is_none() {
                    self.nodes[nid].out_name = out_name(nid);
                }
                Ok(nid)
            }
        }
    }

    /// Attach a rule to a registered event.
    pub fn add_rule(&mut self, spec: RuleSpec) -> Result<(), LedError> {
        if self.rules.contains_key(&spec.name) {
            return Err(LedError::DuplicateRule(spec.name));
        }
        let &node = self
            .names
            .get(&spec.event)
            .ok_or_else(|| LedError::UnknownEvent(spec.event.clone()))?;
        self.nodes[node].rules.push(spec.name.clone());
        self.rules
            .insert(spec.name.clone(), RuleEntry { spec, node });
        Ok(())
    }

    /// Remove a rule by name.
    pub fn drop_rule(&mut self, name: &str) -> Result<(), LedError> {
        let entry = self
            .rules
            .remove(name)
            .ok_or_else(|| LedError::UnknownRule(name.to_string()))?;
        self.nodes[entry.node].rules.retain(|r| r != name);
        self.deferred.retain(|f| f.rule != name);
        Ok(())
    }

    /// Remove a composite event. Refused while rules are attached or other
    /// events reference it.
    pub fn drop_composite(&mut self, name: &str) -> Result<(), LedError> {
        let &nid = self
            .names
            .get(name)
            .ok_or_else(|| LedError::UnknownEvent(name.to_string()))?;
        if !self.nodes[nid].rules.is_empty() || !self.nodes[nid].parents.is_empty() {
            return Err(LedError::HasDependents(name.to_string()));
        }
        // Unhook this node from its children's parent lists. The node slot
        // itself is retired in place (ids are stable).
        let children = self.nodes[nid].children.clone();
        for c in children {
            self.nodes[c].parents.retain(|&(p, _)| p != nid);
        }
        self.nodes[nid].state = OpState::Primitive;
        self.nodes[nid].children.clear();
        self.names.remove(name);
        Ok(())
    }

    /// Signal a primitive (or externally raised) event occurrence.
    ///
    /// Timers due at or before `ts` fire first, then the occurrence
    /// propagates. Returned firings carry IMMEDIATE and DETACHED rules,
    /// sorted by descending priority; DEFERRED firings queue until
    /// [`Detector::flush_deferred`].
    pub fn signal(
        &mut self,
        event: &str,
        params: Vec<Param>,
        ts: i64,
    ) -> Result<Vec<Firing>, LedError> {
        let &nid = self
            .names
            .get(event)
            .ok_or_else(|| LedError::UnknownEvent(event.to_string()))?;
        let mut firings = Vec::new();
        self.run_timers(ts, &mut firings);
        self.now = self.now.max(ts);
        self.stats.signals += 1;
        let params = if params.is_empty() {
            vec![Param::marker(event, ts)]
        } else {
            params
        };
        let occ = Occurrence::point(event, ts, params);
        self.propagate(nid, occ, &mut firings);
        if let Some(limit) = self.state_limit {
            for node in &self.nodes {
                let size = node.state.state_size();
                if size > limit {
                    // Detection state is intact; the firings of this signal
                    // are sacrificed to surface the breaker trip.
                    return Err(LedError::StateLimitExceeded(node.out_name.clone(), size));
                }
            }
        }
        firings.sort_by_key(|f| std::cmp::Reverse(f.priority));
        Ok(firings)
    }

    /// Advance virtual time, firing any due temporal events.
    pub fn advance_to(&mut self, ts: i64) -> Vec<Firing> {
        let mut firings = Vec::new();
        self.run_timers(ts, &mut firings);
        self.now = self.now.max(ts);
        firings.sort_by_key(|f| std::cmp::Reverse(f.priority));
        firings
    }

    /// Release all deferred firings (the end-of-transaction hook), sorted by
    /// descending priority then detection order.
    pub fn flush_deferred(&mut self) -> Vec<Firing> {
        let mut out = std::mem::take(&mut self.deferred);
        out.sort_by_key(|f| std::cmp::Reverse(f.priority));
        out
    }

    /// Pending deferred firings count.
    pub fn deferred_len(&self) -> usize {
        self.deferred.len()
    }

    /// Total buffered occurrences across all nodes (E9 metric).
    pub fn total_state_size(&self) -> usize {
        self.nodes.iter().map(|n| n.state.state_size()).sum()
    }

    /// Human-readable description of a registered event's operator tree
    /// (operator kinds in DFS order), for diagnostics and tests.
    pub fn describe(&self, event: &str) -> Option<String> {
        let &root = self.names.get(event)?;
        let mut parts = Vec::new();
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut seen[n], true) {
                continue;
            }
            parts.push(self.nodes[n].state.kind_name());
            // Push children in reverse so DFS visits them left-to-right.
            for &c in self.nodes[n].children.iter().rev() {
                stack.push(c);
            }
        }
        Some(parts.join(" "))
    }

    /// Buffered occurrences in the subtree of a registered event.
    pub fn state_size_of(&self, event: &str) -> Result<usize, LedError> {
        let &root = self
            .names
            .get(event)
            .ok_or_else(|| LedError::UnknownEvent(event.to_string()))?;
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![root];
        let mut total = 0;
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut seen[n], true) {
                continue;
            }
            total += self.nodes[n].state.state_size();
            stack.extend(self.nodes[n].children.iter().copied());
        }
        Ok(total)
    }

    fn run_timers(&mut self, target: i64, firings: &mut Vec<Firing>) {
        loop {
            // Earliest pending timer across all nodes.
            let due = self.nodes.iter().filter_map(|n| n.state.next_due()).min();
            let due = match due {
                Some(d) if d <= target => d,
                _ => break,
            };
            for nid in 0..self.nodes.len() {
                if self.nodes[nid].state.next_due() == Some(due) {
                    let out = self.nodes[nid].out_name.clone();
                    let emitted = self.nodes[nid].state.fire_due(due, &out);
                    for occ in emitted {
                        self.propagate(nid, occ, firings);
                    }
                }
            }
            self.now = self.now.max(due);
        }
    }

    fn propagate(&mut self, start: usize, occ: Occurrence, firings: &mut Vec<Firing>) {
        let mut queue = VecDeque::new();
        queue.push_back((start, occ));
        while let Some((nid, occ)) = queue.pop_front() {
            self.stats.emissions += 1;
            // Rules on this node.
            for rule_name in self.nodes[nid].rules.clone() {
                let entry = &self.rules[&rule_name];
                if !entry.spec.condition.eval(&occ) {
                    continue;
                }
                self.stats.firings += 1;
                let firing = Firing {
                    rule: entry.spec.name.clone(),
                    event: self.nodes[nid].out_name.clone(),
                    coupling: entry.spec.coupling,
                    priority: entry.spec.priority,
                    context: self.nodes[nid].context,
                    occurrence: occ.clone(),
                };
                if entry.spec.coupling == CouplingMode::Deferred {
                    self.deferred.push(firing);
                } else {
                    firings.push(firing);
                }
            }
            // Parent operator nodes.
            for (pid, slot) in self.nodes[nid].parents.clone() {
                let ctx = self.nodes[pid].context;
                let out = self.nodes[pid].out_name.clone();
                let emitted = self.nodes[pid].state.on_child(slot, &occ, ctx, &out);
                for e in emitted {
                    queue.push_back((pid, e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snoop::parse;

    fn det_with(names: &[&str]) -> Detector {
        let mut d = Detector::new();
        for n in names {
            d.define_primitive(n).unwrap();
        }
        d
    }

    fn fire(d: &mut Detector, event: &str, ts: i64) -> Vec<Firing> {
        d.signal(event, vec![], ts).unwrap()
    }

    #[test]
    fn primitive_rule_fires() {
        let mut d = det_with(&["addStk"]);
        d.add_rule(RuleSpec::new("t_addStk", "addStk")).unwrap();
        let f = fire(&mut d, "addStk", 1);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "t_addStk");
        assert_eq!(f[0].event, "addStk");
    }

    #[test]
    fn unknown_event_signal_errors() {
        let mut d = Detector::new();
        assert_eq!(
            d.signal("nope", vec![], 1).unwrap_err(),
            LedError::UnknownEvent("nope".into())
        );
    }

    #[test]
    fn multiple_rules_on_same_event() {
        // Paper contribution #4: multiple triggers on the same event.
        let mut d = det_with(&["e"]);
        d.add_rule(RuleSpec::new("r1", "e").with_priority(1))
            .unwrap();
        d.add_rule(RuleSpec::new("r2", "e").with_priority(9))
            .unwrap();
        d.add_rule(RuleSpec::new("r3", "e").with_priority(5))
            .unwrap();
        let f = fire(&mut d, "e", 1);
        let order: Vec<&str> = f.iter().map(|f| f.rule.as_str()).collect();
        assert_eq!(order, vec!["r2", "r3", "r1"], "priority order");
    }

    #[test]
    fn paper_example_2_and_composite() {
        // addDel = delStk ^ addStk, RECENT.
        let mut d = det_with(&["delStk", "addStk"]);
        let expr = parse("delStk ^ addStk").unwrap();
        d.define_composite("addDel", &expr, ParameterContext::Recent)
            .unwrap();
        d.add_rule(RuleSpec::new("t_and", "addDel")).unwrap();
        assert!(fire(&mut d, "delStk", 1).is_empty());
        let f = fire(&mut d, "addStk", 2);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].event, "addDel");
        assert_eq!(f[0].occurrence.params.len(), 2);
        assert_eq!(f[0].occurrence.t_start, 1);
        assert_eq!(f[0].occurrence.t_end, 2);
    }

    #[test]
    fn composite_references_must_exist() {
        let mut d = det_with(&["a"]);
        let expr = parse("a ^ missing").unwrap();
        assert_eq!(
            d.define_composite("x", &expr, ParameterContext::Recent)
                .unwrap_err(),
            LedError::UnknownEvent("missing".into())
        );
        // Failed definition leaves no trace.
        assert!(!d.has_event("x"));
    }

    #[test]
    fn check_composite_agrees_with_define_and_mutates_nothing() {
        let mut d = det_with(&["a"]);
        let missing = parse("a ^ missing").unwrap();
        assert_eq!(
            d.check_composite("x", &missing).unwrap_err(),
            LedError::UnknownEvent("missing".into())
        );
        let ok = parse("a ; a").unwrap();
        d.check_composite("x", &ok).unwrap();
        assert!(!d.has_event("x"), "a check defines nothing");
        d.define_composite("x", &ok, ParameterContext::Recent)
            .unwrap();
        assert_eq!(
            d.check_composite("x", &ok).unwrap_err(),
            LedError::DuplicateEvent("x".into())
        );
    }

    #[test]
    fn composite_of_composite() {
        // Event reuse (paper contribution #2): e3 = (a ^ b) ; c via e12.
        let mut d = det_with(&["a", "b", "c"]);
        d.define_composite("e12", &parse("a ^ b").unwrap(), ParameterContext::Recent)
            .unwrap();
        d.define_composite("e3", &parse("e12 ; c").unwrap(), ParameterContext::Recent)
            .unwrap();
        d.add_rule(RuleSpec::new("r", "e3")).unwrap();
        fire(&mut d, "a", 1);
        fire(&mut d, "b", 2); // e12 occurs [1,2]
        let f = fire(&mut d, "c", 3);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].occurrence.params.len(), 3);
    }

    #[test]
    fn alias_composite_gets_own_node() {
        let mut d = det_with(&["a"]);
        d.define_composite("alias_a", &parse("a").unwrap(), ParameterContext::Recent)
            .unwrap();
        d.add_rule(RuleSpec::new("r", "alias_a")).unwrap();
        let f = fire(&mut d, "a", 1);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].event, "alias_a");
    }

    #[test]
    fn or_composite_fires_on_either() {
        let mut d = det_with(&["a", "b"]);
        d.define_composite("ab", &parse("a | b").unwrap(), ParameterContext::Recent)
            .unwrap();
        d.add_rule(RuleSpec::new("r", "ab")).unwrap();
        assert_eq!(fire(&mut d, "a", 1).len(), 1);
        assert_eq!(fire(&mut d, "b", 2).len(), 1);
    }

    #[test]
    fn seq_strictness_through_graph() {
        let mut d = det_with(&["a", "b"]);
        d.define_composite("s", &parse("a ; b").unwrap(), ParameterContext::Recent)
            .unwrap();
        d.add_rule(RuleSpec::new("r", "s")).unwrap();
        assert!(fire(&mut d, "b", 1).is_empty());
        fire(&mut d, "a", 2);
        assert_eq!(fire(&mut d, "b", 3).len(), 1);
    }

    #[test]
    fn not_through_graph() {
        let mut d = det_with(&["open", "cancel", "close"]);
        d.define_composite(
            "quiet",
            &parse("NOT(open, cancel, close)").unwrap(),
            ParameterContext::Recent,
        )
        .unwrap();
        d.add_rule(RuleSpec::new("r", "quiet")).unwrap();
        fire(&mut d, "open", 1);
        fire(&mut d, "cancel", 2);
        assert!(fire(&mut d, "close", 3).is_empty());
        fire(&mut d, "open", 4);
        assert_eq!(fire(&mut d, "close", 5).len(), 1);
    }

    #[test]
    fn plus_fires_via_advance() {
        let mut d = det_with(&["e"]);
        d.define_composite(
            "late",
            &parse("e PLUS [10 sec]").unwrap(),
            ParameterContext::Recent,
        )
        .unwrap();
        d.add_rule(RuleSpec::new("r", "late")).unwrap();
        fire(&mut d, "e", 1_000_000);
        assert!(d.advance_to(10_999_999).is_empty());
        let f = d.advance_to(11_000_000);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].occurrence.t_end, 11_000_000);
    }

    #[test]
    fn timers_fire_before_later_signal() {
        let mut d = det_with(&["e", "z"]);
        d.define_composite(
            "late",
            &parse("e PLUS [1 sec]").unwrap(),
            ParameterContext::Recent,
        )
        .unwrap();
        d.add_rule(RuleSpec::new("r", "late")).unwrap();
        fire(&mut d, "e", 0);
        // Signalling z at t=5s flushes the timer due at t=1s first.
        let f = fire(&mut d, "z", 5_000_000);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "r");
    }

    #[test]
    fn periodic_through_graph() {
        let mut d = det_with(&["start", "stop"]);
        d.define_composite(
            "tick",
            &parse("P(start, [1 sec], stop)").unwrap(),
            ParameterContext::Recent,
        )
        .unwrap();
        d.add_rule(RuleSpec::new("r", "tick")).unwrap();
        fire(&mut d, "start", 0);
        let f = d.advance_to(3_500_000);
        assert_eq!(f.len(), 3, "fires at 1s, 2s, 3s");
        fire(&mut d, "stop", 4_000_000);
        assert!(d.advance_to(10_000_000).is_empty());
    }

    #[test]
    fn periodic_star_emits_at_close() {
        let mut d = det_with(&["start", "stop"]);
        d.define_composite(
            "ticks",
            &parse("P*(start, [1 sec]:t, stop)").unwrap(),
            ParameterContext::Recent,
        )
        .unwrap();
        d.add_rule(RuleSpec::new("r", "ticks")).unwrap();
        fire(&mut d, "start", 0);
        assert!(d.advance_to(2_500_000).is_empty());
        let f = fire(&mut d, "stop", 3_000_000);
        assert_eq!(f.len(), 1);
        // start + fires(1s, 2s) + stop — the 3s fire is simultaneous with
        // stop and therefore included as well (timers run first).
        assert!(f[0].occurrence.params.len() >= 4);
    }

    #[test]
    fn temporal_absolute_event() {
        let mut d = Detector::new();
        d.define_composite("at5", &parse("[@ 5000]").unwrap(), ParameterContext::Recent)
            .unwrap();
        d.add_rule(RuleSpec::new("r", "at5")).unwrap();
        assert!(d.advance_to(4_999).is_empty());
        assert_eq!(d.advance_to(5_000).len(), 1);
        assert!(d.advance_to(10_000).is_empty(), "fires once");
    }

    #[test]
    fn deferred_rules_queue_until_flush() {
        let mut d = det_with(&["e"]);
        d.add_rule(RuleSpec::new("r", "e").with_coupling(CouplingMode::Deferred))
            .unwrap();
        assert!(fire(&mut d, "e", 1).is_empty());
        assert!(fire(&mut d, "e", 2).is_empty());
        assert_eq!(d.deferred_len(), 2);
        let f = d.flush_deferred();
        assert_eq!(f.len(), 2);
        assert_eq!(d.deferred_len(), 0);
        assert!(d.flush_deferred().is_empty());
    }

    #[test]
    fn detached_rules_returned_with_flag() {
        let mut d = det_with(&["e"]);
        d.add_rule(RuleSpec::new("r", "e").with_coupling(CouplingMode::Detached))
            .unwrap();
        let f = fire(&mut d, "e", 1);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].coupling, CouplingMode::Detached);
    }

    #[test]
    fn drop_rule_stops_firing() {
        let mut d = det_with(&["e"]);
        d.add_rule(RuleSpec::new("r", "e")).unwrap();
        d.drop_rule("r").unwrap();
        assert!(fire(&mut d, "e", 1).is_empty());
        assert_eq!(
            d.drop_rule("r").unwrap_err(),
            LedError::UnknownRule("r".into())
        );
    }

    #[test]
    fn drop_rule_purges_deferred_queue() {
        let mut d = det_with(&["e"]);
        d.add_rule(RuleSpec::new("r", "e").with_coupling(CouplingMode::Deferred))
            .unwrap();
        fire(&mut d, "e", 1);
        assert_eq!(d.deferred_len(), 1);
        d.drop_rule("r").unwrap();
        assert_eq!(d.deferred_len(), 0);
    }

    #[test]
    fn drop_composite_guards_dependents() {
        let mut d = det_with(&["a", "b"]);
        d.define_composite("ab", &parse("a ^ b").unwrap(), ParameterContext::Recent)
            .unwrap();
        d.add_rule(RuleSpec::new("r", "ab")).unwrap();
        assert!(matches!(
            d.drop_composite("ab"),
            Err(LedError::HasDependents(_))
        ));
        d.drop_rule("r").unwrap();
        d.drop_composite("ab").unwrap();
        assert!(!d.has_event("ab"));
        // Primitives no longer feed the dropped node.
        fire(&mut d, "a", 1);
        fire(&mut d, "b", 2);
        assert_eq!(d.total_state_size(), 0);
    }

    #[test]
    fn duplicate_definitions_rejected() {
        let mut d = det_with(&["a"]);
        assert_eq!(
            d.define_primitive("a").unwrap_err(),
            LedError::DuplicateEvent("a".into())
        );
        d.define_composite("c", &parse("a | a").unwrap(), ParameterContext::Recent)
            .unwrap();
        assert!(d
            .define_composite("c", &parse("a | a").unwrap(), ParameterContext::Recent)
            .is_err());
        d.add_rule(RuleSpec::new("r", "a")).unwrap();
        assert_eq!(
            d.add_rule(RuleSpec::new("r", "a")).unwrap_err(),
            LedError::DuplicateRule("r".into())
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut d = det_with(&["a", "b"]);
        d.define_composite("ab", &parse("a ^ b").unwrap(), ParameterContext::Recent)
            .unwrap();
        d.add_rule(RuleSpec::new("r", "ab")).unwrap();
        fire(&mut d, "a", 1);
        fire(&mut d, "b", 2);
        let s = d.stats();
        assert_eq!(s.signals, 2);
        assert!(s.emissions >= 3); // a, b, ab
        assert_eq!(s.firings, 1);
    }

    #[test]
    fn state_size_tracks_buffers() {
        let mut d = det_with(&["a", "b"]);
        d.define_composite("s", &parse("a ; b").unwrap(), ParameterContext::Chronicle)
            .unwrap();
        for t in 0..10 {
            fire(&mut d, "a", t);
        }
        assert_eq!(d.total_state_size(), 10);
        assert_eq!(d.state_size_of("s").unwrap(), 10);
        fire(&mut d, "b", 100);
        assert_eq!(d.total_state_size(), 9);
    }

    #[test]
    fn same_event_both_operands() {
        // AND(a, a): every a is delivered to both slots.
        let mut d = det_with(&["a"]);
        d.define_composite("aa", &parse("a ^ a").unwrap(), ParameterContext::Recent)
            .unwrap();
        d.add_rule(RuleSpec::new("r", "aa")).unwrap();
        // First a: left slot stores; right slot sees left non-empty → pairs.
        let f = fire(&mut d, "a", 1);
        assert_eq!(f.len(), 1, "a^a detects on a single a (both slots fed)");
    }

    #[test]
    fn self_sequence_detects_consecutive_occurrences() {
        // `e ; e` must pair occurrence n with occurrence n+1, which relies
        // on terminator-slot-first delivery.
        let mut d = det_with(&["e"]);
        d.define_composite("ee", &parse("e ; e").unwrap(), ParameterContext::Recent)
            .unwrap();
        d.add_rule(RuleSpec::new("r", "ee")).unwrap();
        assert!(fire(&mut d, "e", 1).is_empty(), "first e only initiates");
        let f = fire(&mut d, "e", 2);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].occurrence.t_start, 1);
        assert_eq!(f[0].occurrence.t_end, 2);
    }

    #[test]
    fn self_not_window() {
        // NOT(e, x, e): a window between consecutive e's with no x.
        let mut d = det_with(&["e", "x"]);
        d.define_composite(
            "quiet",
            &parse("NOT(e, x, e)").unwrap(),
            ParameterContext::Recent,
        )
        .unwrap();
        d.add_rule(RuleSpec::new("r", "quiet")).unwrap();
        fire(&mut d, "e", 1);
        assert_eq!(fire(&mut d, "e", 2).len(), 1);
        fire(&mut d, "x", 3);
        assert!(fire(&mut d, "e", 4).is_empty(), "x cancelled the window");
        assert_eq!(fire(&mut d, "e", 5).len(), 1);
    }

    #[test]
    fn state_limit_circuit_breaker() {
        let mut d = det_with(&["a", "b"]);
        d.define_composite("s", &parse("a ; b").unwrap(), ParameterContext::Chronicle)
            .unwrap();
        d.add_rule(RuleSpec::new("r", "s")).unwrap();
        d.set_state_limit(Some(5));
        for t in 0..5 {
            fire(&mut d, "a", t);
        }
        // The sixth initiator trips the breaker.
        let err = d.signal("a", vec![], 6).unwrap_err();
        match err {
            LedError::StateLimitExceeded(name, size) => {
                assert_eq!(name, "s");
                assert_eq!(size, 6);
            }
            other => panic!("wrong error: {other:?}"),
        }
        // Recovery: clear the event's buffered state and continue.
        d.clear_event_state("s").unwrap();
        assert_eq!(d.total_state_size(), 0);
        fire(&mut d, "a", 10);
        assert_eq!(fire(&mut d, "b", 11).len(), 1);
        // Disabling the limit allows unbounded growth again.
        d.set_state_limit(None);
        for t in 20..40 {
            fire(&mut d, "a", t);
        }
        assert!(d.total_state_size() > 5);
    }

    #[test]
    fn clear_event_state_requires_known_event() {
        let mut d = Detector::new();
        assert!(matches!(
            d.clear_event_state("ghost"),
            Err(LedError::UnknownEvent(_))
        ));
    }

    #[test]
    fn event_names_and_rules_listing() {
        let mut d = det_with(&["b", "a"]);
        d.add_rule(RuleSpec::new("r2", "a")).unwrap();
        d.add_rule(RuleSpec::new("r1", "a")).unwrap();
        assert_eq!(d.event_names(), vec!["a", "b"]);
        assert_eq!(d.rule_names(), vec!["r1", "r2"]);
        assert_eq!(d.rules_on("a"), vec!["r2", "r1"]);
        assert!(d.rules_on("zzz").is_empty());
    }

    #[test]
    fn describe_lists_operator_tree() {
        let mut d = det_with(&["a", "b", "c"]);
        d.define_composite(
            "x",
            &parse("(a ^ b) ; c").unwrap(),
            ParameterContext::Recent,
        )
        .unwrap();
        assert_eq!(
            d.describe("x").unwrap(),
            "SEQ AND PRIMITIVE PRIMITIVE PRIMITIVE"
        );
        assert!(d.describe("nope").is_none());
    }

    #[test]
    fn params_flow_through() {
        let mut d = det_with(&["addStk"]);
        d.add_rule(RuleSpec::new("r", "addStk")).unwrap();
        let f = d
            .signal(
                "addStk",
                vec![Param::db(
                    "addStk",
                    "sentineldb.sharma.stock_inserted",
                    7,
                    1,
                )],
                1,
            )
            .unwrap();
        assert_eq!(f[0].occurrence.params[0].vno, Some(7));
        assert_eq!(
            f[0].occurrence.params[0].table.as_deref(),
            Some("sentineldb.sharma.stock_inserted")
        );
    }

    #[test]
    fn contexts_differ_observably() {
        // Same stream, different detection counts per context — the E9 story.
        let counts: Vec<usize> = ParameterContext::ALL
            .iter()
            .map(|&ctx| {
                let mut d = det_with(&["a", "b"]);
                d.define_composite("ab", &parse("a ^ b").unwrap(), ctx)
                    .unwrap();
                d.add_rule(RuleSpec::new("r", "ab")).unwrap();
                let mut n = 0;
                for t in 0..6 {
                    n += fire(&mut d, "a", t).len();
                }
                n + fire(&mut d, "b", 10).len()
            })
            .collect();
        // RECENT: 1 (latest a + b). CHRONICLE: 1 (oldest a + b).
        // CONTINUOUS: 6 (every open a). CUMULATIVE: 1 (merged).
        assert_eq!(counts, vec![1, 1, 6, 1]);
    }
}
