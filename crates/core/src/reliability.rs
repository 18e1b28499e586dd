//! Exactly-once admission over the lossy notification channel.
//!
//! The paper (§6) leaves `syb_sendmsg` reliability open: datagrams can be
//! dropped, duplicated, reordered or delayed. The agent closes the gap by
//! treating the channel as a *wake-up hint* and the database as the source
//! of truth: the native trigger durably bumps the event's occurrence
//! number (`vNo` in `SysPrimitiveEvent`) and stamps the shadow rows
//! *before* the datagram is sent, so every occurrence is recoverable even
//! if its datagram never arrives.
//!
//! This module keeps a per-event **high-water mark** (the highest `vNo`
//! whose occurrence has been raised into the LED) and classifies each
//! arriving `(event, vNo)`:
//!
//! - `vNo > hwm` — fresh; any skipped numbers in `hwm+1..vNo` are gaps to
//!   synthesize from the durable shadow rows, in `vNo` order.
//! - `vNo <= hwm` and previously synthesized — the late arrival of a
//!   datagram whose occurrence a gap repair already raised; ignore it.
//! - `vNo <= hwm` otherwise — a duplicate delivery; suppress it.
//!
//! An anti-entropy sweep ([`ReliabilityTracker::observe_durable`])
//! compares the durable counter against the high-water mark and repairs
//! occurrences whose datagram never arrived at all. Derived counters:
//! `drops_detected = gaps_repaired - late_arrivals` (repairs whose
//! datagram eventually showed up were delays, not drops).

use std::collections::{HashMap, HashSet};

/// How an arriving `(event, vNo)` datagram should be handled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// New occurrence; synthesize `missing` (ascending, possibly empty)
    /// before raising the arrived occurrence itself.
    Fresh { missing: Vec<i64> },
    /// Same occurrence delivered again — suppress.
    Duplicate,
    /// Datagram of an occurrence a gap repair already raised — suppress.
    LateArrival,
}

#[derive(Debug, Default)]
struct EventState {
    /// Highest `vNo` raised into the LED (occurrences start at 1).
    hwm: i64,
    /// `vNo`s raised by gap repair whose datagram has not arrived (yet).
    synthesized: HashSet<i64>,
}

/// Per-event high-water-mark tracker (see module docs).
#[derive(Debug, Default)]
pub struct ReliabilityTracker {
    events: HashMap<String, EventState>,
    /// Events whose hwm changed since the last [`take_dirty`] call.
    dirty: HashSet<String>,
    gaps_repaired: u64,
    duplicates_suppressed: u64,
    late_arrivals: u64,
}

impl ReliabilityTracker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `event` with an initial high-water mark, without counting
    /// anything (used at event creation and recovery). Does not mark the
    /// event dirty.
    pub fn seed_event(&mut self, event: &str, hwm: i64) {
        let st = self.events.entry(event.to_string()).or_default();
        st.hwm = hwm;
        st.synthesized.clear();
    }

    /// Forget a dropped event's state.
    pub fn forget_event(&mut self, event: &str) {
        self.events.remove(event);
        self.dirty.remove(event);
    }

    /// Current high-water mark of an event, if tracked.
    pub fn hwm(&self, event: &str) -> Option<i64> {
        self.events.get(event).map(|s| s.hwm)
    }

    /// Classify an arriving datagram (see [`Admission`]).
    pub fn admit(&mut self, event: &str, vno: i64) -> Admission {
        let st = self.events.entry(event.to_string()).or_default();
        if vno <= st.hwm {
            if st.synthesized.remove(&vno) {
                self.late_arrivals += 1;
                Admission::LateArrival
            } else {
                self.duplicates_suppressed += 1;
                Admission::Duplicate
            }
        } else {
            let missing: Vec<i64> = (st.hwm + 1..vno).collect();
            for &m in &missing {
                st.synthesized.insert(m);
            }
            self.gaps_repaired += missing.len() as u64;
            st.hwm = vno;
            self.dirty.insert(event.to_string());
            Admission::Fresh { missing }
        }
    }

    /// Anti-entropy: reconcile with the committed durable occurrence
    /// counter. Returns the `vNo`s to synthesize, in ascending order. The
    /// mark never moves down: only committed occurrences are posted, so a
    /// counter at or below it has nothing left to repair.
    pub fn observe_durable(&mut self, event: &str, durable: i64) -> Vec<i64> {
        let st = self.events.entry(event.to_string()).or_default();
        if durable <= st.hwm {
            return Vec::new();
        }
        let missing: Vec<i64> = (st.hwm + 1..=durable).collect();
        for &m in &missing {
            st.synthesized.insert(m);
        }
        self.gaps_repaired += missing.len() as u64;
        st.hwm = durable;
        self.dirty.insert(event.to_string());
        missing
    }

    /// Drain the set of events whose high-water mark changed, with their
    /// current marks — the write-behind set for `SysAgentWatermark`.
    pub fn take_dirty(&mut self) -> Vec<(String, i64)> {
        let dirty = std::mem::take(&mut self.dirty);
        dirty
            .into_iter()
            .filter_map(|e| self.events.get(&e).map(|s| (e.clone(), s.hwm)))
            .collect()
    }

    pub fn gaps_repaired(&self) -> u64 {
        self.gaps_repaired
    }

    pub fn duplicates_suppressed(&self) -> u64 {
        self.duplicates_suppressed
    }

    pub fn late_arrivals(&self) -> u64 {
        self.late_arrivals
    }

    /// Repairs whose datagram never arrived: actual channel drops.
    pub fn drops_detected(&self) -> u64 {
        self.gaps_repaired.saturating_sub(self.late_arrivals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_arrivals_are_fresh_with_no_gaps() {
        let mut t = ReliabilityTracker::new();
        t.seed_event("e", 0);
        for v in 1..=5 {
            assert_eq!(t.admit("e", v), Admission::Fresh { missing: vec![] });
        }
        assert_eq!(t.hwm("e"), Some(5));
        assert_eq!(t.gaps_repaired(), 0);
        assert_eq!(t.duplicates_suppressed(), 0);
    }

    #[test]
    fn duplicate_is_suppressed() {
        let mut t = ReliabilityTracker::new();
        t.admit("e", 1);
        assert_eq!(t.admit("e", 1), Admission::Duplicate);
        assert_eq!(t.duplicates_suppressed(), 1);
        assert_eq!(t.hwm("e"), Some(1));
    }

    #[test]
    fn gap_is_repaired_then_late_arrival_suppressed() {
        let mut t = ReliabilityTracker::new();
        t.admit("e", 1);
        // 2 and 3 skipped: their datagrams are in flight or lost.
        assert_eq!(
            t.admit("e", 4),
            Admission::Fresh {
                missing: vec![2, 3]
            }
        );
        assert_eq!(t.gaps_repaired(), 2);
        assert_eq!(t.drops_detected(), 2);
        // 3's datagram shows up late: a delay, not a drop.
        assert_eq!(t.admit("e", 3), Admission::LateArrival);
        assert_eq!(t.late_arrivals(), 1);
        assert_eq!(t.drops_detected(), 1);
        // A second copy of 3 is now an ordinary duplicate.
        assert_eq!(t.admit("e", 3), Admission::Duplicate);
    }

    #[test]
    fn durable_sweep_repairs_fully_dropped_occurrences() {
        let mut t = ReliabilityTracker::new();
        t.seed_event("e", 0);
        assert_eq!(t.observe_durable("e", 3), vec![1, 2, 3]);
        assert_eq!(t.hwm("e"), Some(3));
        assert_eq!(t.gaps_repaired(), 3);
        assert!(t.observe_durable("e", 3).is_empty(), "idempotent");
    }

    #[test]
    fn dirty_tracking_feeds_write_behind() {
        let mut t = ReliabilityTracker::new();
        t.seed_event("a", 0);
        t.seed_event("b", 0);
        assert!(t.take_dirty().is_empty(), "seeding is not dirty");
        t.admit("a", 1);
        t.admit("a", 2);
        t.observe_durable("b", 5);
        let mut dirty = t.take_dirty();
        dirty.sort();
        assert_eq!(dirty, vec![("a".to_string(), 2), ("b".to_string(), 5)]);
        assert!(t.take_dirty().is_empty());
    }

    #[test]
    fn forget_event_clears_state() {
        let mut t = ReliabilityTracker::new();
        t.admit("e", 3);
        t.forget_event("e");
        assert_eq!(t.hwm("e"), None);
        assert!(t.take_dirty().is_empty());
    }

    #[test]
    fn seed_does_not_replay_old_occurrences() {
        let mut t = ReliabilityTracker::new();
        t.seed_event("e", 10);
        assert_eq!(t.admit("e", 10), Admission::Duplicate);
        assert_eq!(t.admit("e", 11), Admission::Fresh { missing: vec![] });
    }
}
