//! # eca-core — the ECA Agent
//!
//! Reproduction of the primary contribution of Chakravarthy & Li, *"An
//! Agent-Based Approach to Extending the Native Active Capability of
//! Relational Database Systems"* (ICDE 1999): a mediator between clients
//! and a passive SQL server that provides **full active-database
//! semantics** — named reusable events, composite events in the Snoop
//! language, all four parameter contexts, multiple triggers per event,
//! rule persistence and recovery — *without modifying the server or the
//! clients*.
//!
//! The agent speaks plain SQL to a [`relsql::SqlServer`] (the Sybase
//! stand-in), detects composite events with a [`led::Detector`], and is
//! driven by `syb_sendmsg` datagrams emitted from generated native
//! triggers.
//!
//! ```
//! use eca_core::{AgentConfig, EcaAgent};
//! use relsql::SqlServer;
//!
//! let server = SqlServer::new();
//! let agent = EcaAgent::with_defaults(std::sync::Arc::clone(&server)).unwrap();
//! let client = agent.client("sentineldb", "sharma");
//!
//! client.execute("create table stock (symbol varchar(10), price float)").unwrap();
//! // The paper's Example 1: a named, reusable primitive event + trigger.
//! client.execute(
//!     "create trigger t_addStk on stock for insert \
//!      event addStk \
//!      as print 'trigger t_addStk on primitive event addStk occurs'",
//! ).unwrap();
//! let resp = client.execute("insert stock values ('IBM', 104.5)").unwrap();
//! assert_eq!(resp.actions.len(), 0); // native path: action ran inside the server
//! assert!(resp.server.messages.iter().any(|m| m.contains("t_addStk")));
//! let _ = AgentConfig::default();
//! ```

pub mod action;
pub mod agent;
pub mod baseline;
pub mod codegen;
pub mod context_proc;
mod define;
pub mod eca_parser;
pub mod error;
pub mod filter;
pub mod gateway;
pub mod ged;
pub mod naming;
pub mod notifier;
pub mod persist;
pub mod registry;
pub mod reliability;
pub mod saga;
pub mod service;

pub use action::{
    ActionHandler, ActionOutcome, ActionRequest, DeadLetter, FaultInjector, RetryPolicy,
};
pub use agent::{
    AgentConfig, AgentConfigBuilder, AgentResponse, AgentStats, EcaAgent, EcaClient, ExecOutcome,
};
pub use baseline::{EmbeddedCheckClient, PollingMonitor, Situation};
pub use eca_parser::{parse_eca, EcaCommand, TriggerClauses};
pub use error::{AgentError, EcaError, EcaErrorKind, Result};
pub use filter::{classify, Classification, EcaKind};
pub use ged::{GlobalEventDetector, GlobalOutcome};
pub use persist::PersistentManager;
pub use registry::{Registry, TriggerKind};
pub use reliability::{Admission, ReliabilityTracker};
pub use relsql::notify::FaultPlan;
pub use saga::{
    plan_from_journal, saga_key, SagaBoundary, SagaCrashHook, SagaDisposition, SagaJournalRow,
    SagaPlan, SagaSpec, SagaStep,
};
pub use service::{ActiveService, DrainReport};
