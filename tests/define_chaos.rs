//! Crash-point chaos for rule definitions: kill the process at every WAL
//! boundary an ECA command crosses and prove that, after recovery, the
//! rule is either fully present or fully absent — never half built.
//!
//! Harness shape, per command form:
//!   1. A fault-free reference run on a durable server executes the setup
//!      and the command, counting the command's WAL appends `n` and
//!      recording the footprint (catalog objects, system-table rows,
//!      registered events and rules) before and after it.
//!   2. For every boundary `k` in `0..=n`, a fresh `FaultyStorage` whose
//!      appends fail after `base + k` runs the same setup and command. The
//!      machine then keeps only its fsynced bytes and a cold-started agent
//!      (`EcaAgent::new`) recovers from them.
//!   3. The recovered footprint must equal the reference "before" or
//!      "after" footprint, and the rule must behave like it: the probe
//!      statements fire it exactly as often as in that state, and from the
//!      "before" state re-issuing the identical command succeeds and
//!      reaches "after".

use std::sync::Arc;

use eca_core::{AgentConfig, EcaAgent, PersistentManager};
use relsql::wal::{SNAPSHOT_FILE, WAL_FILE};
use relsql::{DiskFaultPlan, FaultyStorage, SqlServer, Storage, Value};

/// One ECA command under test.
struct Form {
    /// Statements run (fault-free) before the command.
    setup: &'static [&'static str],
    command: &'static str,
    /// WAL records the command commits.
    records: u64,
    /// Statements after which a present rule has fired once.
    probe: &'static [&'static str],
    /// `audit` rows one probe adds in the (before, after) state.
    fires: (i64, i64),
}

const SCHEMA: [&str; 5] = [
    "create table t (a int)",
    "create table u (a int)",
    "create table audit (n int)",
    "create table log (n int)",
    "create procedure db.u.p_audit as insert audit values (1)",
];

fn durable_server(storage: Arc<FaultyStorage>) -> Arc<SqlServer> {
    SqlServer::open_with_storage(
        storage,
        relsql::DurabilityConfig {
            fsync: relsql::FsyncPolicy::Always,
            checkpoint_bytes: 0,
        },
        relsql::EngineConfig::default(),
    )
    .expect("open durable server")
}

/// Everything a definition creates, in a comparable form. Watermark and
/// version values are left out: the probes move them.
fn footprint(agent: &EcaAgent) -> String {
    let snap = agent.server().snapshot();
    let db = snap.database();
    let mut out = format!("tables {:?}\n", db.table_names());
    for p in db.procedure_defs() {
        out.push_str(&format!("proc {}\n", p.name));
    }
    for t in db.trigger_defs() {
        out.push_str(&format!(
            "trigger {} on {}: {}\n",
            t.name, t.table_key, t.body_src
        ));
    }
    let pm = PersistentManager::new(agent.server());
    for p in pm.load_primitives().unwrap() {
        out.push_str(&format!(
            "primitive {} {} {}\n",
            p.event, p.table, p.operation
        ));
    }
    for c in pm.load_composites().unwrap() {
        out.push_str(&format!("composite {} {}\n", c.event, c.expr_src));
    }
    for t in pm.load_triggers().unwrap() {
        out.push_str(&format!(
            "rule {} {} {} {}\n",
            t.name, t.event, t.proc_name, t.kind
        ));
    }
    let mut steps: Vec<_> = pm.load_saga_steps().unwrap().into_iter().collect();
    steps.sort_by(|a, b| a.0.cmp(&b.0));
    out.push_str(&format!("saga steps {steps:?}\n"));
    let mut marks: Vec<String> = pm.load_watermarks().unwrap().into_keys().collect();
    marks.sort();
    out.push_str(&format!("watermarks {marks:?}\n"));
    out.push_str(&format!("events {:?}\n", agent.event_names()));
    out.push_str(&format!("rules {:?}\n", agent.trigger_names()));
    out
}

/// Run the probe statements; returns how many `audit` rows they added.
fn probe(agent: &EcaAgent, form: &Form) -> i64 {
    let client = agent.client("db", "u");
    let count = || match client
        .execute("select count(*) from audit")
        .unwrap()
        .server
        .scalar()
    {
        Some(Value::Int(n)) => *n,
        other => panic!("count: {other:?}"),
    };
    let before = count();
    for sql in form.probe {
        client.execute(sql).unwrap();
    }
    agent.wait_detached();
    count() - before
}

/// Life 1: setup then the command, on `storage`. Returns the agent (the
/// command's result is the caller's business).
fn life_one(storage: Arc<FaultyStorage>, form: &Form) -> (EcaAgent, eca_core::Result<()>) {
    let agent = EcaAgent::new(durable_server(storage), AgentConfig::default()).unwrap();
    let client = agent.client("db", "u");
    for sql in SCHEMA.iter().chain(form.setup) {
        client.execute(sql).unwrap();
    }
    let result = client.execute(form.command).map(|_| ());
    (agent, result)
}

/// What survives a hard crash: the fsynced bytes, on a fresh disk.
fn survivor(storage: &FaultyStorage) -> Arc<FaultyStorage> {
    storage.crash_to_durable();
    let fresh = FaultyStorage::new();
    for name in [WAL_FILE, SNAPSHOT_FILE] {
        if let Some(bytes) = storage.load(name).unwrap() {
            fresh.replace(name, &bytes).unwrap();
        }
    }
    fresh
}

fn check(form: Form) {
    // Reference run.
    let storage = FaultyStorage::new();
    let agent = EcaAgent::new(durable_server(storage), AgentConfig::default()).unwrap();
    let client = agent.client("db", "u");
    for sql in SCHEMA.iter().chain(form.setup) {
        client.execute(sql).unwrap();
    }
    let base = agent.stats()["wal_records"];
    let before = footprint(&agent);
    client.execute(form.command).unwrap();
    let after = footprint(&agent);
    let n = agent.stats()["wal_records"] - base;
    assert_eq!(n, form.records, "{}: WAL records per command", form.command);
    assert_ne!(
        before, after,
        "{}: the command changes something",
        form.command
    );
    drop((client, agent));

    for k in 0..=n {
        let faulty = FaultyStorage::with_plan(DiskFaultPlan {
            fail_appends_after: Some(base + k),
            ..DiskFaultPlan::default()
        });
        let (agent, result) = life_one(Arc::clone(&faulty), &form);
        assert_eq!(result.is_ok(), k == n, "{}: boundary {k}/{n}", form.command);
        // The process dies: no drain, no shutdown.
        drop(agent);

        let agent = EcaAgent::new(durable_server(survivor(&faulty)), AgentConfig::default())
            .unwrap_or_else(|e| panic!("{}: recovery at boundary {k}/{n}: {e}", form.command));
        let found = footprint(&agent);
        if found == after {
            assert_eq!(
                probe(&agent, &form),
                form.fires.1,
                "{}: {k}/{n}",
                form.command
            );
        } else if found == before {
            assert!(k < n, "{}: a committed command is lost", form.command);
            assert_eq!(
                probe(&agent, &form),
                form.fires.0,
                "{}: {k}/{n}",
                form.command
            );
            agent
                .client("db", "u")
                .execute(form.command)
                .unwrap_or_else(|e| panic!("{}: re-issue at {k}/{n}: {e}", form.command));
            assert_eq!(footprint(&agent), after, "{}: re-issued", form.command);
            assert_eq!(
                probe(&agent, &form),
                form.fires.1,
                "{}: {k}/{n}",
                form.command
            );
        } else {
            panic!(
                "{}: boundary {k}/{n} recovered a half-built rule\n\
                 --- before\n{before}--- after\n{after}--- recovered\n{found}",
                form.command
            );
        }
        if k == 0 {
            assert_eq!(found, before, "{}: nothing committed yet", form.command);
        }
    }
}

#[test]
fn primitive_native() {
    check(Form {
        setup: &[],
        command: "create trigger tr on t for insert event e as insert audit values (1)",
        records: 2,
        probe: &["insert t values (1)"],
        fires: (0, 1),
    });
}

#[test]
fn primitive_deferred() {
    check(Form {
        setup: &[],
        command: "create trigger tr on t for insert event e DEFERRED as insert audit values (1)",
        records: 2,
        probe: &["insert t values (1)", "begin tran commit"],
        fires: (0, 1),
    });
}

#[test]
fn composite_with_context_refs() {
    check(Form {
        setup: &[
            "create trigger t1 on t for insert event e1 as insert log values (1)",
            "create trigger t2 on u for insert event e2 as insert log values (2)",
        ],
        command: "create trigger tc event c = e1 ; e2 as insert audit select a from t.inserted",
        records: 1,
        probe: &["insert t values (1)", "insert u values (1)"],
        fires: (0, 1),
    });
}

#[test]
fn on_existing_native() {
    check(Form {
        setup: &["create trigger t1 on t for insert event e as insert log values (1)"],
        command: "create trigger t2 event e as insert audit values (1)",
        records: 2,
        probe: &["insert t values (1)"],
        fires: (0, 1),
    });
}

#[test]
fn on_existing_led() {
    check(Form {
        setup: &["create trigger t1 on t for insert event e as insert log values (1)"],
        command: "create trigger t2 event e DETACHED as insert audit values (1)",
        records: 1,
        probe: &["insert t values (1)"],
        fires: (0, 1),
    });
}

#[test]
fn saga() {
    check(Form {
        setup: &[],
        command: "create trigger ts on t for insert event e as saga step p_audit",
        records: 2,
        probe: &["insert t values (1)"],
        fires: (0, 1),
    });
}

#[test]
fn drop_trigger_native() {
    check(Form {
        setup: &[
            "create trigger t1 on t for insert event e as insert log values (1)",
            "create trigger t2 event e as insert audit values (1)",
        ],
        command: "drop trigger t2",
        records: 2,
        probe: &["insert t values (1)"],
        fires: (1, 0),
    });
}

#[test]
fn drop_trigger_led() {
    check(Form {
        setup: &["create trigger t1 on t for insert event e DEFERRED as insert audit values (1)"],
        command: "drop trigger t1",
        records: 1,
        probe: &["insert t values (1)", "begin tran commit"],
        fires: (1, 0),
    });
}

#[test]
fn drop_event_primitive() {
    check(Form {
        setup: &[
            "create trigger t1 on t for insert event e as insert audit values (1)",
            "drop trigger t1",
        ],
        command: "drop event e",
        records: 2,
        probe: &["insert t values (1)"],
        fires: (0, 0),
    });
}

#[test]
fn drop_event_composite() {
    check(Form {
        setup: &[
            "create trigger t1 on t for insert event e1 as insert log values (1)",
            "create trigger tc event c = e1 ; e1 as insert audit values (1)",
            "drop trigger tc",
        ],
        command: "drop event c",
        records: 1,
        probe: &["insert t values (1)", "insert t values (2)"],
        fires: (0, 0),
    });
}
