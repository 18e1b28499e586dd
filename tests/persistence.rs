//! Persistence and recovery (Figures 5–8): events and rules survive an
//! agent restart because they live in the server's native tables; a fresh
//! agent over the same server restores everything and keeps detecting.

use std::sync::Arc;

use eca_core::{AgentConfig, EcaAgent, PersistentManager};
use relsql::{SqlServer, Value};

fn build_rules(server: &Arc<SqlServer>) -> EcaAgent {
    let agent = EcaAgent::with_defaults(Arc::clone(server)).unwrap();
    let client = agent.client("sentineldb", "sharma");
    client
        .execute("create table stock (symbol varchar(10), price float)")
        .unwrap();
    client
        .execute("create table audit (note varchar(60))")
        .unwrap();
    client
        .execute("create trigger t_add on stock for insert event addStk as print 'add'")
        .unwrap();
    client
        .execute("create trigger t_del on stock for delete event delStk as print 'del'")
        .unwrap();
    client
        .execute(
            "create trigger t_and event addDel = delStk ^ addStk CHRONICLE \
             as insert audit values ('pair seen')",
        )
        .unwrap();
    agent
}

#[test]
fn fresh_agent_restores_events_rules_and_keeps_detecting() {
    let server = SqlServer::new();
    let agent1 = build_rules(&server);
    // Produce one occurrence pre-restart so vNo > 0.
    agent1
        .client("sentineldb", "sharma")
        .execute("insert stock values ('A', 1.0)")
        .unwrap();
    let events_before = agent1.event_names();
    let triggers_before = agent1.trigger_names();
    drop(agent1);

    // "Restart": a brand-new agent over the same server.
    let agent2 = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
    assert_eq!(agent2.event_names(), events_before);
    assert_eq!(agent2.trigger_names(), triggers_before);

    // Detection still works end to end after recovery.
    let client = agent2.client("sentineldb", "sharma");
    client.execute("delete stock").unwrap(); // delStk
    let resp = client.execute("insert stock values ('B', 2.0)").unwrap(); // addStk
    assert!(
        resp.actions.iter().any(|a| a.rule.ends_with("t_and")),
        "composite rule fires after recovery"
    );
    let r = client.execute("select count(*) from audit").unwrap();
    assert_eq!(r.server.scalar(), Some(&Value::Int(1)));
}

#[test]
fn vno_counters_continue_across_restart() {
    let server = SqlServer::new();
    let agent1 = build_rules(&server);
    let client = agent1.client("sentineldb", "sharma");
    for i in 0..3 {
        client
            .execute(&format!("insert stock values ('S{i}', 1.0)"))
            .unwrap();
    }
    drop(client);
    drop(agent1);
    let agent2 = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
    agent2
        .client("sentineldb", "sharma")
        .execute("insert stock values ('S3', 1.0)")
        .unwrap();
    let pm = PersistentManager::new(&server);
    let prims = pm.load_primitives().unwrap();
    let add = prims.iter().find(|p| p.event.ends_with("addStk")).unwrap();
    assert_eq!(add.vno, 4, "occurrence numbering is continuous");
}

#[test]
fn deferred_rules_recover_with_their_coupling() {
    let server = SqlServer::new();
    {
        let agent = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
        let client = agent.client("db", "u");
        client.execute("create table t (a int)").unwrap();
        client.execute("create table audit (n int)").unwrap();
        client
            .execute(
                "create trigger tr on t for insert event e1 DEFERRED \
                 as insert audit values (1)",
            )
            .unwrap();
    }
    let agent = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
    let client = agent.client("db", "u");
    let resp = client.execute("insert t values (1)").unwrap();
    assert!(resp.actions.is_empty(), "still deferred after recovery");
    let resp = client.execute("begin tran commit").unwrap();
    assert_eq!(resp.actions.len(), 1);
}

#[test]
fn recovery_is_idempotent_across_many_restarts() {
    let server = SqlServer::new();
    build_rules(&server);
    for _ in 0..3 {
        let agent = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
        assert_eq!(agent.event_names().len(), 3);
        assert_eq!(agent.trigger_names().len(), 3);
    }
    // No duplicate persistence rows accumulated.
    let pm = PersistentManager::new(&server);
    assert_eq!(pm.load_primitives().unwrap().len(), 2);
    assert_eq!(pm.load_composites().unwrap().len(), 1);
    assert_eq!(pm.load_triggers().unwrap().len(), 3);
}

#[test]
fn composite_of_composite_recovers_in_dependency_order() {
    let server = SqlServer::new();
    {
        let agent = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
        let client = agent.client("db", "u");
        client.execute("create table t (a int)").unwrap();
        client
            .execute("create trigger t1 on t for insert event base as print 'b'")
            .unwrap();
        client
            .execute("create trigger t2 event mid = base ; base as print 'm'")
            .unwrap();
        client
            .execute("create trigger t3 event top = mid ; base as print 't'")
            .unwrap();
    }
    // `top` depends on `mid` which depends on `base`; SysCompositeEvent
    // ordering is by timestamp, but recovery must tolerate any order.
    let agent = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
    assert_eq!(agent.event_names().len(), 3);
    let client = agent.client("db", "u");
    // base, base → mid; then base → top.
    client.execute("insert t values (1)").unwrap();
    client.execute("insert t values (2)").unwrap();
    let resp = client.execute("insert t values (3)").unwrap();
    assert!(
        resp.actions.iter().any(|a| a.rule.ends_with("t3")),
        "nested composite fires after recovery: {:?}",
        resp.actions.iter().map(|a| &a.rule).collect::<Vec<_>>()
    );
}

#[test]
fn system_tables_schema_matches_paper_figures() {
    // Figures 5, 6, 7, 17 — column names and order (types are widened per
    // DESIGN.md but the shape is the paper's).
    let server = SqlServer::new();
    let _agent = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
    let names = |t: &str| {
        server
            .snapshot()
            .database()
            .table(&t.to_ascii_lowercase())
            .unwrap()
            .schema
            .names()
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        names("SysPrimitiveEvent"),
        vec![
            "dbName",
            "userName",
            "eventName",
            "tableName",
            "operation",
            "timeStamp",
            "vNo"
        ]
    );
    assert_eq!(
        names("SysCompositeEvent"),
        vec![
            "dbName",
            "userName",
            "eventName",
            "eventDescribe",
            "timeStamp",
            "coupling",
            "context",
            "priority"
        ]
    );
    // SysEcaTrigger: the paper's six columns plus the four recovery
    // extensions documented in DESIGN.md.
    assert_eq!(
        names("SysEcaTrigger")[..6],
        [
            "dbName",
            "userName",
            "triggerName",
            "triggerProc",
            "timeStamp",
            "eventName"
        ]
    );
    assert_eq!(names("sysContext"), vec!["tableName", "context", "vNo"]);
    // Agent extension (not in the paper): per-event delivery high-water
    // marks backing the exactly-once pump.
    assert_eq!(names("SysAgentWatermark"), vec!["eventName", "hwm"]);
}

#[test]
fn system_tables_are_queryable_by_clients() {
    // The rules ARE data: clients can introspect the agent's state with
    // ordinary SQL through the very same connection — the payoff of
    // persisting rules "using the native database functionality".
    let server = SqlServer::new();
    let agent = build_rules(&server);
    let client = agent.client("sentineldb", "sharma");
    let r = client
        .execute(
            "select triggerName from SysEcaTrigger \
             where eventName = 'sentineldb.sharma.addDel'",
        )
        .unwrap();
    assert_eq!(
        r.server.scalar(),
        Some(&Value::Str("sentineldb.sharma.t_and".into()))
    );
    let r = client
        .execute("select count(*) from SysPrimitiveEvent where operation = 'insert'")
        .unwrap();
    assert_eq!(r.server.scalar(), Some(&Value::Int(1)));
    let r = client
        .execute("select eventDescribe from SysCompositeEvent")
        .unwrap();
    match r.server.scalar() {
        Some(Value::Str(expr)) => assert!(expr.contains('^'), "{expr}"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn corrupted_trigger_row_fails_recovery_loudly() {
    // Recovery must not silently default a mangled coupling or context to
    // IMMEDIATE/RECENT — a trigger firing with the wrong semantics is far
    // worse than an agent that refuses to start.
    let server = SqlServer::new();
    build_rules(&server);
    {
        // Vandalise the persisted coupling through the front door: the
        // system tables are ordinary tables, so ordinary SQL can break them.
        let agent = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
        agent
            .client("sentineldb", "sharma")
            .execute("update SysEcaTrigger set coupling = 'BOGUS' where triggerName = 'sentineldb.sharma.t_add'")
            .unwrap();
    }
    let msg = match EcaAgent::with_defaults(Arc::clone(&server)) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("recovery should refuse the corrupted row"),
    };
    assert!(msg.contains("corrupted"), "{msg}");
    assert!(msg.contains("t_add"), "names the bad trigger: {msg}");
}

#[test]
fn corrupted_composite_context_fails_recovery_loudly() {
    let server = SqlServer::new();
    build_rules(&server);
    {
        let agent = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
        agent
            .client("sentineldb", "sharma")
            .execute("update SysCompositeEvent set context = 'garbage'")
            .unwrap();
    }
    let msg = match EcaAgent::with_defaults(Arc::clone(&server)) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("recovery should refuse the corrupted row"),
    };
    assert!(msg.contains("corrupted"), "{msg}");
    assert!(msg.contains("SysCompositeEvent"), "{msg}");
}

#[test]
fn occurrences_missed_during_downtime_replay_on_restart() {
    // Simulate "the agent was down while the server kept committing": run
    // the first agent fire-and-forget over a total-loss channel so the
    // durable vNo counters advance without the agent ever hearing about it,
    // then restart with the default exactly-once config.
    let server = SqlServer::new();
    {
        let agent = EcaAgent::new(
            Arc::clone(&server),
            AgentConfig::builder()
                .drop_probability(1.0, 1)
                .exactly_once(false)
                .build(),
        )
        .unwrap();
        let client = agent.client("db", "u");
        client.execute("create table t (a int)").unwrap();
        client.execute("create table audit (n int)").unwrap();
        // DETACHED so the action goes through the agent's notification
        // path (a single IMMEDIATE trigger would run natively inside the
        // server and mask the loss).
        client
            .execute(
                "create trigger tr on t for insert event e DETACHED \
                 as insert audit values (1)",
            )
            .unwrap();
        for i in 0..3 {
            client.execute(&format!("insert t values ({i})")).unwrap();
        }
        agent.wait_detached();
        let r = client.execute("select count(*) from audit").unwrap();
        assert_eq!(
            r.server.scalar(),
            Some(&Value::Int(0)),
            "nothing detected yet"
        );
    }
    let agent2 = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
    agent2.wait_detached();
    let client = agent2.client("db", "u");
    let r = client.execute("select count(*) from audit").unwrap();
    assert_eq!(
        r.server.scalar(),
        Some(&Value::Int(3)),
        "anti-entropy replay fired the three missed occurrences"
    );
    let stats = agent2.stats();
    assert_eq!(stats["gaps_repaired"], 3);
    assert_eq!(stats["drops_detected"], 3);
}

#[test]
fn agent_with_config_recovers_too() {
    let server = SqlServer::new();
    build_rules(&server);
    let agent = EcaAgent::new(
        Arc::clone(&server),
        AgentConfig::builder().notify_port(20000).build(),
    )
    .unwrap();
    assert_eq!(agent.trigger_names().len(), 3);
}

fn durable_server(storage: &Arc<relsql::FaultyStorage>) -> Arc<SqlServer> {
    let storage: Arc<dyn relsql::Storage> = storage.clone();
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

#[test]
fn hard_crash_recovers_rules_and_fires_exactly_once() {
    // A real crash, not a polite restart: the whole server process dies
    // (no drain, no shutdown hook), the machine keeps only what was
    // fsynced, and a cold start must rebuild everything from the data dir.
    let storage = relsql::FaultyStorage::new();

    // Life 1: a healthy agent defines the rules and processes two
    // occurrences — the durable watermark advances past them.
    {
        let server = durable_server(&storage);
        let agent = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
        let client = agent.client("db", "u");
        client.execute("create table t (a int)").unwrap();
        client.execute("create table audit (n int)").unwrap();
        // DETACHED so the action rides the agent's notification path (an
        // IMMEDIATE trigger would run natively and mask the crash).
        client
            .execute(
                "create trigger tr on t for insert event e DETACHED \
                 as insert audit values (1)",
            )
            .unwrap();
        client.execute("insert t values (0)").unwrap();
        client.execute("insert t values (1)").unwrap();
        agent.wait_detached();
        let r = client.execute("select count(*) from audit").unwrap();
        assert_eq!(r.server.scalar(), Some(&Value::Int(2)));
    }

    // Life 2: the notification channel goes total-loss, so three more
    // committed occurrences never reach the agent — then the process dies
    // hard mid-flight.
    {
        let server = durable_server(&storage);
        assert!(server.metrics()["wal_records_replayed"] > 0);
        let agent = EcaAgent::new(
            Arc::clone(&server),
            AgentConfig::builder()
                .drop_probability(1.0, 1)
                .exactly_once(false)
                .build(),
        )
        .unwrap();
        let client = agent.client("db", "u");
        for i in 2..5 {
            client.execute(&format!("insert t values ({i})")).unwrap();
        }
        agent.wait_detached();
        let r = client.execute("select count(*) from audit").unwrap();
        assert_eq!(
            r.server.scalar(),
            Some(&Value::Int(2)),
            "the losses are silent before the crash"
        );
    }
    storage.crash_to_durable();

    // Life 3: cold start. WAL replay restores the tables, the Sys* rows
    // and the watermark; the anti-entropy sweep then fires the three
    // missed occurrences — and only those.
    {
        let server = durable_server(&storage);
        let agent = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
        agent.wait_detached();
        let client = agent.client("db", "u");
        let r = client.execute("select count(*) from audit").unwrap();
        assert_eq!(
            r.server.scalar(),
            Some(&Value::Int(5)),
            "2 already-watermarked firings not repeated, 3 missed ones repaired"
        );
        assert_eq!(agent.stats()["gaps_repaired"], 3);

        // Detection still works end to end after the crash.
        client.execute("insert t values (5)").unwrap();
        agent.wait_detached();
        let r = client.execute("select count(*) from audit").unwrap();
        assert_eq!(r.server.scalar(), Some(&Value::Int(6)));
    }
    storage.crash_to_durable();

    // Life 4: a second cold start re-fires nothing.
    let server = durable_server(&storage);
    let agent = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
    agent.wait_detached();
    let client = agent.client("db", "u");
    let r = client.execute("select count(*) from audit").unwrap();
    assert_eq!(
        r.server.scalar(),
        Some(&Value::Int(6)),
        "no double-fire across repeated cold restarts"
    );
    assert_eq!(agent.stats()["gaps_repaired"], 0);
}

#[test]
fn eca_agent_open_recovers_from_a_real_data_dir() {
    let dir = std::env::temp_dir().join(format!("eca_persist_open_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let agent = EcaAgent::open(
            &dir,
            relsql::DurabilityConfig::default(),
            AgentConfig::default(),
        )
        .unwrap();
        let client = agent.client("db", "u");
        client.execute("create table t (a int)").unwrap();
        client
            .execute("create trigger tr on t for insert event e as print 'x'")
            .unwrap();
        client.execute("insert t values (1)").unwrap();
    }
    let agent = EcaAgent::open(
        &dir,
        relsql::DurabilityConfig::default(),
        AgentConfig::default(),
    )
    .unwrap();
    assert!(
        agent.trigger_names().iter().any(|t| t.ends_with("tr")),
        "rules recover from disk"
    );
    let client = agent.client("db", "u");
    let r = client.execute("select count(*) from t").unwrap();
    assert_eq!(r.server.scalar(), Some(&Value::Int(1)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clean_restart_issues_no_ddl() {
    // Recovery regenerates a native trigger only where the catalog's text
    // differs from the persisted rule set; on a consistent catalog a
    // restart sends nothing at all.
    let storage = relsql::FaultyStorage::new();
    let triggers = |server: &Arc<SqlServer>| {
        let snap = server.snapshot();
        let defs: Vec<String> = snap
            .database()
            .trigger_defs()
            .iter()
            .map(|t| format!("{} {}", t.name, t.body_src))
            .collect();
        defs
    };
    let before = {
        let server = durable_server(&storage);
        build_rules(&server);
        triggers(&server)
    };
    let server = durable_server(&storage);
    let agent = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
    assert_eq!(agent.trigger_names().len(), 3);
    let stats = agent.stats();
    assert_eq!(stats["gateway_internal"], 0, "no batch sent on restart");
    assert_eq!(stats["wal_records"], 0, "nothing logged on restart");
    assert_eq!(triggers(&server), before);
}

/// `sysContext` rows, sorted.
fn sys_context_rows(server: &Arc<SqlServer>) -> Vec<Vec<Value>> {
    let mut rows = server
        .snapshot()
        .database()
        .table("syscontext")
        .unwrap()
        .rows()
        .to_vec();
    rows.sort_by_key(|r| format!("{r:?}"));
    rows
}

/// One round of firings on the rules of `one_batch_per_firing_*`: every
/// firing adds exactly one agent batch and one WAL record to what its
/// statement costs without one (the statement's own record plus its
/// event's watermark), and each firing's refresh replaces the `sysContext`
/// rows of its own shadow tables only.
fn assert_one_batch_per_firing(agent: &EcaAgent, server: &Arc<SqlServer>, round: i64) {
    let client = agent.client("db", "u");
    let counts = || {
        let s = agent.stats();
        (
            s["gateway_internal"],
            s["wal_records"],
            s["actions_executed"],
        )
    };
    let run = |sql: String| {
        let before = counts();
        client.execute(&sql).unwrap();
        let after = counts();
        let (internal, wal, fired) = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
        assert_eq!(internal, fired, "{sql}: one agent batch per firing");
        assert_eq!(wal, 2 + fired, "{sql}: one WAL record per firing");
        fired
    };
    assert_eq!(run(format!("insert a values ({round})")), 0);
    assert_eq!(run(format!("insert b values ({round})")), 1);
    let seq_rows = sys_context_rows(server)
        .into_iter()
        .filter(|r| matches!(&r[0], Value::Str(t) if t.starts_with("db.u.ea_") || t.starts_with("db.u.eb_")))
        .collect::<Vec<_>>();
    assert_eq!(seq_rows.len(), 2, "the SEQ firing refreshed both shadows");
    run(format!("insert c values ({round})"));
    assert!(run(format!("insert d values ({round})")) >= 1);
    let rows = sys_context_rows(server);
    assert_eq!(rows.len(), 4, "the AND firing added its own two shadows");
    assert!(
        seq_rows.iter().all(|r| rows.contains(r)),
        "the AND firing left the SEQ firing's rows alone"
    );
    let r = client.execute("select x from seen order by x").unwrap();
    let seen: Vec<Value> = r.server.last_select().unwrap().rows.concat();
    assert_eq!(seen, (1..=round).map(Value::Int).collect::<Vec<_>>());
}

#[test]
fn one_batch_per_firing_before_and_after_reopen() {
    let storage = relsql::FaultyStorage::new();
    {
        let server = durable_server(&storage);
        let agent = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
        let client = agent.client("db", "u");
        for t in ["a", "b", "c", "d"] {
            client
                .execute(&format!("create table {t} (x int)"))
                .unwrap();
            client
                .execute(&format!(
                    "create trigger t{t} on {t} for insert event e{t} as print '{t}'"
                ))
                .unwrap();
        }
        client.execute("create table seen (x int)").unwrap();
        client.execute("create table audit (n int)").unwrap();
        client
            .execute(
                "create trigger t_seq event pair = ea ; eb CHRONICLE \
                 as insert seen select x from a.inserted",
            )
            .unwrap();
        client
            .execute(
                "create trigger t_and event both = ec ^ ed RECENT \
                 as insert audit values (1)",
            )
            .unwrap();
        assert_one_batch_per_firing(&agent, &server, 1);
    }
    // Reopen: the recovered rules take the same one-batch path.
    let server = durable_server(&storage);
    let agent = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
    assert_one_batch_per_firing(&agent, &server, 2);
}

#[test]
fn crash_inside_an_open_transaction_raises_nothing() {
    let storage = relsql::FaultyStorage::new();
    {
        let server = durable_server(&storage);
        let agent = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
        let client = agent.client("db", "u");
        for sql in [
            "create table q (x int)",
            "create table t (x int)",
            "create table audit (x int)",
            "create trigger tq on q for insert event eq as print 'q'",
            "create trigger tt on t for insert event et as print 't'",
            "create trigger ts event s = eq ; et RECENT \
             as insert audit select x from q.inserted",
        ] {
            client.execute(sql).unwrap();
        }
        let resp = client.execute("begin tran insert q values (1)").unwrap();
        assert!(resp.actions.is_empty());
    }
    storage.crash_to_durable();

    // Recovery replays the open transaction, then rolls it back: the
    // occurrence never happened.
    let server = durable_server(&storage);
    let agent = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
    assert!(agent.take_async_outcomes().is_empty());
    assert_eq!(agent.stats()["gaps_repaired"], 0);
    let watermarks = PersistentManager::new(&server).load_watermarks().unwrap();
    assert_eq!(watermarks.get("db.u.eq"), Some(&0), "{watermarks:?}");

    let client = agent.client("db", "u");
    client.execute("insert q values (2)").unwrap();
    let resp = client.execute("insert t values (3)").unwrap();
    assert_eq!(resp.actions.len(), 1, "{:?}", resp.actions);
    let r = client.execute("select x from audit").unwrap();
    assert_eq!(r.server.last_select().unwrap().rows, [vec![Value::Int(2)]]);
}
