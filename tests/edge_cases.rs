//! Cross-feature interaction edge cases: drops with pending work, recovery
//! after drops, update events feeding composites, temporal rules with
//! non-immediate couplings.

use std::sync::Arc;

use eca_core::{AgentConfig, EcaAgent, EcaClient, FaultPlan, PersistentManager};
use relsql::{SqlServer, Value};

fn setup() -> (EcaAgent, eca_core::EcaClient) {
    let server = SqlServer::new();
    let agent = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
    let client = agent.client("db", "u");
    client.execute("create table t (a int)").unwrap();
    client.execute("create table audit (n int)").unwrap();
    (agent, client)
}

#[test]
fn dropping_trigger_discards_its_pending_deferred_actions() {
    let (agent, client) = setup();
    client
        .execute(
            "create trigger tr on t for insert event e DEFERRED \
             as insert audit values (1)",
        )
        .unwrap();
    client.execute("insert t values (1)").unwrap();
    // A deferred action is queued; dropping the trigger must purge it.
    client.execute("drop trigger tr").unwrap();
    let resp = agent.flush_deferred().unwrap();
    assert!(
        resp.actions.is_empty(),
        "dropped rule's deferred action purged"
    );
    let r = client.execute("select count(*) from audit").unwrap();
    assert_eq!(r.server.scalar(), Some(&Value::Int(0)));
}

#[test]
fn recovery_after_drop_leaves_no_ghosts() {
    let server = SqlServer::new();
    {
        let agent = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
        let client = agent.client("db", "u");
        client.execute("create table t (a int)").unwrap();
        client
            .execute("create trigger tr on t for insert event e as print 'x'")
            .unwrap();
        client
            .execute("create trigger tc event c = e ; e as print 'c'")
            .unwrap();
        client.execute("drop trigger tc").unwrap();
        client.execute("drop event c").unwrap();
        client.execute("drop trigger tr").unwrap();
        client.execute("drop event e").unwrap();
    }
    let agent = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
    assert!(agent.event_names().is_empty(), "{:?}", agent.event_names());
    assert!(agent.trigger_names().is_empty());
    let pm = PersistentManager::new(&server);
    assert!(pm.load_primitives().unwrap().is_empty());
    assert!(pm.load_composites().unwrap().is_empty());
    assert!(pm.load_triggers().unwrap().is_empty());
}

#[test]
fn update_event_feeds_composite_with_both_shadows() {
    let (_agent, client) = setup();
    client.execute("create table confirms (c int)").unwrap();
    client.execute("create table seen_old (a int)").unwrap();
    client.execute("create table seen_new (a int)").unwrap();
    client
        .execute("create trigger t1 on t for update event changed as print 'u'")
        .unwrap();
    client
        .execute("create trigger t2 on confirms for insert event confirmed as print 'c'")
        .unwrap();
    client
        .execute(
            "create trigger tc event audited = changed ; confirmed \
             as insert seen_old select a from t.deleted \
                insert seen_new select a from t.inserted",
        )
        .unwrap();
    client.execute("insert t values (1)").unwrap();
    client.execute("update t set a = 2").unwrap();
    let resp = client.execute("insert confirms values (1)").unwrap();
    assert_eq!(resp.actions.len(), 1);
    let r = client.execute("select a from seen_old").unwrap();
    assert_eq!(
        r.server.scalar(),
        Some(&Value::Int(1)),
        "old row via deleted shadow"
    );
    let r = client.execute("select a from seen_new").unwrap();
    assert_eq!(
        r.server.scalar(),
        Some(&Value::Int(2)),
        "new row via inserted shadow"
    );
}

#[test]
fn temporal_rule_with_deferred_coupling() {
    let (agent, client) = setup();
    client
        .execute("create trigger t1 on t for insert event e as print 'x'")
        .unwrap();
    client
        .execute(
            "create trigger tl event late = e PLUS [5 sec] DEFERRED \
             as insert audit values (1)",
        )
        .unwrap();
    client.execute("insert t values (1)").unwrap();
    // Timer fires on advance, but the action defers until flush.
    let resp = agent.advance_time(6_000_000).unwrap();
    assert!(resp.actions.is_empty());
    let resp = agent.flush_deferred().unwrap();
    assert_eq!(resp.actions.len(), 1);
    let r = client.execute("select count(*) from audit").unwrap();
    assert_eq!(r.server.scalar(), Some(&Value::Int(1)));
}

#[test]
fn temporal_rule_with_detached_coupling() {
    let (agent, client) = setup();
    client
        .execute("create trigger t1 on t for insert event e as print 'x'")
        .unwrap();
    client
        .execute(
            "create trigger tl event late = e PLUS [5 sec] DETACHED \
             as insert audit values (1)",
        )
        .unwrap();
    client.execute("insert t values (1)").unwrap();
    let resp = agent.advance_time(6_000_000).unwrap();
    assert!(resp.actions.is_empty());
    let outcomes = agent.wait_detached();
    assert_eq!(outcomes.len(), 1);
    assert!(outcomes[0].result.is_ok());
}

#[test]
fn event_recreated_after_drop_starts_fresh_vno() {
    let (agent, client) = setup();
    client
        .execute("create trigger tr on t for insert event e as print 'x'")
        .unwrap();
    for i in 0..3 {
        client.execute(&format!("insert t values ({i})")).unwrap();
    }
    client.execute("drop trigger tr").unwrap();
    client.execute("drop event e").unwrap();
    // Recreate the same event name on the same slot.
    client
        .execute("create trigger tr on t for insert event e as print 'x'")
        .unwrap();
    client.execute("insert t values (9)").unwrap();
    let pm = PersistentManager::new(agent.server());
    let prims = pm.load_primitives().unwrap();
    assert_eq!(prims.len(), 1);
    assert_eq!(prims[0].vno, 1, "fresh occurrence numbering");
}

#[test]
fn composite_on_mixed_native_and_led_primitive_rules() {
    // A primitive event with one IMMEDIATE (native-embedded) and one
    // DETACHED (LED) trigger, plus a composite over the same event: all
    // three dispatch paths coexist per occurrence.
    let (agent, client) = setup();
    client.execute("create table log_n (n int)").unwrap();
    client.execute("create table log_d (n int)").unwrap();
    client.execute("create table log_c (n int)").unwrap();
    client
        .execute("create trigger tn on t for insert event e as insert log_n values (1)")
        .unwrap();
    client
        .execute("create trigger td event e DETACHED as insert log_d values (1)")
        .unwrap();
    client
        .execute("create trigger tc event c = e as insert log_c values (1)")
        .unwrap();
    client.execute("insert t values (1)").unwrap();
    agent.wait_detached();
    for (table, label) in [
        ("log_n", "native"),
        ("log_d", "detached"),
        ("log_c", "composite"),
    ] {
        let r = client
            .execute(&format!("select count(*) from {table}"))
            .unwrap();
        assert_eq!(r.server.scalar(), Some(&Value::Int(1)), "{label} path ran");
    }
}

#[test]
fn same_action_table_from_multiple_rules_is_consistent() {
    let (_agent, client) = setup();
    // Ten rules all appending to the same audit table from one event.
    client
        .execute("create trigger t0 on t for insert event e as print 'x'")
        .unwrap();
    for i in 0..10 {
        client
            .execute(&format!(
                "create trigger tr{i} event c{i} = e as insert audit values ({i})"
            ))
            .unwrap();
    }
    client.execute("insert t values (1)").unwrap();
    let r = client.execute("select count(*) from audit").unwrap();
    assert_eq!(r.server.scalar(), Some(&Value::Int(10)));
}

/// Primitives `eq` on `q` and `et` on `t`, and the composite
/// `s = eq ; et RECENT`, whose action copies the `q` row it paired.
fn sequence_rules(config: AgentConfig) -> (EcaAgent, EcaClient) {
    let agent = EcaAgent::new(SqlServer::new(), config).unwrap();
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
    (agent, client)
}

fn lossless_and_lossy() -> [AgentConfig; 2] {
    [
        AgentConfig::builder().build(),
        AgentConfig::builder()
            .fault_plan(FaultPlan::lossy(1.0, 7))
            .build(),
    ]
}

fn audit_rows(client: &EcaClient) -> Vec<Value> {
    let r = client.execute("select x from audit order by x").unwrap();
    let rows = &r.server.last_select().unwrap().rows;
    rows.iter().map(|row| row[0].clone()).collect()
}

#[test]
fn rolled_back_occurrence_never_fires() {
    for config in lossless_and_lossy() {
        let (_agent, client) = sequence_rules(config);
        let resp = client
            .execute("begin tran insert q values (1) rollback")
            .unwrap();
        assert!(resp.actions.is_empty());
        let resp = client.execute("insert t values (1)").unwrap();
        assert!(resp.actions.is_empty(), "{:?}", resp.actions);
        assert!(audit_rows(&client).is_empty());
    }
}

#[test]
fn composite_in_a_split_transaction_fires_at_commit() {
    for config in lossless_and_lossy() {
        let (_agent, client) = sequence_rules(config);
        for sql in ["begin tran insert q values (1)", "insert t values (1)"] {
            let resp = client.execute(sql).unwrap();
            assert!(resp.actions.is_empty(), "{sql}: {:?}", resp.actions);
        }
        let resp = client.execute("commit").unwrap();
        assert_eq!(resp.actions.len(), 1, "{:?}", resp.actions);
        assert!(resp.actions[0].rule.ends_with("ts"));
        assert_eq!(audit_rows(&client), [Value::Int(1)]);
    }
}

#[test]
fn rolled_back_deferred_occurrence_leaves_nothing_queued() {
    let (agent, client) = setup();
    client.execute("create table d (a int)").unwrap();
    client
        .execute(
            "create trigger td on d for insert event ed DEFERRED \
             as insert audit values (1)",
        )
        .unwrap();
    client
        .execute("begin tran insert d values (2) rollback")
        .unwrap();
    let resp = agent.flush_deferred().unwrap();
    assert!(resp.actions.is_empty(), "{:?}", resp.actions);
}

#[test]
fn vno_reused_after_rollback_fires_once_for_the_committed_row() {
    for config in lossless_and_lossy() {
        let (_agent, client) = sequence_rules(config);
        // Under total loss the autocommit `insert t` drops its datagram,
        // so the batch's pump sweeps while the transaction is open.
        for sql in [
            "insert t values (0) begin tran insert q values (1)",
            "rollback",
            "insert q values (2)",
            "insert t values (3)",
        ] {
            client.execute(sql).unwrap();
        }
        assert_eq!(audit_rows(&client), [Value::Int(2)]);
    }
}

#[test]
fn sweep_inside_an_open_transaction_reads_committed_counters() {
    let config = AgentConfig::builder()
        .fault_plan(FaultPlan::lossy(1.0, 7))
        .build();
    let (agent, client) = sequence_rules(config);
    client
        .execute("insert t values (0) begin tran insert q values (1)")
        .unwrap();
    // The dropped `et` datagram moved the loss signal; the sweep repaired
    // `et` and left the uncommitted `eq` alone.
    assert_eq!(agent.stats()["gaps_repaired"], 1);
    client.execute("rollback").unwrap();
    let resp = client.execute("insert t values (1)").unwrap();
    assert!(resp.actions.is_empty(), "{:?}", resp.actions);
    assert!(audit_rows(&client).is_empty());
}
