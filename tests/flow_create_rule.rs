//! Figure 3's "create ECA rules" control flow: filtering, parsing, name
//! checking, code generation, persistence — including the error paths the
//! figure routes back to the client.

use std::sync::Arc;

use eca_core::{AgentError, EcaAgent, PersistentManager};
use relsql::SqlServer;

fn setup() -> (EcaAgent, eca_core::EcaClient) {
    let server = SqlServer::new();
    let agent = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
    let client = agent.client("sentineldb", "sharma");
    client
        .execute("create table stock (symbol varchar(10), price float)")
        .unwrap();
    (agent, client)
}

#[test]
fn plain_sql_is_untouched_by_the_filter() {
    let (agent, client) = setup();
    // Step 3-4: non-ECA commands go straight through and come straight back.
    let resp = client
        .execute("insert stock values ('A', 1.0) select count(*) from stock")
        .unwrap();
    assert_eq!(resp.server.scalar(), Some(&relsql::Value::Int(1)));
    assert!(resp.messages.is_empty());
    assert_eq!(agent.stats()["eca_commands"], 0);
    assert_eq!(agent.stats()["gateway_forwarded"], 2); // create table + this
}

#[test]
fn native_trigger_syntax_still_reaches_the_server() {
    // Transparency: a native (non-EVENT) trigger definition is the server's
    // business, not the agent's.
    let (agent, client) = setup();
    client
        .execute("create trigger plain_tr on stock for insert as print 'native'")
        .unwrap();
    assert_eq!(agent.stats()["eca_commands"], 0);
    assert!(agent.trigger_names().is_empty());
    let resp = client.execute("insert stock values ('A', 1.0)").unwrap();
    assert_eq!(resp.server.messages, vec!["native"]);
}

#[test]
fn syntax_error_reported_without_side_effects() {
    let (agent, client) = setup();
    let err = client
        .execute("create trigger t event e = ^ bogus as print 'x'")
        .unwrap_err();
    assert!(matches!(
        err,
        AgentError::Snoop(_) | AgentError::EcaSyntax(_)
    ));
    assert!(agent.event_names().is_empty());
    assert!(agent.trigger_names().is_empty());
    let pm = PersistentManager::new(agent.server());
    assert!(pm.load_triggers().unwrap().is_empty());
}

#[test]
fn unknown_constituent_event_is_a_name_check_error() {
    let (agent, client) = setup();
    let err = client
        .execute("create trigger t event e = ghost ^ phantom as print 'x'")
        .unwrap_err();
    assert!(err.to_string().contains("not defined"), "{err}");
    // The failed definition left no half-built composite in the LED.
    assert!(agent.event_names().is_empty());
}

#[test]
fn missing_table_rejected() {
    let (_agent, client) = setup();
    let err = client
        .execute("create trigger t on nosuch for insert event e as print 'x'")
        .unwrap_err();
    assert!(err.to_string().contains("does not exist"), "{err}");
}

#[test]
fn duplicate_event_and_trigger_names_rejected() {
    let (_agent, client) = setup();
    client
        .execute("create trigger t1 on stock for insert event addStk as print 'x'")
        .unwrap();
    // Same event name again.
    let err = client
        .execute("create trigger t2 on stock for update event addStk as print 'x'")
        .unwrap_err();
    assert!(err.to_string().contains("already exists"), "{err}");
    // Same trigger name again (on the existing event).
    let err = client
        .execute("create trigger t1 event addStk as print 'x'")
        .unwrap_err();
    assert!(err.to_string().contains("already exists"), "{err}");
}

#[test]
fn one_event_per_table_operation_slot() {
    let (_agent, client) = setup();
    client
        .execute("create trigger t1 on stock for insert event e1 as print 'x'")
        .unwrap();
    let err = client
        .execute("create trigger t2 on stock for insert event e2 as print 'x'")
        .unwrap_err();
    assert!(err.to_string().contains("reuse"), "{err}");
}

#[test]
fn event_reuse_via_on_event_form() {
    // Contribution #2/#4: reuse a defined event; multiple triggers on it.
    let (agent, client) = setup();
    client
        .execute("create trigger t1 on stock for insert event addStk as print 'one'")
        .unwrap();
    client
        .execute("create trigger t2 event addStk as print 'two'")
        .unwrap();
    client
        .execute("create trigger t3 event addStk 5 as print 'three'")
        .unwrap();
    assert_eq!(agent.trigger_names().len(), 3);
    let resp = client.execute("insert stock values ('A', 1.0)").unwrap();
    // All three actions ran inside the server (IMMEDIATE native path).
    let msgs = &resp.server.messages;
    assert!(msgs.contains(&"one".to_string()), "{msgs:?}");
    assert!(msgs.contains(&"two".to_string()));
    assert!(msgs.contains(&"three".to_string()));
    // Priority 5 runs before the priority-0 ones.
    let pos3 = msgs.iter().position(|m| m == "three").unwrap();
    let pos1 = msgs.iter().position(|m| m == "one").unwrap();
    assert!(pos3 < pos1, "higher priority action first: {msgs:?}");
}

#[test]
fn composite_over_composite_event_reuse() {
    let (agent, client) = setup();
    client
        .execute("create trigger t1 on stock for insert event addStk as print 'a'")
        .unwrap();
    client
        .execute("create trigger t2 on stock for delete event delStk as print 'd'")
        .unwrap();
    client
        .execute("create trigger t3 event both = addStk ^ delStk as print 'both'")
        .unwrap();
    // A composite built from another composite.
    client
        .execute("create trigger t4 event seq2 = both ; addStk as print 'seq2'")
        .unwrap();
    assert!(agent
        .event_names()
        .contains(&"sentineldb.sharma.seq2".to_string()));
    client.execute("insert stock values ('A', 1.0)").unwrap();
    client.execute("delete stock").unwrap(); // `both` occurs here
    let resp = client.execute("insert stock values ('B', 2.0)").unwrap();
    assert!(
        resp.actions.iter().any(|a| a.rule.ends_with("t4")),
        "seq2 = both ; addStk should fire: {:?}",
        resp.actions.iter().map(|a| &a.rule).collect::<Vec<_>>()
    );
}

#[test]
fn persistence_rows_written_for_every_form() {
    let (agent, client) = setup();
    client
        .execute("create trigger t1 on stock for insert event addStk as print 'a'")
        .unwrap();
    client
        .execute("create trigger t2 event addStk DEFERRED as print 'b'")
        .unwrap();
    client
        .execute("create trigger t3 event dbl = addStk ; addStk as print 'c'")
        .unwrap();
    let pm = PersistentManager::new(agent.server());
    assert_eq!(pm.load_primitives().unwrap().len(), 1);
    assert_eq!(pm.load_composites().unwrap().len(), 1);
    let trigs = pm.load_triggers().unwrap();
    assert_eq!(trigs.len(), 3);
    let t1 = trigs.iter().find(|t| t.name.ends_with("t1")).unwrap();
    assert_eq!(t1.kind, "native");
    let t2 = trigs.iter().find(|t| t.name.ends_with("t2")).unwrap();
    assert_eq!(t2.kind, "led");
    assert_eq!(t2.coupling, "DEFERRED");
}

#[test]
fn drop_trigger_full_cycle() {
    let (agent, client) = setup();
    client
        .execute("create trigger t1 on stock for insert event addStk as print 'one'")
        .unwrap();
    client
        .execute("create trigger t2 event addStk as print 'two'")
        .unwrap();
    // Drop the second trigger; the first keeps firing.
    client.execute("drop trigger t2").unwrap();
    assert_eq!(agent.trigger_names().len(), 1);
    let resp = client.execute("insert stock values ('A', 1.0)").unwrap();
    assert!(resp.server.messages.contains(&"one".to_string()));
    assert!(!resp.server.messages.contains(&"two".to_string()));
    // Dropping the last trigger leaves the event defined and persistent.
    client
        .execute("drop trigger t_1_does_not_exist_so_forwarded_fails")
        .unwrap_err();
    client.execute("drop trigger t1").unwrap();
    assert!(agent.trigger_names().is_empty());
    assert!(agent
        .event_names()
        .contains(&"sentineldb.sharma.addStk".to_string()));
    // The event can be picked up again by a new trigger.
    client
        .execute("create trigger t3 event addStk as print 'three'")
        .unwrap();
    let resp = client.execute("insert stock values ('B', 1.0)").unwrap();
    assert!(resp.server.messages.contains(&"three".to_string()));
}

#[test]
fn drop_event_extension() {
    let (agent, client) = setup();
    client
        .execute("create trigger t1 on stock for insert event addStk as print 'a'")
        .unwrap();
    client
        .execute("create trigger tc event c = addStk ; addStk as print 'c'")
        .unwrap();
    // Guarded: triggers exist.
    assert!(client.execute("drop event addStk").is_err());
    client.execute("drop trigger t1").unwrap();
    // Guarded: composite c references addStk.
    let err = client.execute("drop event addStk").unwrap_err();
    assert!(err.to_string().contains("referenced"), "{err}");
    client.execute("drop trigger tc").unwrap();
    client.execute("drop event c").unwrap();
    client.execute("drop event addStk").unwrap();
    assert!(agent.event_names().is_empty());
    // Shadow tables are gone from the server.
    assert!(!agent
        .server()
        .snapshot()
        .database()
        .has_table("sentineldb.sharma.addStk_inserted"));
    // The slot is free: a new event on (stock, insert) works.
    client
        .execute("create trigger t9 on stock for insert event fresh as print 'f'")
        .unwrap();
}

#[test]
fn trigger_info_exposes_structured_metadata() {
    use eca_core::TriggerKind;
    use led::{CouplingMode, ParameterContext};
    let (agent, client) = setup();
    client
        .execute(
            "create trigger t1 on stock for insert event addStk DETACHED CHRONICLE 7 \
             as print 'x'",
        )
        .unwrap();
    let info = agent.trigger_info("sentineldb.sharma.t1").unwrap();
    assert_eq!(info.event, "sentineldb.sharma.addStk");
    assert_eq!(info.coupling, CouplingMode::Detached);
    assert_eq!(info.context, ParameterContext::Chronicle);
    assert_eq!(info.priority, 7);
    assert_eq!(
        info.kind,
        TriggerKind::Led,
        "non-immediate goes via the LED"
    );
    assert_eq!(info.proc_name, "sentineldb.sharma.t1__Proc");
    assert_eq!(agent.triggers().len(), 1);
    assert!(agent.trigger_info("ghost").is_none());
}

#[test]
fn describe_event_shows_operator_tree() {
    let (agent, client) = setup();
    client
        .execute("create trigger t1 on stock for insert event addStk as print 'a'")
        .unwrap();
    client
        .execute("create trigger t2 on stock for delete event delStk as print 'd'")
        .unwrap();
    client
        .execute("create trigger t3 event x = (addStk ^ delStk) ; addStk as print 'x'")
        .unwrap();
    // addStk appears twice in the expression but is one shared node in the
    // event graph, so it prints once — sharing, not a tree.
    assert_eq!(
        agent.describe_event("sentineldb.sharma.x").as_deref(),
        Some("SEQ AND PRIMITIVE PRIMITIVE")
    );
    assert_eq!(
        agent.describe_event("sentineldb.sharma.addStk").as_deref(),
        Some("PRIMITIVE")
    );
    assert!(agent.describe_event("nope").is_none());
}

#[test]
fn failed_primitive_creation_rolls_back_server_artifacts() {
    let (agent, client) = setup();
    // The action body fails to parse when the generated procedure is
    // installed, *after* the shadow tables were created.
    let err = client
        .execute("create trigger t1 on stock for insert event addStk as frobnicate nonsense")
        .unwrap_err();
    assert!(matches!(err, AgentError::Sql(_)), "{err}");
    // Nothing half-installed survives...
    assert!(agent.event_names().is_empty());
    assert!(!agent
        .server()
        .snapshot()
        .database()
        .has_table("sentineldb.sharma.addStk_inserted"));
    // ...so the same (corrected) command can be retried successfully.
    client
        .execute("create trigger t1 on stock for insert event addStk as print 'ok now'")
        .unwrap();
    let resp = client.execute("insert stock values ('A', 1.0)").unwrap();
    assert!(resp.server.messages.contains(&"ok now".to_string()));
}

#[test]
fn failed_composite_creation_rolls_back_led_registration() {
    let (agent, client) = setup();
    client
        .execute("create trigger t1 on stock for insert event addStk as print 'a'")
        .unwrap();
    let err = client
        .execute("create trigger tc event cc = addStk ; addStk as utter garbage here")
        .unwrap_err();
    assert!(matches!(err, AgentError::Sql(_)), "{err}");
    assert!(
        !agent
            .event_names()
            .contains(&"sentineldb.sharma.cc".to_string()),
        "half-defined composite must not linger in the LED"
    );
    // Retry with a valid action.
    client
        .execute("create trigger tc event cc = addStk ; addStk as print 'cc'")
        .unwrap();
    client.execute("insert stock values ('A', 1.0)").unwrap();
    let resp = client.execute("insert stock values ('B', 1.0)").unwrap();
    assert!(resp.actions.iter().any(|a| a.rule.ends_with("tc")));
}

#[test]
fn owner_qualified_names_expand_per_section_5_1() {
    let (agent, client) = setup();
    client
        .execute("create trigger bob.t1 on stock for insert event bob.addStk as print 'x'")
        .unwrap();
    assert!(agent
        .event_names()
        .contains(&"sentineldb.bob.addStk".to_string()));
    assert!(agent
        .trigger_names()
        .contains(&"sentineldb.bob.t1".to_string()));
}

/// Everything a rule definition can leave behind, rendered for equality
/// checks: catalog objects (tables, procedures, native triggers with their
/// text), the agent's system-table rows and its in-memory view.
fn footprint(agent: &EcaAgent) -> String {
    let snap = agent.server().snapshot();
    let db = snap.database();
    let pm = PersistentManager::new(agent.server());
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
    for sys in [
        "SysPrimitiveEvent",
        "SysCompositeEvent",
        "SysEcaTrigger",
        "SysSagaStep",
    ] {
        let rows = db.table(&sys.to_ascii_lowercase()).unwrap().rows().len();
        out.push_str(&format!("{sys} {rows}\n"));
    }
    out.push_str(&format!("watermarks {:?}\n", {
        let mut w: Vec<_> = pm.load_watermarks().unwrap().into_iter().collect();
        w.sort();
        w
    }));
    out.push_str(&format!("events {:?}\n", agent.event_names()));
    out.push_str(&format!("rules {:?}\n", agent.trigger_names()));
    out
}

#[test]
fn failed_creation_never_drops_preexisting_objects() {
    // The generated names are ordinary names: a user may already own an
    // object called that. The command must refuse, and leave it alone.
    let (agent, client) = setup();
    client
        .execute("create table sentineldb.sharma.addStk_inserted (note varchar(20))")
        .unwrap();
    client
        .execute("insert sentineldb.sharma.addStk_inserted values ('keep me')")
        .unwrap();
    let err = client
        .execute("create trigger t1 on stock for insert event addStk as print 'x'")
        .unwrap_err();
    assert!(matches!(err, AgentError::Naming(_)), "{err}");
    let r = client
        .execute("select count(*) from sentineldb.sharma.addStk_inserted")
        .unwrap();
    assert_eq!(
        r.server.scalar(),
        Some(&relsql::Value::Int(1)),
        "user table kept"
    );
    assert!(agent.event_names().is_empty());

    // Same for a procedure that happens to carry the action's name.
    client
        .execute("create procedure sentineldb.sharma.t2__Proc as print 'mine'")
        .unwrap();
    let err = client
        .execute("create trigger t2 on stock for delete event delStk as print 'x'")
        .unwrap_err();
    assert!(matches!(err, AgentError::Naming(_)), "{err}");
    assert_eq!(
        client.execute("execute t2__Proc").unwrap().server.messages,
        vec!["mine"],
        "user procedure kept"
    );
    assert!(agent.event_names().is_empty());
}

#[test]
fn native_trigger_text_is_independent_of_who_regenerates_it() {
    // The native trigger is regenerated whenever an IMMEDIATE trigger is
    // added to or dropped from its event, possibly by another user. Its
    // text must come from the event's persisted definition alone.
    let (agent, client) = setup();
    client
        .execute("create trigger t1 on STOCK for insert event addStk as print 'one'")
        .unwrap();
    let body = || {
        agent
            .server()
            .snapshot()
            .database()
            .trigger("sentineldb.sharma.addStk__evtrig")
            .expect("native trigger installed")
            .body_src
            .clone()
    };
    let created = body();
    let bob = agent.client("sentineldb", "bob");
    bob.execute("create trigger t2 event sharma.addStk as print 'two'")
        .unwrap();
    assert!(
        body().contains("execute sentineldb.bob.t2__Proc"),
        "{}",
        body()
    );
    bob.execute("drop trigger t2").unwrap();
    assert_eq!(body(), created, "create + drop is the identity on the text");
    let resp = client.execute("insert stock values ('A', 1.0)").unwrap();
    assert_eq!(resp.server.messages, vec!["one"]);
    assert_eq!(agent.stats()["notifications"], 1);
}

#[test]
fn rejected_commands_send_nothing() {
    // Every check runs before the first statement goes to the server: a
    // rejected command costs no gateway batch, no WAL record, and changes
    // neither the catalog nor the detector or registry.
    let storage = relsql::FaultyStorage::new();
    let server = SqlServer::open_with_storage(
        storage,
        relsql::DurabilityConfig {
            fsync: relsql::FsyncPolicy::Always,
            checkpoint_bytes: 0,
        },
        relsql::EngineConfig::default(),
    )
    .unwrap();
    let agent = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
    let client = agent.client("sentineldb", "sharma");
    for sql in [
        "create table stock (symbol varchar(10), price float)",
        "create table versioned (a int, vNo int)",
        "create trigger t1 on stock for insert event addStk as print 'a'",
        "create trigger t2 on stock for delete event delStk as print 'd'",
        "create table sentineldb.sharma.updStk_inserted (a int)",
        "create procedure sentineldb.sharma.t9__Proc as print 'mine'",
        "create table other (a int)",
        "create hash index sentineldb.sharma.idx_inserted_vix on other (a)",
        "create trigger sentineldb.sharma.ev__evtrig on other for insert as print 'mine'",
    ] {
        client.execute(sql).unwrap();
    }
    // Duplicate trigger, duplicate event, watched slot, unknown constituent,
    // missing saga step, malformed composite, each generated name already
    // taken (shadow table, action procedure, index, native trigger), a table
    // that cannot be shadowed, a missing table, an event still in use.
    for sql in [
        "create trigger t1 event addStk as print 'x'",
        "create trigger t8 on stock for update event addStk as print 'x'",
        "create trigger t8 on stock for insert event other as print 'x'",
        "create trigger t8 event c = addStk ; ghost as print 'x'",
        "create trigger t8 on stock for update event e8 as saga step p_missing",
        "create trigger t8 event c = addStk ^ ^ delStk as print 'x'",
        "create trigger t8 on stock for update event updStk as print 'x'",
        "create trigger t9 event addStk as print 'x'",
        "create trigger t8 on stock for update event idx as print 'x'",
        "create trigger t8 on stock for update event ev as print 'x'",
        "create trigger t8 on versioned for insert event e8 as print 'x'",
        "create trigger t8 on nosuch for insert event e8 as print 'x'",
        "drop event addStk",
    ] {
        let before = footprint(&agent);
        let (internal, wal) = {
            let s = agent.stats();
            (s["gateway_internal"], s["wal_records"])
        };
        let err = client.execute(sql).unwrap_err();
        assert!(
            matches!(
                err,
                AgentError::Naming(_) | AgentError::Snoop(_) | AgentError::EcaSyntax(_)
            ),
            "{sql}: {err}"
        );
        let s = agent.stats();
        assert_eq!(s["gateway_internal"], internal, "{sql}: no batch sent");
        assert_eq!(s["wal_records"], wal, "{sql}: nothing logged");
        assert_eq!(footprint(&agent), before, "{sql}: nothing changed");
    }
}

#[test]
fn failed_creations_of_every_form_leave_nothing_behind() {
    // Each broken command fails only in the server (or at a saga step
    // lookup); none may leave a row, a tmp table, a procedure or a
    // registration behind, and its corrected form must then work.
    let (agent, client) = setup();
    for sql in [
        "create table audit (note varchar(10))",
        "create procedure sentineldb.sharma.p_audit as insert audit values ('ts')",
        "create trigger t1 on stock for insert event addStk as print 'a'",
    ] {
        client.execute(sql).unwrap();
    }
    for (name, broken, fixed) in [
        (
            "t2", // Figure 10, native
            "create trigger t2 event addStk as frobnicate nonsense",
            "create trigger t2 event addStk as insert audit values ('t2')",
        ),
        (
            "t3", // Figure 10, LED
            "create trigger t3 event addStk DEFERRED as select * from stock.inserted where",
            "create trigger t3 event addStk DEFERRED as insert audit values ('t3')",
        ),
        (
            "ts", // saga
            "create trigger ts on stock for update event upd as saga step p_audit step p_gone",
            "create trigger ts on stock for update event upd as saga step p_audit",
        ),
        (
            "tc", // Figure 12, reading `stock.inserted`
            "create trigger tc event cc = addStk ; addStk as select * from stock.inserted where",
            "create trigger tc event cc = addStk ; addStk as insert audit select symbol from stock.inserted",
        ),
    ] {
        let before = footprint(&agent);
        assert!(client.execute(broken).is_err(), "{broken}");
        assert_eq!(footprint(&agent), before, "{broken}");
        client.execute(fixed).unwrap();
        for sql in [
            &format!("insert stock values ('{name}', 1.0)"),
            &format!("insert stock values ('{name}', 1.0)"),
            "update stock set price = 2.0",
            "begin tran commit",
        ] {
            client.execute(sql).unwrap();
        }
        let r = client
            .execute(&format!("select count(*) from audit where note = '{name}'"))
            .unwrap();
        assert!(
            matches!(r.server.scalar(), Some(relsql::Value::Int(n)) if *n > 0),
            "{fixed} fires"
        );
    }
}
