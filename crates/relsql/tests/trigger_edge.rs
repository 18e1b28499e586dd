//! Native-trigger and batch edge cases the generated Figure-11 code leans
//! on.

use relsql::{SqlServer, Value};

fn server() -> relsql::Session {
    let s = SqlServer::new();
    s.session("db", "u")
}

#[test]
fn trigger_body_with_comments_like_figure_11() {
    // Figure 11's generated code is full of /* ... */ comments.
    let s = server();
    s.execute("create table t (a int)").unwrap();
    s.execute("create table shadow (a int)").unwrap();
    s.execute(
        "create trigger tr on t for insert as\n\
         /* stamp the shadow table */\n\
         insert shadow select * from inserted\n\
         -- and announce it\n\
         print 'stamped'",
    )
    .unwrap();
    let r = s.execute("insert t values (1)").unwrap();
    assert_eq!(r.messages, vec!["stamped"]);
}

#[test]
fn go_separator_ends_a_trigger_body() {
    // A trigger body extends to the end of its batch; `go` starts a new one.
    let s = server();
    s.execute("create table t (a int)").unwrap();
    let r = s
        .execute(
            "create trigger tr on t for insert as print 'in trigger'\n\
             go\n\
             insert t values (1)",
        )
        .unwrap();
    assert_eq!(r.messages, vec!["in trigger"]);
    // The insert after `go` was a separate batch, not part of the body.
    let r = s.execute("select count(*) from t").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(1)));
}

#[test]
fn chained_triggers_stop_at_depth_limit_not_before() {
    let s = server();
    // A chain of 10 tables, each trigger inserting into the next: well
    // within the 16-deep default limit.
    for i in 0..11 {
        s.execute(&format!("create table t{i} (a int)")).unwrap();
    }
    for i in 0..10 {
        s.execute(&format!(
            "create trigger tr{i} on t{i} for insert as insert t{} values (1)",
            i + 1
        ))
        .unwrap();
    }
    s.execute("insert t0 values (0)").unwrap();
    let r = s.execute("select count(*) from t10").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(1)), "chain reached the end");
}

#[test]
fn trigger_sees_multi_row_statement_once() {
    // Statement-level semantics: one firing for a 5-row insert.
    let s = server();
    s.execute("create table t (a int)").unwrap();
    s.execute("create table firings (n int)").unwrap();
    s.execute("create trigger tr on t for insert as insert firings values (1)")
        .unwrap();
    s.execute("insert t values (1), (2), (3), (4), (5)")
        .unwrap();
    let r = s.execute("select count(*) from firings").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(1)));
}

#[test]
fn update_trigger_pseudo_tables_are_row_aligned_sets() {
    let s = server();
    s.execute("create table t (id int, v int)").unwrap();
    s.execute("insert t values (1, 10), (2, 20), (3, 30)")
        .unwrap();
    s.execute("create table log (id int, old_v int, new_v int)")
        .unwrap();
    s.execute(
        "create trigger tr on t for update as \
         insert log select deleted.id, deleted.v, inserted.v \
         from deleted, inserted where deleted.id = inserted.id",
    )
    .unwrap();
    s.execute("update t set v = v + 1 where id >= 2").unwrap();
    let r = s
        .execute("select id, old_v, new_v from log order by id")
        .unwrap();
    let rows = &r.last_select().unwrap().rows;
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0], vec![Value::Int(2), Value::Int(20), Value::Int(21)]);
    assert_eq!(rows[1], vec![Value::Int(3), Value::Int(30), Value::Int(31)]);
}

#[test]
fn dropping_and_recreating_trigger_same_name() {
    let s = server();
    s.execute("create table t (a int)").unwrap();
    s.execute("create trigger tr on t for insert as print 'v1'")
        .unwrap();
    s.execute("drop trigger tr").unwrap();
    s.execute("create trigger tr on t for insert as print 'v2'")
        .unwrap();
    let r = s.execute("insert t values (1)").unwrap();
    assert_eq!(r.messages, vec!["v2"]);
}

#[test]
fn procedure_called_from_trigger_cannot_see_pseudo_tables() {
    // As in Sybase: inserted/deleted are scoped to the trigger body, not to
    // procedures it calls. Our engine keeps the scope for nested execution
    // (a deliberate relaxation) — this test pins the actual behaviour.
    let s = server();
    s.execute("create table t (a int)").unwrap();
    s.execute("create table log (a int)").unwrap();
    s.execute("create procedure p as insert log select * from inserted")
        .unwrap();
    s.execute("create trigger tr on t for insert as execute p")
        .unwrap();
    // Our scope stack makes this WORK (the paper's Figure 11 relies on
    // direct statements in the trigger body instead).
    s.execute("insert t values (7)").unwrap();
    let r = s.execute("select a from log").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(7)));
}

#[test]
fn sendmsg_inside_trigger_carries_computed_payload() {
    use relsql::notify::CollectingSink;
    let server = SqlServer::new();
    let sink = CollectingSink::new();
    server.set_sink(sink.clone());
    let s = server.session("db", "u");
    s.execute("create table t (a int)").unwrap();
    s.execute("create table ver (vno int)").unwrap();
    s.execute("insert ver values (41)").unwrap();
    s.execute(
        "create trigger tr on t for insert as \
         update ver set vno = vno + 1 \
         select syb_sendmsg('10.0.0.1', 9000, 'event at ' + str(vno)) from ver",
    )
    .unwrap();
    s.execute("insert t values (1)").unwrap();
    let got = sink.take();
    assert_eq!(got.len(), 1);
    assert_eq!(got[0].payload, "event at 42");
    assert_eq!(got[0].host, "10.0.0.1");
    assert_eq!(got[0].port, 9000);
}

#[test]
fn rollback_inside_batch_undoes_trigger_side_effects_and_their_notifications() {
    // An open transaction holds its datagrams, so a rolled-back occurrence
    // is never announced.
    use relsql::notify::CollectingSink;
    let server = SqlServer::new();
    let sink = CollectingSink::new();
    server.set_sink(sink.clone());
    let s = server.session("db", "u");
    s.execute("create table t (a int)").unwrap();
    s.execute(
        "create trigger tr on t for insert as \
         select syb_sendmsg('h', 1, 'fired')",
    )
    .unwrap();
    s.execute("begin tran insert t values (1) rollback")
        .unwrap();
    let r = s.execute("select count(*) from t").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(0)), "row rolled back");
    assert!(sink.is_empty(), "the held notification was dropped");
}
