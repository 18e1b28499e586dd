//! Concurrency: the agent is a multithread program (§3) — multiple clients,
//! detached actions, and the notification pump must compose without
//! deadlock or lost events. The multi-table stress tests additionally pin
//! down the per-table lock scheduler: disjoint-table DML runs in parallel,
//! same-table DML serializes, and the outcome is always equivalent to a
//! serialized replay of the same workload.

use std::sync::Arc;

use eca_core::EcaAgent;
use relsql::{SqlServer, Value};

fn scalar_i64(client: &eca_core::EcaClient, sql: &str) -> i64 {
    match client.execute(sql).unwrap().server.scalar() {
        Some(Value::Int(n)) => *n,
        other => panic!("{sql}: expected int scalar, got {other:?}"),
    }
}

#[test]
fn many_clients_insert_concurrently() {
    let server = SqlServer::new();
    let agent = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
    let setup = agent.client("db", "admin");
    setup.execute("create table t (a int)").unwrap();
    setup.execute("create table audit (n int)").unwrap();
    setup
        .execute("create trigger tr on t for insert event e as insert audit values (1)")
        .unwrap();

    let threads = 8;
    let per_thread = 25;
    let mut handles = Vec::new();
    for k in 0..threads {
        let client = agent.client("db", &format!("user{k}"));
        handles.push(std::thread::spawn(move || {
            for i in 0..per_thread {
                client.execute(&format!("insert t values ({i})")).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let r = setup.execute("select count(*) from t").unwrap();
    assert_eq!(
        r.server.scalar(),
        Some(&Value::Int((threads * per_thread) as i64))
    );
    // Every insert's action ran exactly once — no notification lost or
    // double-processed under concurrency.
    let r = setup.execute("select count(*) from audit").unwrap();
    assert_eq!(
        r.server.scalar(),
        Some(&Value::Int((threads * per_thread) as i64))
    );
    assert_eq!(
        agent.stats()["notifications"],
        (threads * per_thread) as u64
    );
}

#[test]
fn concurrent_rule_creation_on_distinct_tables() {
    let server = SqlServer::new();
    let agent = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
    let setup = agent.client("db", "admin");
    for i in 0..8 {
        setup
            .execute(&format!("create table t{i} (a int)"))
            .unwrap();
    }
    let mut handles = Vec::new();
    for i in 0..8 {
        let client = agent.client("db", "admin");
        handles.push(std::thread::spawn(move || {
            client
                .execute(&format!(
                    "create trigger tr{i} on t{i} for insert event ev{i} as print 'x'"
                ))
                .unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(agent.trigger_names().len(), 8);
    assert_eq!(agent.event_names().len(), 8);
}

#[test]
fn detached_actions_from_concurrent_clients() {
    let server = SqlServer::new();
    let agent = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
    let setup = agent.client("db", "admin");
    setup.execute("create table t (a int)").unwrap();
    setup.execute("create table audit (n int)").unwrap();
    setup
        .execute(
            "create trigger tr on t for insert event e DETACHED \
             as insert audit values (1)",
        )
        .unwrap();
    let mut handles = Vec::new();
    for _ in 0..4 {
        let client = agent.client("db", "admin");
        handles.push(std::thread::spawn(move || {
            for i in 0..10 {
                client.execute(&format!("insert t values ({i})")).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let outcomes = agent.wait_detached();
    assert_eq!(outcomes.len(), 40);
    assert!(outcomes.iter().all(|o| o.result.is_ok()));
    let r = setup.execute("select count(*) from audit").unwrap();
    assert_eq!(r.server.scalar(), Some(&Value::Int(40)));
}

#[test]
fn readers_and_writers_interleave() {
    let server = SqlServer::new();
    let agent = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
    let setup = agent.client("db", "admin");
    setup.execute("create table t (a int)").unwrap();
    setup
        .execute("create trigger tr on t for insert event e as print 'x'")
        .unwrap();
    let writer = agent.client("db", "writer");
    let reader = agent.client("db", "reader");
    let w = std::thread::spawn(move || {
        for i in 0..100 {
            writer.execute(&format!("insert t values ({i})")).unwrap();
        }
    });
    let r = std::thread::spawn(move || {
        let mut last = 0i64;
        for _ in 0..100 {
            let resp = reader.execute("select count(*) from t").unwrap();
            if let Some(Value::Int(n)) = resp.server.scalar() {
                // Counts are monotonically non-decreasing.
                assert!(*n >= last);
                last = *n;
            }
        }
    });
    w.join().unwrap();
    r.join().unwrap();
}

#[test]
fn rule_creation_races_dml_on_the_same_table() {
    // One client defines a rule on `t` while another is mid-flight with
    // inserts on `t`. Requirements: no deadlock (trigger DDL regenerates
    // the native trigger while DML holds server sessions), and afterwards
    // the system behaves exactly like a serialized run — every post-create
    // insert fires the rule exactly once.
    let server = SqlServer::new();
    let agent = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
    let setup = agent.client("db", "admin");
    setup.execute("create table t (a int)").unwrap();
    setup.execute("create table audit (n int)").unwrap();

    let m = 50;
    let ddl = agent.client("db", "ddl");
    let dml = agent.client("db", "dml");
    let creator = std::thread::spawn(move || {
        ddl.execute("create trigger tr on t for insert event e as insert audit values (1)")
            .unwrap();
    });
    let writer = std::thread::spawn(move || {
        for i in 0..m {
            dml.execute(&format!("insert t values ({i})")).unwrap();
        }
    });
    creator.join().unwrap();
    writer.join().unwrap();

    // Inserts that ran before the trigger existed fired nothing; the rest
    // fired exactly once. The count is whatever the race produced, but it
    // must be consistent — and bounded by the insert count.
    let during = match setup
        .execute("select count(*) from audit")
        .unwrap()
        .server
        .scalar()
    {
        Some(Value::Int(n)) => *n,
        other => panic!("expected a count, got {other:?}"),
    };
    assert!(
        (0..=m).contains(&during),
        "audit count {during} out of range"
    );
    assert_eq!(agent.stats()["notifications"], during as u64);

    // From here on the run is equivalent to a serialized one: m more
    // inserts must fire exactly m more actions.
    for i in 0..m {
        setup.execute(&format!("insert t values ({i})")).unwrap();
    }
    let r = setup.execute("select count(*) from audit").unwrap();
    assert_eq!(r.server.scalar(), Some(&Value::Int(during + m)));
    let r = setup.execute("select count(*) from t").unwrap();
    assert_eq!(r.server.scalar(), Some(&Value::Int(2 * m)));
}

#[test]
fn index_ddl_races_disjoint_dml_without_deadlock() {
    // One client churns CREATE/DROP INDEX on `cold` while another hammers
    // DML on `hot`. Index DDL schedules exclusively (catalog mutation), so
    // the requirement is liveness — the exclusive writer must drain the
    // parallel readers and vice versa, never deadlock — plus a consistent
    // end state.
    let server = SqlServer::new();
    let agent = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
    let setup = agent.client("db", "admin");
    setup.execute("create table hot (k int, v int)").unwrap();
    setup.execute("create table cold (k int)").unwrap();

    let writer = {
        let client = agent.client("db", "writer");
        std::thread::spawn(move || {
            for i in 0..150 {
                client
                    .execute(&format!("insert hot values ({i}, {})", i % 7))
                    .unwrap();
                client
                    .execute(&format!("select v from hot where k = {i}"))
                    .unwrap();
            }
        })
    };
    let indexer = {
        let client = agent.client("db", "indexer");
        std::thread::spawn(move || {
            for _ in 0..25 {
                client.execute("create hash index cix on cold (k)").unwrap();
                client.execute("drop index cix").unwrap();
            }
        })
    };
    writer.join().unwrap();
    indexer.join().unwrap();
    assert_eq!(scalar_i64(&setup, "select count(*) from hot"), 150);

    // Index DDL is a catalog mutation: it must bump the plan-cache epoch,
    // so a statement shape that was hot before the CREATE INDEX re-parses
    // and re-plans — and the fresh plan routes through the new index.
    setup
        .execute("select count(*) from hot where k = 1")
        .unwrap();
    setup.execute("create index hix on hot (k)").unwrap();
    let warm = server.metrics();
    setup
        .execute("select count(*) from hot where k = 3")
        .unwrap();
    let after = server.metrics();
    assert_eq!(after["plan_cache_misses"] - warm["plan_cache_misses"], 1);
    assert_eq!(after["plan_cache_hits"], warm["plan_cache_hits"]);
    assert!(
        after["index_hits"] > warm["index_hits"],
        "replan should probe hix"
    );
    assert_eq!(
        scalar_i64(&setup, "select count(*) from hot where k = 3"),
        1
    );
}

/// The scheduler's correctness contract under a mixed workload: four
/// disjoint evented tables written in parallel, one evented table written
/// by two racing clients, and one table whose rule is created mid-flight —
/// all at once. Afterwards every event's occurrence numbers form exactly
/// 1..=n (nothing lost, nothing duplicated) and the deterministic tables
/// match a serialized replay of the same logical workload.
#[test]
fn multi_table_stress_matches_serialized_replay() {
    use std::collections::HashMap;

    fn install(client: &eca_core::EcaClient) {
        for i in 0..4 {
            client
                .execute(&format!("create table d{i} (a int)"))
                .unwrap();
            client
                .execute(&format!("create table audit{i} (n int)"))
                .unwrap();
            client
                .execute(&format!(
                    "create trigger trd{i} on d{i} for insert event ed{i} \
                     as insert audit{i} values (1)"
                ))
                .unwrap();
        }
        client.execute("create table s (a int)").unwrap();
        client.execute("create table a_s (n int)").unwrap();
        client
            .execute("create trigger trs on s for insert event es as insert a_s values (1)")
            .unwrap();
        client.execute("create table r (a int)").unwrap();
        client.execute("create table ar (n int)").unwrap();
    }

    let server = SqlServer::new();
    let agent = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
    let setup = agent.client("db", "admin");
    install(&setup);

    // Record every occurrence the LED raises, keyed by internal event name.
    let vnos: Arc<std::sync::Mutex<HashMap<String, Vec<i64>>>> = Arc::default();
    {
        let vnos = Arc::clone(&vnos);
        agent.add_occurrence_listener(Arc::new(
            move |event: &str, params: &[led::Param], _ts: i64| {
                if let Some(v) = params.first().and_then(|p| p.vno) {
                    vnos.lock()
                        .unwrap()
                        .entry(event.to_string())
                        .or_default()
                        .push(v);
                }
            },
        ));
    }

    let per_table: i64 = 50;
    let mut handles = Vec::new();
    // Disjoint-table writers: one thread per table, eligible for parallel
    // scheduling (their footprints never intersect).
    for i in 0..4 {
        let c = agent.client("db", &format!("w{i}"));
        handles.push(std::thread::spawn(move || {
            for v in 0..per_table {
                c.execute(&format!("insert d{i} values ({v})")).unwrap();
            }
        }));
    }
    // Same-table writers: two threads on `s`, serialized by its table lock.
    for k in 0..2 {
        let c = agent.client("db", &format!("s{k}"));
        handles.push(std::thread::spawn(move || {
            for v in 0..25 {
                c.execute(&format!("insert s values ({v})")).unwrap();
            }
        }));
    }
    // Rule creation (exclusive batch) racing DML on the same table.
    let ddl = agent.client("db", "rddl");
    handles.push(std::thread::spawn(move || {
        ddl.execute("create trigger trr on r for insert event er as insert ar values (1)")
            .unwrap();
    }));
    let dml = agent.client("db", "rdml");
    handles.push(std::thread::spawn(move || {
        for v in 0..25 {
            dml.execute(&format!("insert r values ({v})")).unwrap();
        }
    }));
    for h in handles {
        h.join().unwrap();
    }

    // Firing counts: one native action per insert, none lost or doubled.
    for i in 0..4 {
        assert_eq!(
            scalar_i64(&setup, &format!("select count(*) from d{i}")),
            per_table
        );
        assert_eq!(
            scalar_i64(&setup, &format!("select count(*) from audit{i}")),
            per_table,
            "audit{i}: native trigger fired exactly once per insert"
        );
    }
    assert_eq!(scalar_i64(&setup, "select count(*) from s"), 50);
    assert_eq!(scalar_i64(&setup, "select count(*) from a_s"), 50);
    assert_eq!(scalar_i64(&setup, "select count(*) from r"), 25);
    let during = scalar_i64(&setup, "select count(*) from ar");
    assert!((0..=25).contains(&during), "ar count {during} out of range");

    // Per-event vNo accounting: the multiset of raised occurrence numbers
    // is exactly 1..=n. (Raise *order* can interleave across pumping
    // threads, so order is asserted separately on a single-writer tail.)
    {
        let vnos = vnos.lock().unwrap();
        for i in 0..4 {
            let mut got = vnos
                .get(&format!("db.admin.ed{i}"))
                .cloned()
                .unwrap_or_default();
            got.sort_unstable();
            assert_eq!(
                got,
                (1..=per_table).collect::<Vec<i64>>(),
                "ed{i}: lost, duplicated, or out-of-range occurrence"
            );
        }
        let mut got = vnos.get("db.admin.es").cloned().unwrap_or_default();
        got.sort_unstable();
        assert_eq!(
            got,
            (1..=50).collect::<Vec<i64>>(),
            "es under same-table race"
        );
        // `er` races its own registration: native-trigger firings that land
        // between the server-side install and the agent-side registry seed
        // are history (they fill `ar` but seed the tracker's watermark), so
        // the raised occurrences form a contiguous *suffix* ending at the
        // firing count — still no gaps and no duplicates.
        let mut got = vnos.get("db.rddl.er").cloned().unwrap_or_default();
        got.sort_unstable();
        let first = during - got.len() as i64 + 1;
        assert_eq!(
            got,
            (first..=during).collect::<Vec<i64>>(),
            "er occurrences are a gap-free, duplicate-free suffix of 1..={during}"
        );
    }

    // Serialized replay: the same logical workload, single-threaded, must
    // leave identical contents in every deterministic table. (`ar` depends
    // on where the CREATE TRIGGER landed in the race, so it is excluded;
    // `r` itself is still compared.)
    let server2 = SqlServer::new();
    let agent2 = EcaAgent::with_defaults(Arc::clone(&server2)).unwrap();
    let replay = agent2.client("db", "admin");
    install(&replay);
    replay
        .execute("create trigger trr on r for insert event er as insert ar values (1)")
        .unwrap();
    for i in 0..4 {
        for v in 0..per_table {
            replay
                .execute(&format!("insert d{i} values ({v})"))
                .unwrap();
        }
    }
    for _k in 0..2 {
        for v in 0..25 {
            replay.execute(&format!("insert s values ({v})")).unwrap();
        }
    }
    for v in 0..25 {
        replay.execute(&format!("insert r values ({v})")).unwrap();
    }
    for t in ["d0", "d1", "d2", "d3", "s", "r"] {
        assert_eq!(
            scalar_i64(&setup, &format!("select count(*) from {t}")),
            scalar_i64(&replay, &format!("select count(*) from {t}")),
            "{t}: count differs from serialized replay"
        );
        assert_eq!(
            scalar_i64(&setup, &format!("select sum(a) from {t}")),
            scalar_i64(&replay, &format!("select sum(a) from {t}")),
            "{t}: contents differ from serialized replay"
        );
    }
    for t in ["audit0", "audit1", "audit2", "audit3", "a_s"] {
        assert_eq!(
            scalar_i64(&setup, &format!("select count(*) from {t}")),
            scalar_i64(&replay, &format!("select count(*) from {t}")),
            "{t}: firing count differs from serialized replay"
        );
    }

    // Single-writer tail: with only this thread executing, occurrences must
    // reach the listener in strict vNo order (the emission-ordering
    // guarantee the pipelined detector relies on).
    let already = vnos
        .lock()
        .unwrap()
        .get("db.admin.ed0")
        .map(|v| v.len())
        .unwrap_or(0);
    for v in 0..10 {
        setup.execute(&format!("insert d0 values ({v})")).unwrap();
    }
    let all = vnos.lock().unwrap();
    let tail = &all.get("db.admin.ed0").unwrap()[already..];
    assert_eq!(
        tail,
        (per_table + 1..=per_table + 10).collect::<Vec<i64>>(),
        "single-writer occurrences arrive in vNo order"
    );
}

/// Regression test for the Figure 11 read-back race (EXPERIMENTS.md
/// deviation 3): by the time `syb_sendmsg` emits a notification carrying
/// vNo *n*, the shadow row stamped with *n* must already be visible to a
/// concurrent reader. A probing sink checks the shadow table from inside
/// every `send()` — before the pipelined detector stage could possibly get
/// the datagram — so any emit-before-stamp reordering is caught exactly.
#[test]
fn notification_never_precedes_its_shadow_row() {
    use std::sync::atomic::{AtomicU64, Ordering};

    use relsql::notify::{Datagram, NotificationSink};

    struct ProbeSink {
        server: Arc<SqlServer>,
        sent: AtomicU64,
        violations: AtomicU64,
    }
    impl NotificationSink for ProbeSink {
        fn send(&self, d: Datagram) {
            self.sent.fetch_add(1, Ordering::SeqCst);
            let vno: i64 = d
                .payload
                .rsplit(' ')
                .next()
                .and_then(|w| w.trim().parse().ok())
                .expect("payload ends with the vNo");
            // Read-only inspection: `send` runs on the emitting session's
            // thread while it holds table locks, so going back through
            // `execute` would self-deadlock; `with_table_rows` uses the
            // recursive read lock instead (a `snapshot()` would clone every
            // table and could block on the emitting batch's own row guards).
            let visible = self
                .server
                .with_table_rows("t_shadow", |rows| {
                    rows.iter().any(|row| row.last() == Some(&Value::Int(vno)))
                })
                .unwrap_or(false);
            if !visible {
                self.violations.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    let server = SqlServer::new();
    let probe = Arc::new(ProbeSink {
        server: Arc::clone(&server),
        sent: AtomicU64::new(0),
        violations: AtomicU64::new(0),
    });
    server.set_sink(Arc::clone(&probe) as Arc<dyn NotificationSink>);

    // A hand-written trigger in the exact shape codegen emits (Figure 11):
    // bump the version counter, stamp the shadow rows, then notify.
    let admin = server.session("db", "u");
    admin.execute("create table t (a int)").unwrap();
    admin.execute("create table t_ver (vNo int)").unwrap();
    admin.execute("insert t_ver values (0)").unwrap();
    admin
        .execute("create table t_shadow (a int, vNo int)")
        .unwrap();
    admin
        .execute(
            "create trigger nt on t for insert as\n\
             update t_ver set vNo = vNo + 1\n\
             insert t_shadow select * from inserted, t_ver\n\
             select syb_sendmsg('10.0.0.1', 10006, 'u t insert begin e ' + str(vNo)) from t_ver",
        )
        .unwrap();

    let mut handles = Vec::new();
    for k in 0..4 {
        let session = server.session("db", &format!("w{k}"));
        handles.push(std::thread::spawn(move || {
            for i in 0..25 {
                session.execute(&format!("insert t values ({i})")).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    assert_eq!(probe.sent.load(Ordering::SeqCst), 100);
    assert_eq!(
        probe.violations.load(Ordering::SeqCst),
        0,
        "a notification was emitted before its shadow row became visible"
    );
    let snap = server.snapshot();
    let shadow_rows = snap.database().table("t_shadow").unwrap().rows().len();
    assert_eq!(shadow_rows, 100);
}

/// The pipelined detector stage behind a deliberately tiny admission
/// queue: datagrams that overflow are dropped (UDP semantics) and must be
/// repaired by the exactly-once anti-entropy sweep from the durable vNo
/// counters — every occurrence is still raised exactly once.
#[test]
fn bounded_detector_queue_stays_exactly_once() {
    use std::time::{Duration, Instant};

    use eca_core::AgentConfig;

    let server = SqlServer::new();
    let agent = EcaAgent::new(
        Arc::clone(&server),
        AgentConfig::builder().notify_queue_depth(Some(8)).build(),
    )
    .unwrap();
    let client = agent.client("db", "u");
    client.execute("create table t (a int)").unwrap();
    client.execute("create table audit (n int)").unwrap();
    client
        .execute("create trigger tr on t for insert event e as print 'p'")
        .unwrap();
    client
        .execute("create trigger tc event ec = e as insert audit values (1)")
        .unwrap();

    let handle = agent.start_notifier_thread();
    let mut writers = Vec::new();
    for k in 0..4 {
        let c = agent.client("db", &format!("w{k}"));
        writers.push(std::thread::spawn(move || {
            for i in 0..50 {
                c.execute(&format!("insert t values ({i})")).unwrap();
            }
        }));
    }
    for w in writers {
        w.join().unwrap();
    }

    // Overflowed datagrams are only recovered by the detector thread's
    // anti-entropy pass, so poll for convergence rather than for an empty
    // channel.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut audit = 0;
    while Instant::now() < deadline {
        audit = scalar_i64(&client, "select count(*) from audit");
        if audit == 200 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    agent.stop_notifier_thread();
    handle.join().unwrap();

    assert_eq!(scalar_i64(&client, "select count(*) from t"), 200);
    assert_eq!(
        audit, 200,
        "every occurrence raised exactly once despite queue overflow"
    );
    let stats = agent.stats();
    assert_eq!(stats["notifications"], 200, "raised exactly once each");
    // The bounded sink accounts for what it dropped; with a fast detector
    // this can legitimately be zero, so only check it is recorded sanely.
    assert!(stats["notify_overflows"] <= 200);
}

#[test]
fn concurrent_firings_each_see_their_own_context() {
    // A firing's `sysContext` refresh and the action procedure that joins
    // it run as one batch, so a second client's firing cannot overwrite
    // the rows between them: every CHRONICLE pairing sees exactly its own
    // initiator.
    let server = SqlServer::new();
    let agent = EcaAgent::with_defaults(Arc::clone(&server)).unwrap();
    let setup = agent.client("db", "u");
    setup.execute("create table a (x int)").unwrap();
    setup.execute("create table b (y int)").unwrap();
    setup.execute("create table seen (x int)").unwrap();
    setup
        .execute("create trigger t1 on a for insert event ea as print 'ea'")
        .unwrap();
    setup
        .execute("create trigger t2 on b for insert event eb as print 'eb'")
        .unwrap();
    setup
        .execute(
            "create trigger t3 event pair = ea ; eb CHRONICLE \
             as insert seen select x from a.inserted",
        )
        .unwrap();
    for x in 1..=400 {
        setup.execute(&format!("insert a values ({x})")).unwrap();
    }
    let handles: Vec<_> = (0..2)
        .map(|k| {
            let client = agent.client("db", &format!("w{k}"));
            std::thread::spawn(move || {
                for i in 0..200 {
                    client.execute(&format!("insert b values ({i})")).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let r = setup.execute("select x from seen order by x").unwrap();
    let seen: Vec<i64> = r
        .server
        .last_select()
        .unwrap()
        .rows
        .iter()
        .map(|row| match &row[0] {
            Value::Int(n) => *n,
            other => panic!("{other:?}"),
        })
        .collect();
    assert_eq!(seen, (1..=400).collect::<Vec<i64>>());
}
