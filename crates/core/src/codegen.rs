//! SQL code generation (Figures 11 and 14).
//!
//! Everything the agent installs in the SQL server is plain SQL produced
//! here: shadow tables, version helper tables, stored procedures with
//! context processing, and the native trigger that stamps shadow rows and
//! sends the `syb_sendmsg` notification.
//!
//! One deliberate deviation from Figure 11, documented in DESIGN.md: the
//! native trigger is named per *event* (not per user trigger) and executes
//! the procedures of **all** IMMEDIATE triggers on that event, because
//! Sybase permits only one native trigger per (table, operation) while the
//! agent supports many triggers per event (contribution #4).

use led::ParameterContext;
use relsql::lexer::{tokenize, TokenKind};

use crate::eca_parser::TriggerClauses;
use crate::naming;
use crate::registry::{
    CompositeEventInfo, PrimitiveEventInfo, ShadowKind, TriggerInfo, TriggerKind,
};

/// Escape a string for inclusion in a single-quoted SQL literal.
pub fn sql_quote(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

/// DDL for the agent's system tables (Figures 5, 6, 7 and 17).
///
/// Two documented extensions over the paper's schemas: name columns are
/// widened from `varchar(30)` to `varchar(120)` so fully-qualified internal
/// names never truncate, and `SysEcaTrigger` carries the trigger-level
/// coupling/context/priority/kind needed for faithful recovery (the paper's
/// schema loses them).
pub fn system_tables_ddl() -> Vec<(&'static str, String)> {
    vec![
        (
            "SysPrimitiveEvent",
            "create table SysPrimitiveEvent (\
             dbName varchar(120) null, userName varchar(120) null, \
             eventName varchar(120) null, tableName varchar(120) null, \
             operation varchar(20) null, timeStamp datetime null, vNo int null)\n\
             create hash index ix_SysPrimitiveEvent_event on SysPrimitiveEvent (eventName)"
                .to_string(),
        ),
        (
            "SysCompositeEvent",
            "create table SysCompositeEvent (\
             dbName varchar(120) null, userName varchar(120) null, \
             eventName varchar(120) null, eventDescribe text null, \
             timeStamp datetime null, coupling char(10) null, \
             context char(10) null, priority char(10) null)\n\
             create hash index ix_SysCompositeEvent_event on SysCompositeEvent (eventName)"
                .to_string(),
        ),
        (
            "SysEcaTrigger",
            "create table SysEcaTrigger (\
             dbName varchar(120) null, userName varchar(120) null, \
             triggerName varchar(120) null, triggerProc text null, \
             timeStamp datetime null, eventName varchar(120) null, \
             coupling char(10) null, context char(12) null, \
             priority int null, kind char(10) null)\n\
             create hash index ix_SysEcaTrigger_name on SysEcaTrigger (triggerName)"
                .to_string(),
        ),
        (
            "sysContext",
            "create table sysContext (\
             tableName varchar(120) not null, context varchar(12) not null, \
             vNo int not null)\n\
             create hash index ix_sysContext_table on sysContext (tableName)"
                .to_string(),
        ),
        (
            "SysAgentWatermark",
            "create table SysAgentWatermark (\
             eventName varchar(120) not null, hwm int not null)\n\
             create hash index ix_SysAgentWatermark_event on SysAgentWatermark (eventName)"
                .to_string(),
        ),
        (
            "SysSagaStep",
            "create table SysSagaStep (\
             triggerName varchar(120) not null, stepIdx int not null, \
             stepProc varchar(160) not null, compProc varchar(160) null)\n\
             create hash index ix_SysSagaStep_trigger on SysSagaStep (triggerName)"
                .to_string(),
        ),
        (
            "SysSagaJournal",
            // Deliberately no timestamp column: a saga resumed after a
            // crash must journal byte-identically to an uninterrupted run
            // (DESIGN.md §12), and post-recovery clock values differ.
            "create table SysSagaJournal (\
             sagaKey varchar(200) not null, triggerName varchar(120) not null, \
             eventName varchar(120) not null, vNo int not null, \
             stepIdx int not null, phase char(8) not null, \
             state char(12) not null, idemKey varchar(240) not null)\n\
             create hash index ix_SysSagaJournal_key on SysSagaJournal (sagaKey)"
                .to_string(),
        ),
        (
            "SysWireJournal",
            // The serve layer's exactly-once EXEC journal (DESIGN.md §16).
            // One row per stamped wire request; the insert is prepended to
            // the client batch so journal row + user effects commit in one
            // WAL record, and the unique index turns a re-submitted seq
            // into a duplicate-key error the agent maps to a replay. No
            // timestamp column for the same reason as `SysSagaJournal`:
            // a replayed request must journal byte-identically.
            "create table SysWireJournal (\
             idemKey varchar(200) not null, sessionToken varchar(120) not null, \
             reqSeq int not null, response text null)\n\
             create unique hash index ux_SysWireJournal on SysWireJournal (idemKey)"
                .to_string(),
        ),
        (
            "SysDeadLetter",
            "create table SysDeadLetter (\
             triggerName varchar(120) not null, eventName varchar(120) not null, \
             procName varchar(160) not null, coupling char(10) not null, \
             context char(12) not null, vNo int not null, attempts int not null, \
             errorText text not null, params text not null)\n\
             create hash index ix_SysDeadLetter_trigger on SysDeadLetter (triggerName)"
                .to_string(),
        ),
    ]
}

/// Setup DDL for a new primitive event: the two shadow tables (Figure 11
/// creates both), each `= table schema + vNo`, plus the single-row version
/// helper table initialized to 0.
///
/// Each shadow table gets a hash index on `vNo`: every generated action
/// procedure selects the triggering tuples with `shadow.vNo = <current>`,
/// and the shadow tables only grow — without the index that equality probe
/// would degrade into a scan of the event's entire history.
pub fn primitive_event_setup(info: &PrimitiveEventInfo) -> String {
    format!(
        "select * into {ins} from {t} where 1=2\n\
         alter table {ins} add vNo int null\n\
         create hash index {ins}_vix on {ins} (vNo)\n\
         select * into {del} from {t} where 1=2\n\
         alter table {del} add vNo int null\n\
         create hash index {del}_vix on {del} (vNo)\n\
         create table {ver} (vNo int not null)\n\
         insert {ver} values (0)",
        ins = info.shadow_inserted,
        del = info.shadow_deleted,
        ver = info.version_table,
        t = info.table_sql,
    )
}

/// The native SQL trigger installed for a primitive event (Figure 11),
/// executing `immediate_procs` (the event's IMMEDIATE trigger procedures,
/// in priority order) after the notification.
///
/// Generated from the event's persisted fields alone — the table as the
/// creating user wrote it, under that user's identity — so every
/// regeneration (another trigger on the event, a drop, recovery) yields
/// the same text for the same rule set.
pub fn native_trigger_sql(
    info: &PrimitiveEventInfo,
    host: &str,
    port: u16,
    immediate_procs: &[String],
) -> String {
    format!(
        "create trigger {name} on {t} for {op} as\n{body}",
        name = naming::native_trigger(&info.name),
        t = info.table_sql,
        op = info.operation,
        body = native_trigger_body(info, host, port, immediate_procs),
    )
}

/// The body of [`native_trigger_sql`] — what the catalog keeps as the
/// trigger's `body_src` (modulo the trailing newline).
///
/// Body order: bump the event's occurrence number, refresh the version
/// helper, stamp the affected rows into the shadow table(s), notify the
/// agent over `syb_sendmsg`, then execute the IMMEDIATE trigger procedures
/// in priority order.
pub(crate) fn native_trigger_body(
    info: &PrimitiveEventInfo,
    host: &str,
    port: u16,
    immediate_procs: &[String],
) -> String {
    let mut body = String::new();
    // Bump the event's own version counter first so shadow rows carry the
    // occurrence number this firing is known by. Earlier versions routed
    // the bump through the shared SysPrimitiveEvent table, which would put
    // that one table in every evented DML's lock footprint and serialize
    // otherwise-disjoint batches; the per-event `{ver}` single-row table
    // keeps footprints disjoint (the Persistent Manager reads it back for
    // durable-vNo recovery).
    body.push_str(&format!(
        "update {ver} set vNo = vNo + 1\n",
        ver = info.version_table,
    ));
    for (shadow, kind) in info.stamped_shadows() {
        let pseudo = match kind {
            ShadowKind::Inserted => "inserted",
            ShadowKind::Deleted => "deleted",
        };
        body.push_str(&format!(
            "insert {shadow} select * from {pseudo}, {ver}\n",
            ver = info.version_table,
        ));
    }
    // Notification payload (§5.4): "<user> <table> <op> begin <event> <vNo>".
    body.push_str(&format!(
        "select syb_sendmsg({host}, {port}, {prefix} + str(vNo)) from {ver}\n",
        host = sql_quote(host),
        prefix = sql_quote(&format!(
            "{user} {table} {op} begin {event} ",
            user = info.user,
            table = info.table_sql,
            op = info.operation,
            event = info.name,
        )),
        ver = info.version_table,
    ));
    for proc in immediate_procs {
        body.push_str(&format!("execute {proc}\n"));
    }
    body
}

/// A `<table>.inserted` / `<table>.deleted` reference found in action SQL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextRef {
    /// Internal name of the user table.
    pub table: String,
    pub kind: ShadowKind,
}

impl ContextRef {
    /// The context tmp table the reference is rewritten to.
    pub(crate) fn tmp(&self) -> String {
        match self.kind {
            ShadowKind::Inserted => naming::tmp_inserted(&self.table),
            ShadowKind::Deleted => naming::tmp_deleted(&self.table),
        }
    }
}

/// Rewrite the `TableName.inserted` / `TableName.deleted` context accessors
/// (§5.6) in action SQL into their internal tmp-table names, returning the
/// rewritten SQL and the distinct references found.
///
/// `expand` maps a user-level table name to its internal form.
pub fn rewrite_context_refs(
    action: &str,
    expand: impl Fn(&str) -> String,
) -> (String, Vec<ContextRef>) {
    let tokens = match tokenize(action) {
        Ok(t) => t,
        Err(_) => return (action.to_string(), Vec::new()),
    };
    // Find ident (dot ident)* chains ending in .inserted/.deleted and
    // replace them textually, back to front so positions stay valid.
    let mut spans: Vec<(usize, usize, String, ContextRef)> = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if let TokenKind::Ident(_) = tokens[i].kind {
            // Walk the dotted chain.
            let start = i;
            let mut parts: Vec<&str> = Vec::new();
            let mut j = i;
            while let TokenKind::Ident(s) = &tokens[j].kind {
                parts.push(s);
                if matches!(tokens.get(j + 1).map(|t| &t.kind), Some(TokenKind::Dot))
                    && matches!(
                        tokens.get(j + 2).map(|t| &t.kind),
                        Some(TokenKind::Ident(_))
                    )
                {
                    j += 2;
                } else {
                    break;
                }
            }
            let last = parts.last().copied().unwrap_or("");
            let kind = if last.eq_ignore_ascii_case("inserted") {
                Some(ShadowKind::Inserted)
            } else if last.eq_ignore_ascii_case("deleted") {
                Some(ShadowKind::Deleted)
            } else {
                None
            };
            if let Some(kind) = kind {
                if parts.len() >= 2 {
                    let table = expand(&parts[..parts.len() - 1].join("."));
                    let r = ContextRef { table, kind };
                    let begin = tokens[start].pos;
                    let end = tokens[j].pos
                        + match &tokens[j].kind {
                            TokenKind::Ident(s) => s.len(),
                            _ => 0,
                        };
                    spans.push((begin, end, r.tmp(), r));
                }
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    let mut out = action.to_string();
    let mut refs: Vec<ContextRef> = Vec::new();
    for (begin, end, tmp, r) in spans.iter().rev() {
        out.replace_range(*begin..*end, tmp);
        if !refs.contains(r) {
            refs.push(r.clone());
        }
    }
    refs.reverse();
    (out, refs)
}

/// DDL creating a context tmp table as an empty clone of a shadow table.
pub fn tmp_table_ddl(tmp: &str, shadow: &str) -> String {
    format!("select * into {tmp} from {shadow} where 1=2")
}

/// One (shadow → tmp) context-processing source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextSource {
    pub tmp: String,
    pub shadow: String,
}

/// The action procedure for an LED-dispatched trigger (Figure 14): context
/// processing joins each relevant shadow table with `sysContext` on
/// `(tableName, vNo)`, refills the tmp tables, then runs the action.
pub fn led_action_proc(
    proc_name: &str,
    context: ParameterContext,
    sources: &[ContextSource],
    rewritten_action: &str,
) -> String {
    let mut body = format!("create procedure {proc_name} as\n");
    let mut cleared: Vec<&str> = Vec::new();
    for s in sources {
        if !cleared.contains(&s.tmp.as_str()) {
            body.push_str(&format!("delete {}\n", s.tmp));
            cleared.push(&s.tmp);
        }
    }
    for s in sources {
        body.push_str(&format!(
            "insert {tmp} select {shadow}.* from {shadow}, sysContext \
             where sysContext.context = {ctx} and sysContext.tableName = {sh} \
             and {shadow}.vNo = sysContext.vNo\n",
            tmp = s.tmp,
            shadow = s.shadow,
            ctx = sql_quote(context.as_str()),
            sh = sql_quote(&s.shadow),
        ));
    }
    body.push_str(rewritten_action);
    body.push('\n');
    body
}

/// The action procedure for a native-embedded (Figure 11) trigger: context
/// processing joins the shadow with the event's version helper (the current
/// occurrence), then runs the action.
pub fn native_action_proc(
    proc_name: &str,
    info: &PrimitiveEventInfo,
    refs: &[ContextRef],
    rewritten_action: &str,
) -> String {
    let mut body = format!("create procedure {proc_name} as\n");
    for r in refs {
        let (tmp, shadow) = (r.tmp(), info.shadow(r.kind));
        body.push_str(&format!(
            "delete {tmp}\n\
             insert {tmp} select {shadow}.* from {shadow}, {ver} \
             where {shadow}.vNo = {ver}.vNo\n",
            ver = info.version_table,
        ));
    }
    body.push_str(rewritten_action);
    body.push('\n');
    body
}

/// INSERT persisting a primitive event (Figure 11's generated
/// `insert SysPrimitiveEvent ...`).
pub fn persist_primitive_sql(info: &PrimitiveEventInfo) -> String {
    format!(
        "insert SysPrimitiveEvent values ({}, {}, {}, {}, {}, getdate(), 0)",
        sql_quote(&info.db),
        sql_quote(&info.user),
        sql_quote(&info.name),
        sql_quote(&info.table_sql),
        sql_quote(info.operation.as_str()),
    )
}

/// INSERT persisting a composite event (Figure 14's generated insert),
/// with the coupling/context/priority of the trigger defined alongside it.
pub fn persist_composite_sql(
    db: &str,
    user: &str,
    event: &CompositeEventInfo,
    clauses: &TriggerClauses,
) -> String {
    format!(
        "insert SysCompositeEvent values ({}, {}, {}, {}, getdate(), {}, {}, {})",
        sql_quote(db),
        sql_quote(user),
        sql_quote(&event.name),
        sql_quote(&event.expr_src),
        sql_quote(clauses.coupling.as_str()),
        sql_quote(clauses.context.as_str()),
        sql_quote(&clauses.priority.to_string()),
    )
}

/// INSERT persisting a trigger row.
pub fn persist_trigger_sql(db: &str, user: &str, t: &TriggerInfo) -> String {
    format!(
        "insert SysEcaTrigger values ({}, {}, {}, {}, getdate(), {}, {}, {}, {}, {})",
        sql_quote(db),
        sql_quote(user),
        sql_quote(&t.name),
        sql_quote(&t.proc_name),
        sql_quote(&t.event),
        sql_quote(t.coupling.as_str()),
        sql_quote(t.context.as_str()),
        t.priority,
        sql_quote(match t.kind {
            TriggerKind::Native => "native",
            TriggerKind::Led => "led",
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use relsql::ast::TriggerOp;

    fn info() -> PrimitiveEventInfo {
        PrimitiveEventInfo::new(
            "sentineldb.sharma.addStk",
            "sentineldb",
            "sharma",
            "stock",
            "sentineldb.sharma.stock",
            TriggerOp::Insert,
        )
    }

    #[test]
    fn sql_quote_escapes() {
        assert_eq!(sql_quote("a'b"), "'a''b'");
        assert_eq!(sql_quote("plain"), "'plain'");
    }

    #[test]
    fn system_tables_parse() {
        for (name, ddl) in system_tables_ddl() {
            let stmts =
                relsql::parser::parse_script(&ddl).unwrap_or_else(|e| panic!("{name}: {e}"));
            // Each entry carries the CREATE TABLE plus its lookup-key index.
            assert_eq!(stmts.len(), 2, "{name}");
            assert!(
                matches!(stmts[1], relsql::ast::Stmt::CreateIndex { .. }),
                "{name}: second statement should create the lookup index"
            );
        }
    }

    #[test]
    fn setup_sql_parses_and_mentions_figure_11_artifacts() {
        let sql = primitive_event_setup(&info());
        relsql::parser::parse_script(&sql).unwrap();
        assert!(
            sql.contains("select * into sentineldb.sharma.addStk_inserted from stock where 1=2")
        );
        assert!(sql.contains("add vNo int null"));
        assert!(sql.contains("insert sentineldb.sharma.addStk_ver values (0)"));
    }

    #[test]
    fn native_trigger_shape() {
        let sql = native_trigger_sql(
            &info(),
            "128.227.205.215",
            10006,
            &["sentineldb.sharma.t_addStk__Proc".to_string()],
        );
        relsql::parser::parse_script(&sql).unwrap();
        assert!(sql.contains("'sharma stock insert begin sentineldb.sharma.addStk '"));
        assert!(sql.contains("create trigger sentineldb.sharma.addStk__evtrig on stock for insert"));
        assert!(sql.contains("update sentineldb.sharma.addStk_ver set vNo = vNo + 1"));
        // The bump must stay off the shared SysPrimitiveEvent table so DML
        // on different evented tables keeps disjoint lock footprints.
        assert!(!sql.contains("update SysPrimitiveEvent"));
        assert!(sql.contains("insert sentineldb.sharma.addStk_inserted select * from inserted"));
        assert!(sql.contains("syb_sendmsg('128.227.205.215', 10006"));
        assert!(sql.contains("begin sentineldb.sharma.addStk "));
        assert!(sql.contains("execute sentineldb.sharma.t_addStk__Proc"));
        // Insert-only event must not touch the deleted shadow.
        assert!(!sql.contains("from deleted"));
    }

    #[test]
    fn native_trigger_update_op_stamps_both_shadows() {
        let mut i = info();
        i.operation = TriggerOp::Update;
        let sql = native_trigger_sql(&i, "h", 1, &[]);
        assert!(sql.contains("select * from inserted"));
        assert!(sql.contains("select * from deleted"));
    }

    #[test]
    fn rewrite_example_2_action() {
        // §5.3: `select symbol, price from stock.inserted`
        let expand = |t: &str| format!("sentineldb.sharma.{t}");
        let (out, refs) = rewrite_context_refs("select symbol, price from stock.inserted", expand);
        assert_eq!(
            out,
            "select symbol, price from sentineldb.sharma.stock_inserted_tmp"
        );
        assert_eq!(refs.len(), 1);
        assert_eq!(refs[0].table, "sentineldb.sharma.stock");
        assert_eq!(refs[0].kind, ShadowKind::Inserted);
    }

    #[test]
    fn rewrite_multiple_and_qualified_refs() {
        let expand = |t: &str| {
            if t.matches('.').count() >= 2 {
                t.to_string()
            } else {
                format!("db.u.{t}")
            }
        };
        let (out, refs) = rewrite_context_refs(
            "select * from stock.inserted, db.u.orders.deleted where stock.inserted.vNo > 0",
            expand,
        );
        assert!(out.contains("db.u.stock_inserted_tmp,"));
        assert!(out.contains("db.u.orders_deleted_tmp"));
        // The qualified column ref `stock.inserted.vNo` — its chain ends in
        // `vNo`, not inserted/deleted, so it is left alone. (Users access
        // tmp columns through the rewritten FROM alias semantics instead.)
        assert!(out.contains("stock.inserted.vNo"));
        assert_eq!(refs.len(), 2);
    }

    #[test]
    fn rewrite_no_refs_is_identity() {
        let (out, refs) =
            rewrite_context_refs("select * from stock where a = 1", |t| t.to_string());
        assert_eq!(out, "select * from stock where a = 1");
        assert!(refs.is_empty());
    }

    #[test]
    fn rewrite_does_not_touch_plain_inserted() {
        // Bare `inserted` (no table qualifier) is the native pseudo-table.
        let (out, refs) =
            rewrite_context_refs("insert log select * from inserted", |t| t.to_string());
        assert_eq!(out, "insert log select * from inserted");
        assert!(refs.is_empty());
    }

    #[test]
    fn led_proc_matches_figure_14_shape() {
        let sources = [ContextSource {
            tmp: "sentineldb.sharma.stock_inserted_tmp".into(),
            shadow: "sentineldb.sharma.addStk_inserted".into(),
        }];
        let sql = led_action_proc(
            "sentineldb.sharma.t_and__Proc",
            ParameterContext::Recent,
            &sources,
            "select symbol, price from sentineldb.sharma.stock_inserted_tmp",
        );
        relsql::parser::parse_script(&sql).unwrap();
        assert!(sql.contains("create procedure sentineldb.sharma.t_and__Proc"));
        assert!(sql.contains("delete sentineldb.sharma.stock_inserted_tmp"));
        assert!(sql.contains("sysContext.context = 'RECENT'"));
        assert!(sql.contains("sysContext.tableName = 'sentineldb.sharma.addStk_inserted'"));
        assert!(sql.contains(".vNo = sysContext.vNo"));
    }

    #[test]
    fn led_proc_clears_each_tmp_once() {
        let sources = [
            ContextSource {
                tmp: "t_tmp".into(),
                shadow: "s1".into(),
            },
            ContextSource {
                tmp: "t_tmp".into(),
                shadow: "s2".into(),
            },
        ];
        let sql = led_action_proc("p", ParameterContext::Chronicle, &sources, "print 'x'");
        assert_eq!(sql.matches("delete t_tmp").count(), 1);
        assert_eq!(sql.matches("insert t_tmp").count(), 2);
    }

    #[test]
    fn native_proc_joins_version_table() {
        let refs = [ContextRef {
            table: "sentineldb.sharma.stock".into(),
            kind: ShadowKind::Inserted,
        }];
        let sql = native_action_proc(
            "sentineldb.sharma.t_addStk__Proc",
            &info(),
            &refs,
            "select * from sentineldb.sharma.stock_inserted_tmp",
        );
        relsql::parser::parse_script(&sql).unwrap();
        assert!(sql.contains("sentineldb.sharma.addStk_ver"));
        assert!(sql.contains(".vNo = sentineldb.sharma.addStk_ver.vNo"));
    }

    #[test]
    fn persist_statements_parse() {
        let i = info();
        for sql in [
            persist_primitive_sql(&i),
            persist_composite_sql(
                "sentineldb",
                "sharma",
                &CompositeEventInfo {
                    name: "sentineldb.sharma.addDel".into(),
                    expr_src: "(a ^ b)".into(),
                    context: ParameterContext::Recent,
                },
                &TriggerClauses::default(),
            ),
            persist_trigger_sql(
                "sentineldb",
                "sharma",
                &TriggerInfo {
                    name: "sentineldb.sharma.t_and".into(),
                    event: "sentineldb.sharma.addDel".into(),
                    proc_name: "sentineldb.sharma.t_and__Proc".into(),
                    kind: TriggerKind::Led,
                    coupling: led::CouplingMode::Immediate,
                    context: ParameterContext::Recent,
                    priority: 0,
                    saga: None,
                },
            ),
        ] {
            relsql::parser::parse_script(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
    }

    #[test]
    fn tmp_ddl_parses() {
        let sql = tmp_table_ddl("a_tmp", "a_shadow");
        relsql::parser::parse_script(&sql).unwrap();
        assert_eq!(sql, "select * into a_tmp from a_shadow where 1=2");
    }
}
