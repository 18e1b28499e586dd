//! Scalar expression evaluation with SQL three-valued logic.

use crate::ast::{is_aggregate_name, BinaryOp, Expr, UnaryOp};
use crate::catalog::Database;
use crate::clock::LogicalClock;
use crate::engine::{ExecCounters, Outbox};
use crate::error::{Error, ObjectKind, Result};
use crate::select::run_select;
use crate::table::{Schema, Table};
use crate::value::Value;

/// Per-session identity: the `db.user.` prefix used for name resolution and
/// the `db_name()` / `user_name()` built-ins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionCtx {
    pub database: String,
    pub user: String,
    /// When `true`, read-pure batches from this session bypass the MVCC
    /// snapshot lane and read *live* rows under lock scheduling. Agent
    /// internals (the exactly-once pump, action/saga handlers) set this:
    /// they react to datagrams that are enqueued mid-batch, *before* the
    /// triggering batch publishes its versions, so a published-snapshot
    /// read could lag the very shadow/`_ver` row the datagram announced.
    /// Client sessions keep the default (`false`) and get lock-free reads.
    pub live_reads: bool,
}

impl SessionCtx {
    pub fn new(database: impl Into<String>, user: impl Into<String>) -> Self {
        SessionCtx {
            database: database.into(),
            user: user.into(),
            live_reads: false,
        }
    }

    /// Builder-style toggle for [`SessionCtx::live_reads`].
    pub fn with_live_reads(mut self) -> Self {
        self.live_reads = true;
        self
    }

    pub fn prefix(&self) -> (&str, &str) {
        (&self.database, &self.user)
    }
}

impl Default for SessionCtx {
    fn default() -> Self {
        SessionCtx::new("sentineldb", "dbo")
    }
}

/// The `inserted` / `deleted` pseudo-tables visible inside a trigger body.
#[derive(Debug, Clone)]
pub struct PseudoFrame {
    pub inserted: Table,
    pub deleted: Table,
}

/// Read-only context threaded through query evaluation.
pub(crate) struct QueryCtx<'e> {
    pub db: &'e Database,
    pub session: &'e SessionCtx,
    /// Trigger scope stack; the innermost frame wins for `inserted`/`deleted`.
    pub scope: &'e [PseudoFrame],
    pub clock: &'e LogicalClock,
    pub outbox: &'e Outbox,
    /// Literals masked out of the batch text by the statement-plan cache;
    /// `Expr::Param(i)` reads slot `i`. Empty for unparameterized plans.
    pub params: &'e [Value],
    /// Access-path counters (index hits/misses, rows scanned).
    pub stats: &'e ExecCounters,
    /// When true, top-level SELECT/DML statements may run through the
    /// compiled physical-plan executor ([`crate::exec`]); when false (or
    /// for any shape the lowerer rejects) the row-at-a-time interpreter
    /// runs. Results are byte-identical either way.
    pub compiled: bool,
}

impl<'e> QueryCtx<'e> {
    /// Resolve a table reference, honouring trigger pseudo-tables first.
    pub fn resolve_table(&self, name: &str) -> Result<&'e Table> {
        if let Some(frame) = self.scope.last() {
            if name.eq_ignore_ascii_case("inserted") {
                // SAFETY of lifetime: scope lives as long as 'e.
                return Ok(&frame.inserted);
            }
            if name.eq_ignore_ascii_case("deleted") {
                return Ok(&frame.deleted);
            }
        }
        let key = self
            .db
            .resolve_table_key(name, Some(self.session.prefix()))
            .ok_or_else(|| Error::NotFound {
                kind: ObjectKind::Table,
                name: name.to_string(),
            })?;
        Ok(self.db.table(&key).expect("resolved key exists"))
    }
}

/// One table's slice of the current joined row.
pub(crate) struct Frame<'r> {
    pub alias: Option<String>,
    /// Canonical table name (`inserted`/`deleted` for pseudo-tables).
    pub table_name: String,
    pub schema: &'r Schema,
    pub row: &'r [Value],
}

impl Frame<'_> {
    /// Does `qualifier` denote this frame?
    fn matches_qualifier(&self, qualifier: &str, session: &SessionCtx) -> bool {
        qualifier_matches(self.alias.as_deref(), &self.table_name, qualifier, session)
    }
}

/// Does `qualifier` denote a FROM slot with this alias / table name? Shared
/// by row-environment lookup and the compiled executor's column binder so
/// both resolve names identically.
pub(crate) fn qualifier_matches(
    alias: Option<&str>,
    table_name: &str,
    qualifier: &str,
    session: &SessionCtx,
) -> bool {
    if let Some(alias) = alias {
        if alias.eq_ignore_ascii_case(qualifier) {
            return true;
        }
        // An explicit alias hides the underlying table name in Sybase,
        // but generated code never aliases, so we stay permissive and
        // fall through to name matching as well.
    }
    if table_name.eq_ignore_ascii_case(qualifier) {
        return true;
    }
    let tn = table_name.to_ascii_lowercase();
    let q = qualifier.to_ascii_lowercase();
    if tn.ends_with(&format!(".{q}")) {
        return true;
    }
    let (db, user) = session.prefix();
    tn == format!(
        "{}.{}.{}",
        db.to_ascii_lowercase(),
        user.to_ascii_lowercase(),
        q
    )
}

/// The set of frames a row expression can see. `parent` chains to the
/// enclosing query's environment, enabling correlated subqueries: a name
/// not found in the inner query's frames resolves against the outer row
/// (inner frames shadow outer ones, as in standard SQL).
pub(crate) struct RowEnv<'r> {
    pub frames: Vec<Frame<'r>>,
    pub parent: Option<&'r RowEnv<'r>>,
}

impl<'r> RowEnv<'r> {
    pub fn empty() -> Self {
        RowEnv {
            frames: Vec::new(),
            parent: None,
        }
    }

    /// Look up a column value.
    pub fn lookup(
        &self,
        qualifier: Option<&str>,
        name: &str,
        session: &SessionCtx,
    ) -> Result<Value> {
        let mut found: Option<Value> = None;
        for frame in &self.frames {
            if let Some(q) = qualifier {
                if !frame.matches_qualifier(q, session) {
                    continue;
                }
            }
            if let Some(idx) = frame.schema.index_of(name) {
                if found.is_some() {
                    return Err(Error::exec(format!("ambiguous column name '{name}'")));
                }
                found = Some(frame.row[idx].clone());
            }
        }
        if let Some(v) = found {
            return Ok(v);
        }
        if let Some(parent) = self.parent {
            return parent.lookup(qualifier, name, session);
        }
        Err(Error::NotFound {
            kind: ObjectKind::Column,
            name: match qualifier {
                Some(q) => format!("{q}.{name}"),
                None => name.to_string(),
            },
        })
    }
}

/// Evaluate an expression against one row environment.
pub(crate) fn eval_expr(ctx: &QueryCtx<'_>, env: &RowEnv<'_>, expr: &Expr) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Param(i) => ctx
            .params
            .get(*i)
            .cloned()
            .ok_or_else(|| Error::exec(format!("unbound statement parameter ${i}"))),
        Expr::Column { qualifier, name } => env.lookup(qualifier.as_deref(), name, ctx.session),
        Expr::Unary { op, operand } => {
            let v = eval_expr(ctx, env, operand)?;
            match op {
                UnaryOp::Not => Ok(match v {
                    Value::Null => Value::Null,
                    other => Value::Int(i64::from(!other.is_truthy())),
                }),
                UnaryOp::Neg => match v {
                    Value::Null => Ok(Value::Null),
                    Value::Int(i) => Ok(Value::Int(-i)),
                    Value::Float(f) => Ok(Value::Float(-f)),
                    other => Err(Error::type_err(format!("cannot negate {other}"))),
                },
            }
        }
        Expr::Binary { op, left, right } => eval_binary(ctx, env, *op, left, right),
        Expr::Function {
            name,
            args,
            star,
            distinct,
        } => eval_function(ctx, env, name, args, *star, *distinct),
        Expr::IsNull { operand, negated } => {
            let v = eval_expr(ctx, env, operand)?;
            let is_null = v.is_null();
            Ok(Value::Int(i64::from(is_null != *negated)))
        }
        Expr::InList {
            operand,
            list,
            negated,
        } => {
            let v = eval_expr(ctx, env, operand)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let iv = eval_expr(ctx, env, item)?;
                if iv.is_null() {
                    saw_null = true;
                    continue;
                }
                if v.sql_cmp(&iv) == Some(std::cmp::Ordering::Equal) {
                    return Ok(Value::Int(i64::from(!*negated)));
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Int(i64::from(*negated)))
            }
        }
        Expr::Between {
            operand,
            low,
            high,
            negated,
        } => {
            let v = eval_expr(ctx, env, operand)?;
            let lo = eval_expr(ctx, env, low)?;
            let hi = eval_expr(ctx, env, high)?;
            match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                (Some(a), Some(b)) => {
                    let inside = a != std::cmp::Ordering::Less && b != std::cmp::Ordering::Greater;
                    Ok(Value::Int(i64::from(inside != *negated)))
                }
                _ => Ok(Value::Null),
            }
        }
        Expr::Like {
            operand,
            pattern,
            negated,
        } => {
            let v = eval_expr(ctx, env, operand)?;
            let p = eval_expr(ctx, env, pattern)?;
            match (v, p) {
                (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
                (Value::Str(s), Value::Str(pat)) => {
                    Ok(Value::Int(i64::from(like_match(&s, &pat) != *negated)))
                }
                (a, b) => Err(Error::type_err(format!(
                    "LIKE requires strings, got {a} LIKE {b}"
                ))),
            }
        }
        Expr::Exists(sub) => {
            let (_, rows) = run_select(ctx, sub, Some(env))?;
            Ok(Value::Int(i64::from(!rows.is_empty())))
        }
        Expr::Subquery(sub) => {
            let (cols, rows) = run_select(ctx, sub, Some(env))?;
            if cols.len() != 1 {
                return Err(Error::exec(format!(
                    "scalar subquery must return one column, got {}",
                    cols.len()
                )));
            }
            match rows.len() {
                0 => Ok(Value::Null),
                1 => Ok(rows.into_iter().next().unwrap().into_iter().next().unwrap()),
                n => Err(Error::exec(format!("scalar subquery returned {n} rows"))),
            }
        }
    }
}

fn eval_binary(
    ctx: &QueryCtx<'_>,
    env: &RowEnv<'_>,
    op: BinaryOp,
    left: &Expr,
    right: &Expr,
) -> Result<Value> {
    // AND / OR use three-valued logic with short-circuit where sound.
    match op {
        BinaryOp::And => {
            let l = eval_expr(ctx, env, left)?;
            if !l.is_null() && !l.is_truthy() {
                return Ok(Value::Int(0));
            }
            let r = eval_expr(ctx, env, right)?;
            return Ok(match (l.is_null(), r.is_null()) {
                (false, false) => Value::Int(i64::from(l.is_truthy() && r.is_truthy())),
                _ => {
                    if !r.is_null() && !r.is_truthy() {
                        Value::Int(0)
                    } else {
                        Value::Null
                    }
                }
            });
        }
        BinaryOp::Or => {
            let l = eval_expr(ctx, env, left)?;
            if !l.is_null() && l.is_truthy() {
                return Ok(Value::Int(1));
            }
            let r = eval_expr(ctx, env, right)?;
            return Ok(match (l.is_null(), r.is_null()) {
                (false, false) => Value::Int(i64::from(l.is_truthy() || r.is_truthy())),
                _ => {
                    if !r.is_null() && r.is_truthy() {
                        Value::Int(1)
                    } else {
                        Value::Null
                    }
                }
            });
        }
        _ => {}
    }
    let l = eval_expr(ctx, env, left)?;
    let r = eval_expr(ctx, env, right)?;
    apply_binary_values(op, l, r)
}

/// Apply a binary operator to two already-evaluated values (no
/// short-circuiting). Used both by [`eval_expr`] and by the grouped
/// aggregate evaluator in the SELECT executor.
pub(crate) fn apply_binary_values(op: BinaryOp, l: Value, r: Value) -> Result<Value> {
    match op {
        BinaryOp::And => Ok(match (l.is_null(), r.is_null()) {
            (false, false) => Value::Int(i64::from(l.is_truthy() && r.is_truthy())),
            _ => {
                if (!l.is_null() && !l.is_truthy()) || (!r.is_null() && !r.is_truthy()) {
                    Value::Int(0)
                } else {
                    Value::Null
                }
            }
        }),
        BinaryOp::Or => Ok(match (l.is_null(), r.is_null()) {
            (false, false) => Value::Int(i64::from(l.is_truthy() || r.is_truthy())),
            _ => {
                if (!l.is_null() && l.is_truthy()) || (!r.is_null() && r.is_truthy()) {
                    Value::Int(1)
                } else {
                    Value::Null
                }
            }
        }),
        BinaryOp::Eq
        | BinaryOp::Neq
        | BinaryOp::Lt
        | BinaryOp::Le
        | BinaryOp::Gt
        | BinaryOp::Ge => {
            let ord = match l.sql_cmp(&r) {
                Some(o) => o,
                None => return Ok(Value::Null),
            };
            use std::cmp::Ordering::*;
            let truth = match op {
                BinaryOp::Eq => ord == Equal,
                BinaryOp::Neq => ord != Equal,
                BinaryOp::Lt => ord == Less,
                BinaryOp::Le => ord != Greater,
                BinaryOp::Gt => ord == Greater,
                BinaryOp::Ge => ord != Less,
                _ => unreachable!(),
            };
            Ok(Value::Int(i64::from(truth)))
        }
        BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => {
            arith(op, l, r)
        }
    }
}

fn arith(op: BinaryOp, l: Value, r: Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // String concatenation with `+`, as in Transact-SQL.
    if op == BinaryOp::Add {
        if let (Value::Str(a), Value::Str(b)) = (&l, &r) {
            return Ok(Value::Str(format!("{a}{b}")));
        }
    }
    // DateTime arithmetic: datetime ± int microseconds.
    if let (Value::DateTime(t), Value::Int(d)) = (&l, &r) {
        return match op {
            BinaryOp::Add => Ok(Value::DateTime(t + d)),
            BinaryOp::Sub => Ok(Value::DateTime(t - d)),
            _ => Err(Error::type_err("unsupported datetime arithmetic")),
        };
    }
    if let (Value::DateTime(a), Value::DateTime(b)) = (&l, &r) {
        if op == BinaryOp::Sub {
            return Ok(Value::Int(a - b));
        }
    }
    match (&l, &r) {
        (Value::Int(a), Value::Int(b)) => {
            let a = *a;
            let b = *b;
            match op {
                BinaryOp::Add => Ok(Value::Int(a.wrapping_add(b))),
                BinaryOp::Sub => Ok(Value::Int(a.wrapping_sub(b))),
                BinaryOp::Mul => Ok(Value::Int(a.wrapping_mul(b))),
                BinaryOp::Div => {
                    if b == 0 {
                        Err(Error::DivisionByZero)
                    } else {
                        Ok(Value::Int(a / b))
                    }
                }
                BinaryOp::Mod => {
                    if b == 0 {
                        Err(Error::DivisionByZero)
                    } else {
                        Ok(Value::Int(a % b))
                    }
                }
                _ => unreachable!(),
            }
        }
        _ => {
            let fa = to_f64(&l)?;
            let fb = to_f64(&r)?;
            match op {
                BinaryOp::Add => Ok(Value::Float(fa + fb)),
                BinaryOp::Sub => Ok(Value::Float(fa - fb)),
                BinaryOp::Mul => Ok(Value::Float(fa * fb)),
                BinaryOp::Div => {
                    if fb == 0.0 {
                        Err(Error::DivisionByZero)
                    } else {
                        Ok(Value::Float(fa / fb))
                    }
                }
                BinaryOp::Mod => {
                    if fb == 0.0 {
                        Err(Error::DivisionByZero)
                    } else {
                        Ok(Value::Float(fa % fb))
                    }
                }
                _ => unreachable!(),
            }
        }
    }
}

fn to_f64(v: &Value) -> Result<f64> {
    match v {
        Value::Int(i) => Ok(*i as f64),
        Value::Float(f) => Ok(*f),
        Value::DateTime(t) => Ok(*t as f64),
        other => Err(Error::type_err(format!("expected number, got {other}"))),
    }
}

fn eval_function(
    ctx: &QueryCtx<'_>,
    env: &RowEnv<'_>,
    name: &str,
    args: &[Expr],
    star: bool,
    distinct: bool,
) -> Result<Value> {
    if is_aggregate_name(name) {
        return Err(Error::exec(format!(
            "aggregate '{name}' is not allowed in this position"
        )));
    }
    if distinct {
        return Err(Error::exec(format!(
            "DISTINCT is not allowed in scalar function '{name}'"
        )));
    }
    scalar_fn_lazy(ctx, name, args.len(), star, |i| {
        eval_expr(ctx, env, &args[i])
    })
}

/// Evaluate a scalar built-in with lazily-supplied arguments: `arg(i)`
/// produces the i-th argument value on demand, preserving evaluation order
/// and laziness (`isnull`/`coalesce` stop at the first non-NULL). Shared by
/// the row-at-a-time interpreter and the compiled executor so side effects
/// (`syb_sendmsg`, `getdate` clock ticks) and error text are identical on
/// both paths.
pub(crate) fn scalar_fn_lazy(
    ctx: &QueryCtx<'_>,
    name: &str,
    nargs: usize,
    star: bool,
    mut arg: impl FnMut(usize) -> Result<Value>,
) -> Result<Value> {
    let lname = name.to_ascii_lowercase();
    let need = |n: usize| -> Result<()> {
        if nargs == n && !star {
            Ok(())
        } else {
            Err(Error::exec(format!("{name}() expects {n} argument(s)")))
        }
    };
    match lname.as_str() {
        // The engine's logical clock runs in UTC, so GETDATE and
        // GETUTCDATE read the same instant (a server with no civil
        // timezone has no local offset to add).
        "getdate" | "getutcdate" => {
            need(0)?;
            Ok(Value::DateTime(ctx.clock.now()))
        }
        "db_name" => {
            need(0)?;
            Ok(Value::Str(ctx.session.database.clone()))
        }
        "user_name" => {
            need(0)?;
            Ok(Value::Str(ctx.session.user.clone()))
        }
        // The paper's notification built-in (Figure 11): sends a UDP
        // datagram (at COMMIT in a transaction); returns 0, as Sybase does.
        "syb_sendmsg" => {
            need(3)?;
            let host = arg(0)?;
            let port = arg(1)?;
            let payload = arg(2)?;
            let port = match port.coerce_to(crate::value::DataType::Int)? {
                Value::Int(p) if (0..=65535).contains(&p) => p as u16,
                other => return Err(Error::exec(format!("bad port {other}"))),
            };
            ctx.outbox.post(host.to_string(), port, payload.to_string());
            Ok(Value::Int(0))
        }
        "upper" => {
            need(1)?;
            match arg(0)? {
                Value::Null => Ok(Value::Null),
                v => Ok(Value::Str(v.to_string().to_uppercase())),
            }
        }
        "lower" => {
            need(1)?;
            match arg(0)? {
                Value::Null => Ok(Value::Null),
                v => Ok(Value::Str(v.to_string().to_lowercase())),
            }
        }
        "len" | "char_length" => {
            need(1)?;
            match arg(0)? {
                Value::Null => Ok(Value::Null),
                v => Ok(Value::Int(v.to_string().chars().count() as i64)),
            }
        }
        "abs" => {
            need(1)?;
            match arg(0)? {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i.abs())),
                Value::Float(f) => Ok(Value::Float(f.abs())),
                other => Err(Error::type_err(format!("abs() on {other}"))),
            }
        }
        "round" => {
            if nargs == 0 || nargs > 2 {
                return Err(Error::exec("round() expects 1 or 2 arguments"));
            }
            let v = arg(0)?;
            let digits = if nargs == 2 {
                match arg(1)? {
                    Value::Int(d) => d,
                    other => return Err(Error::type_err(format!("round() digits {other}"))),
                }
            } else {
                0
            };
            match v {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i)),
                Value::Float(f) => {
                    let m = 10f64.powi(digits as i32);
                    Ok(Value::Float((f * m).round() / m))
                }
                other => Err(Error::type_err(format!("round() on {other}"))),
            }
        }
        "isnull" | "coalesce" => {
            if nargs == 0 {
                return Err(Error::exec("isnull() expects arguments"));
            }
            for i in 0..nargs {
                let v = arg(i)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        "str" | "convert_str" => {
            need(1)?;
            Ok(Value::Str(arg(0)?.to_string()))
        }
        // T-SQL date arithmetic. The parser rewrites a bare datepart
        // identifier (`datediff(day, a, b)`) into a string literal, so
        // by the time either execution path gets here the datepart is a
        // plain constant.
        "datediff" => {
            need(3)?;
            let part = datepart_arg(name, arg(0)?)?;
            let start = datetime_micros(name, arg(1)?)?;
            let end = datetime_micros(name, arg(2)?)?;
            match (start, end) {
                (Some(start), Some(end)) => Ok(Value::Int(date_diff(part, start, end))),
                _ => Ok(Value::Null),
            }
        }
        "datepart" => {
            need(2)?;
            let part = datepart_arg(name, arg(0)?)?;
            match datetime_micros(name, arg(1)?)? {
                Some(t) => Ok(Value::Int(date_part(part, t))),
                None => Ok(Value::Null),
            }
        }
        "datename" => {
            need(2)?;
            let part = datepart_arg(name, arg(0)?)?;
            match datetime_micros(name, arg(1)?)? {
                Some(t) => Ok(Value::Str(date_name(part, t))),
                None => Ok(Value::Null),
            }
        }
        "dateadd" => {
            need(3)?;
            let part = datepart_arg(name, arg(0)?)?;
            let n = match arg(1)? {
                Value::Null => {
                    arg(2)?; // preserve evaluation of every argument
                    return Ok(Value::Null);
                }
                Value::Int(n) => n,
                // T-SQL truncates a fractional count toward zero.
                Value::Float(f) => f.trunc() as i64,
                other => return Err(Error::type_err(format!("dateadd() count {other}"))),
            };
            match datetime_micros(name, arg(2)?)? {
                Some(t) => Ok(Value::DateTime(date_add(part, n, t))),
                None => Ok(Value::Null),
            }
        }
        other => Err(Error::NotFound {
            kind: ObjectKind::Function,
            name: other.to_string(),
        }),
    }
}

// ---------------------------------------------------------------------------
// T-SQL date arithmetic: DATEDIFF / DATEADD over the micros-since-epoch
// DateTime representation. DATEDIFF counts *boundary crossings* of the
// datepart (T-SQL semantics: `datediff(day, 23:59, 00:01)` is 1), not
// elapsed units; DATEADD clamps to the last day of the target month.
// ---------------------------------------------------------------------------

/// The dateparts `datediff`/`dateadd` understand, with their T-SQL
/// abbreviations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DatePart {
    Year,
    Quarter,
    Month,
    Week,
    Day,
    DayOfYear,
    Weekday,
    Hour,
    Minute,
    Second,
    Millisecond,
    Microsecond,
}

/// Recognize a datepart name or abbreviation. Shared with the parser,
/// which rewrites bare datepart identifiers into string literals.
pub(crate) fn datepart_from_name(s: &str) -> Option<DatePart> {
    Some(match s.to_ascii_lowercase().as_str() {
        "year" | "yy" | "yyyy" => DatePart::Year,
        "quarter" | "qq" | "q" => DatePart::Quarter,
        "month" | "mm" | "m" => DatePart::Month,
        "week" | "wk" | "ww" => DatePart::Week,
        "day" | "dd" | "d" => DatePart::Day,
        "dayofyear" | "dy" => DatePart::DayOfYear,
        "weekday" | "dw" => DatePart::Weekday,
        "hour" | "hh" => DatePart::Hour,
        "minute" | "mi" | "n" => DatePart::Minute,
        "second" | "ss" | "s" => DatePart::Second,
        "millisecond" | "ms" => DatePart::Millisecond,
        "microsecond" | "mcs" | "us" => DatePart::Microsecond,
        _ => return None,
    })
}

fn datepart_arg(fname: &str, v: Value) -> Result<DatePart> {
    match v {
        Value::Str(s) => datepart_from_name(&s)
            .ok_or_else(|| Error::exec(format!("{fname}(): unknown datepart '{s}'"))),
        other => Err(Error::exec(format!(
            "{fname}(): datepart must be an identifier or string, got {other}"
        ))),
    }
}

/// A datetime operand: `DateTime` micros, or an `Int` treated as micros
/// (the same coercion the comparison operators apply). NULL propagates.
fn datetime_micros(fname: &str, v: Value) -> Result<Option<i64>> {
    match v {
        Value::Null => Ok(None),
        Value::DateTime(t) | Value::Int(t) => Ok(Some(t)),
        other => Err(Error::type_err(format!("{fname}() on {other}"))),
    }
}

const MICROS_PER_SECOND: i64 = 1_000_000;
const MICROS_PER_DAY: i64 = 86_400 * MICROS_PER_SECOND;

fn floor_div(a: i64, b: i64) -> i64 {
    a.div_euclid(b)
}

/// Proleptic-Gregorian civil date from days since 1970-01-01 (Howard
/// Hinnant's `civil_from_days` algorithm).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Days since 1970-01-01 from a civil date (inverse of
/// [`civil_from_days`]).
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = i64::from(if m > 2 { m - 3 } else { m + 9 });
    let doy = (153 * mp + 2) / 5 + i64::from(d) - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

fn last_day_of_month(y: i64, m: u32) -> u32 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        _ => {
            if y % 4 == 0 && (y % 100 != 0 || y % 400 == 0) {
                29
            } else {
                28
            }
        }
    }
}

/// `(year, month)` of the civil date holding micros `t`.
fn year_month(t: i64) -> (i64, u32) {
    let (y, m, _) = civil_from_days(floor_div(t, MICROS_PER_DAY));
    (y, m)
}

fn date_diff(part: DatePart, start: i64, end: i64) -> i64 {
    let unit_diff = |unit: i64| floor_div(end, unit) - floor_div(start, unit);
    match part {
        DatePart::Microsecond => end - start,
        DatePart::Millisecond => unit_diff(1_000),
        DatePart::Second => unit_diff(MICROS_PER_SECOND),
        DatePart::Minute => unit_diff(60 * MICROS_PER_SECOND),
        DatePart::Hour => unit_diff(3_600 * MICROS_PER_SECOND),
        // T-SQL: DATEDIFF over dayofyear/weekday counts day boundaries.
        DatePart::Day | DatePart::DayOfYear | DatePart::Weekday => unit_diff(MICROS_PER_DAY),
        DatePart::Week => {
            // T-SQL weeks begin on Sunday; 1969-12-28 (day -4) was one,
            // so shifting by +4 Sunday-aligns the floor.
            let weeks = |t: i64| floor_div(floor_div(t, MICROS_PER_DAY) + 4, 7);
            weeks(end) - weeks(start)
        }
        DatePart::Month => {
            let (ys, ms) = year_month(start);
            let (ye, me) = year_month(end);
            (ye * 12 + i64::from(me)) - (ys * 12 + i64::from(ms))
        }
        DatePart::Quarter => {
            let (ys, ms) = year_month(start);
            let (ye, me) = year_month(end);
            (ye * 4 + i64::from((me - 1) / 3)) - (ys * 4 + i64::from((ms - 1) / 3))
        }
        DatePart::Year => {
            let (ys, _) = year_month(start);
            let (ye, _) = year_month(end);
            ye - ys
        }
    }
}

fn date_add(part: DatePart, n: i64, t: i64) -> i64 {
    let add_months = |t: i64, months: i64| -> i64 {
        let days = floor_div(t, MICROS_PER_DAY);
        let tod = t - days * MICROS_PER_DAY;
        let (y, m, d) = civil_from_days(days);
        let total = y * 12 + i64::from(m) - 1 + months;
        let (ny, nm) = (floor_div(total, 12), (total.rem_euclid(12)) as u32 + 1);
        // `jan 31 + 1 month` lands on the last day of February.
        let nd = d.min(last_day_of_month(ny, nm));
        days_from_civil(ny, nm, nd) * MICROS_PER_DAY + tod
    };
    match part {
        DatePart::Microsecond => t + n,
        DatePart::Millisecond => t + n * 1_000,
        DatePart::Second => t + n * MICROS_PER_SECOND,
        DatePart::Minute => t + n * 60 * MICROS_PER_SECOND,
        DatePart::Hour => t + n * 3_600 * MICROS_PER_SECOND,
        DatePart::Day | DatePart::DayOfYear | DatePart::Weekday => t + n * MICROS_PER_DAY,
        DatePart::Week => t + n * 7 * MICROS_PER_DAY,
        DatePart::Month => add_months(t, n),
        DatePart::Quarter => add_months(t, n * 3),
        DatePart::Year => add_months(t, n * 12),
    }
}

/// Day-of-week with T-SQL's default `@@DATEFIRST` of 7: Sunday = 1 …
/// Saturday = 7. Day 0 (1970-01-01) was a Thursday.
fn weekday_1_sunday(days: i64) -> i64 {
    (days + 4).rem_euclid(7) + 1
}

/// `DATEPART(part, t)`: extract one civil-calendar field. Weeks are
/// Sunday-started and counted from 1 at Jan 1, matching `DATEDIFF`'s
/// week-boundary convention above.
fn date_part(part: DatePart, t: i64) -> i64 {
    let days = floor_div(t, MICROS_PER_DAY);
    let tod = t - days * MICROS_PER_DAY;
    let (y, m, d) = civil_from_days(days);
    match part {
        DatePart::Year => y,
        DatePart::Quarter => i64::from((m - 1) / 3) + 1,
        DatePart::Month => i64::from(m),
        DatePart::Day => i64::from(d),
        DatePart::DayOfYear => days - days_from_civil(y, 1, 1) + 1,
        DatePart::Weekday => weekday_1_sunday(days),
        DatePart::Week => {
            let jan1 = days_from_civil(y, 1, 1);
            let jan1_dow0 = weekday_1_sunday(jan1) - 1; // 0 = Sunday
            (days - jan1 + jan1_dow0) / 7 + 1
        }
        DatePart::Hour => tod / (3_600 * MICROS_PER_SECOND),
        DatePart::Minute => tod / (60 * MICROS_PER_SECOND) % 60,
        DatePart::Second => tod / MICROS_PER_SECOND % 60,
        DatePart::Millisecond => tod / 1_000 % 1_000,
        DatePart::Microsecond => tod % MICROS_PER_SECOND,
    }
}

const MONTH_NAMES: [&str; 12] = [
    "January",
    "February",
    "March",
    "April",
    "May",
    "June",
    "July",
    "August",
    "September",
    "October",
    "November",
    "December",
];

const DAY_NAMES: [&str; 7] = [
    "Sunday",
    "Monday",
    "Tuesday",
    "Wednesday",
    "Thursday",
    "Friday",
    "Saturday",
];

/// `DATENAME(part, t)`: month and weekday get their English names,
/// every other datepart renders its `DATEPART` number — T-SQL semantics.
fn date_name(part: DatePart, t: i64) -> String {
    match part {
        DatePart::Month => {
            let idx = (date_part(DatePart::Month, t) - 1) as usize;
            MONTH_NAMES[idx].to_string()
        }
        DatePart::Weekday => {
            let idx = (date_part(DatePart::Weekday, t) - 1) as usize;
            DAY_NAMES[idx].to_string()
        }
        other => date_part(other, t).to_string(),
    }
}

/// SQL LIKE pattern matching: `%` matches any sequence, `_` any single
/// character. Case-sensitive, as Sybase's default sort order.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn inner(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => {
                // Try consuming 0..=len chars.
                (0..=s.len()).any(|k| inner(&s[k..], &p[1..]))
            }
            Some('_') => !s.is_empty() && inner(&s[1..], &p[1..]),
            Some(c) => s.first() == Some(c) && inner(&s[1..], &p[1..]),
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    inner(&s, &p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_basic() {
        assert!(like_match("hello", "hello"));
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%o"));
        assert!(like_match("hello", "%ell%"));
        assert!(like_match("hello", "h_llo"));
        assert!(!like_match("hello", "H%"));
        assert!(!like_match("hello", "h_lo"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("a%b", "a%b"));
    }

    #[test]
    fn like_multiple_percents() {
        assert!(like_match("abcdef", "a%c%f"));
        assert!(!like_match("abcdef", "a%c%g"));
        assert!(like_match("aaa", "%a%a%"));
    }

    // Reference micros (UTC): 1999-01-01 00:00 is the engine's default
    // clock epoch, which pins the civil-calendar conversion.
    const D1999_01_01: i64 = 915_148_800_000_000;
    const D1999_01_31: i64 = 917_740_800_000_000;
    const D1999_02_01: i64 = 917_827_200_000_000;
    const D1999_02_28: i64 = 920_160_000_000_000;
    const D1998_12_31: i64 = 915_062_400_000_000;
    const SAT_1999_01_02: i64 = 915_235_200_000_000;
    const SUN_1999_01_03: i64 = 915_321_600_000_000;
    const D2000_02_29: i64 = 951_782_400_000_000;
    const D2001_02_28: i64 = 983_318_400_000_000;

    #[test]
    fn civil_calendar_roundtrip() {
        assert_eq!(civil_from_days(D1999_01_01 / MICROS_PER_DAY), (1999, 1, 1));
        assert_eq!(days_from_civil(1999, 1, 1) * MICROS_PER_DAY, D1999_01_01);
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(-1), (1969, 12, 31));
        for day in [-1_000_000i64, -1, 0, 1, 10_592, 365_000] {
            let (y, m, d) = civil_from_days(day);
            assert_eq!(days_from_civil(y, m, d), day, "roundtrip day {day}");
        }
    }

    #[test]
    fn datediff_counts_boundary_crossings() {
        // 23:59 → next-day 00:01: one day boundary, although only 2min.
        let t2359 = D1999_01_01 + (23 * 3600 + 59 * 60) * MICROS_PER_SECOND;
        let t0001 = D1999_01_01 + MICROS_PER_DAY + 60 * MICROS_PER_SECOND;
        assert_eq!(date_diff(DatePart::Day, t2359, t0001), 1);
        assert_eq!(date_diff(DatePart::Hour, t2359, t0001), 1);
        assert_eq!(date_diff(DatePart::Minute, t2359, t0001), 2);
        assert_eq!(date_diff(DatePart::Second, t2359, t0001), 120);
        // Jan 31 → Feb 1: one month boundary, one day.
        assert_eq!(date_diff(DatePart::Month, D1999_01_31, D1999_02_01), 1);
        assert_eq!(date_diff(DatePart::Day, D1999_01_31, D1999_02_01), 1);
        assert_eq!(date_diff(DatePart::Quarter, D1999_01_31, D1999_02_01), 0);
        // Dec 31 → Jan 1: year, quarter and month all cross.
        assert_eq!(date_diff(DatePart::Year, D1998_12_31, D1999_01_01), 1);
        assert_eq!(date_diff(DatePart::Quarter, D1998_12_31, D1999_01_01), 1);
        assert_eq!(date_diff(DatePart::Month, D1998_12_31, D1999_01_01), 1);
        // Saturday → Sunday crosses a (Sunday-start) week boundary.
        assert_eq!(date_diff(DatePart::Week, SAT_1999_01_02, SUN_1999_01_03), 1);
        assert_eq!(date_diff(DatePart::Week, SUN_1999_01_03, SUN_1999_01_03), 0);
        // Signed: reversed operands negate.
        assert_eq!(date_diff(DatePart::Day, D1999_02_01, D1999_01_31), -1);
        assert_eq!(date_diff(DatePart::Microsecond, 5, 12), 7);
        assert_eq!(date_diff(DatePart::Millisecond, 0, 2_500), 2);
    }

    #[test]
    fn dateadd_clamps_to_month_end() {
        assert_eq!(date_add(DatePart::Month, 1, D1999_01_31), D1999_02_28);
        assert_eq!(date_add(DatePart::Year, 1, D2000_02_29), D2001_02_28);
        assert_eq!(date_add(DatePart::Month, -11, D1999_12_31()), D1999_01_31);
        assert_eq!(date_add(DatePart::Day, -1, D1999_01_01), D1998_12_31);
        assert_eq!(
            date_add(DatePart::Week, 2, D1999_01_01),
            D1999_01_01 + 14 * MICROS_PER_DAY
        );
        // Time-of-day survives calendar moves.
        let t = D1999_01_31 + 6 * 3600 * MICROS_PER_SECOND;
        assert_eq!(
            date_add(DatePart::Month, 1, t),
            D1999_02_28 + 6 * 3600 * MICROS_PER_SECOND
        );
        assert_eq!(
            date_add(DatePart::Quarter, 1, D1999_01_31),
            days_from_civil(1999, 4, 30) * MICROS_PER_DAY
        );
    }

    #[allow(non_snake_case)]
    fn D1999_12_31() -> i64 {
        days_from_civil(1999, 12, 31) * MICROS_PER_DAY
    }

    #[test]
    fn date_part_extracts_civil_fields() {
        // 1999-01-01 was a Friday (Sunday = 1 ⇒ weekday 6, week 1).
        let noonish = D1999_01_01 + (13 * 3600 + 7 * 60 + 9) * MICROS_PER_SECOND + 123_456;
        assert_eq!(date_part(DatePart::Year, noonish), 1999);
        assert_eq!(date_part(DatePart::Quarter, noonish), 1);
        assert_eq!(date_part(DatePart::Month, noonish), 1);
        assert_eq!(date_part(DatePart::Day, noonish), 1);
        assert_eq!(date_part(DatePart::DayOfYear, noonish), 1);
        assert_eq!(date_part(DatePart::Weekday, noonish), 6);
        assert_eq!(date_part(DatePart::Week, noonish), 1);
        assert_eq!(date_part(DatePart::Hour, noonish), 13);
        assert_eq!(date_part(DatePart::Minute, noonish), 7);
        assert_eq!(date_part(DatePart::Second, noonish), 9);
        assert_eq!(date_part(DatePart::Millisecond, noonish), 123);
        assert_eq!(date_part(DatePart::Microsecond, noonish), 123_456);
        // Sunday 1999-01-03 starts week 2; Saturday the 2nd closes week 1.
        assert_eq!(date_part(DatePart::Weekday, SAT_1999_01_02), 7);
        assert_eq!(date_part(DatePart::Week, SAT_1999_01_02), 1);
        assert_eq!(date_part(DatePart::Weekday, SUN_1999_01_03), 1);
        assert_eq!(date_part(DatePart::Week, SUN_1999_01_03), 2);
        // Day-of-year counts across month boundaries (and leap years).
        assert_eq!(date_part(DatePart::DayOfYear, D1999_02_28), 59);
        assert_eq!(date_part(DatePart::DayOfYear, D2000_02_29), 60);
        assert_eq!(date_part(DatePart::DayOfYear, D1998_12_31), 365);
        // Pre-epoch dates stay on the civil calendar.
        assert_eq!(date_part(DatePart::Year, -MICROS_PER_DAY), 1969);
        assert_eq!(date_part(DatePart::Month, -MICROS_PER_DAY), 12);
        assert_eq!(date_part(DatePart::Day, -MICROS_PER_DAY), 31);
    }

    #[test]
    fn date_name_spells_months_and_weekdays() {
        assert_eq!(date_name(DatePart::Month, D1999_01_01), "January");
        assert_eq!(date_name(DatePart::Month, D1999_02_28), "February");
        assert_eq!(date_name(DatePart::Month, D1999_12_31()), "December");
        assert_eq!(date_name(DatePart::Weekday, D1999_01_01), "Friday");
        assert_eq!(date_name(DatePart::Weekday, SUN_1999_01_03), "Sunday");
        // Every other datepart renders its number, T-SQL style.
        assert_eq!(date_name(DatePart::Year, D1999_01_01), "1999");
        assert_eq!(date_name(DatePart::Day, D1999_02_28), "28");
    }

    #[test]
    fn datepart_abbreviations_resolve() {
        for (names, part) in [
            (&["year", "yy", "yyyy"][..], DatePart::Year),
            (&["quarter", "qq", "q"][..], DatePart::Quarter),
            (&["month", "mm", "m"][..], DatePart::Month),
            (&["week", "wk", "ww"][..], DatePart::Week),
            (&["day", "dd", "d"][..], DatePart::Day),
            (&["dayofyear", "dy"][..], DatePart::DayOfYear),
            (&["weekday", "dw"][..], DatePart::Weekday),
            (&["hour", "hh"][..], DatePart::Hour),
            (&["minute", "mi", "n"][..], DatePart::Minute),
            (&["second", "ss", "s"][..], DatePart::Second),
            (&["millisecond", "ms"][..], DatePart::Millisecond),
            (&["microsecond", "mcs", "us"][..], DatePart::Microsecond),
        ] {
            for n in names {
                assert_eq!(datepart_from_name(n), Some(part), "{n}");
                assert_eq!(
                    datepart_from_name(&n.to_uppercase()),
                    Some(part),
                    "{n} uppercase"
                );
            }
        }
        assert_eq!(datepart_from_name("fortnight"), None);
    }
}
