//! The four workloads: schema and rules, the seeded statement streams, and
//! the model each stream keeps of what the database must hold afterwards.
//!
//! A stream is a pure function of `(workload, seed, client)`: both sides of a
//! later A/B run byte-identical statements, and every count that does not
//! depend on how the two clients interleave repeats exactly.

use relsql::Value;

use crate::rng::SplitMix64;

/// Closed-loop client threads (and connections). The host has 2 CPUs and a
/// database's callers each wait for their reply.
pub const CLIENTS: usize = 2;

/// Session database every client binds in `HELLO`.
pub const DB: &str = "bench";

pub fn user(k: usize) -> String {
    format!("u{k}")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PassiveMix,
    Fig4Composite,
    Fig4Durable,
    ScanReads,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PassiveMix,
        Workload::Fig4Composite,
        Workload::Fig4Durable,
        Workload::ScanReads,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PassiveMix => "passive_mix",
            Workload::Fig4Composite => "fig4_composite",
            Workload::Fig4Durable => "fig4_durable",
            Workload::ScanReads => "scan_reads",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_fig4(self) -> bool {
        matches!(self, Workload::Fig4Composite | Workload::Fig4Durable)
    }

    /// Timed operations per client per second of requested run length.
    /// Calibrated once on the 2-CPU container at the commit that added the
    /// benchmark so that the timed window lasts about `--seconds`, then
    /// frozen: a faster or slower build does the same work in less or more
    /// time, it never does different work.
    pub fn ops_per_client_second(self) -> u64 {
        match self {
            Workload::PassiveMix => 170,
            Workload::Fig4Composite => 375,
            Workload::Fig4Durable => 245,
            Workload::ScanReads => 162,
        }
    }

    fn lane(self, k: usize) -> u64 {
        (self as u64) * CLIENTS as u64 + k as u64
    }
}

/// How much data and work one run uses.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Timed operations per client.
    pub ops: u64,
    /// Untimed operations per client before them (still checked).
    pub warmup: u64,
    pub accounts: u64,
    pub ticks: u64,
    /// Operations of client 0 applied before the simulated crash.
    pub recovery_ops: u64,
    /// Operations of client 0 replayed through each layer in a traced run.
    pub replay_ops: u64,
}

impl Scale {
    pub fn full(workload: Workload, seconds: u64) -> Scale {
        let ops = workload.ops_per_client_second() * seconds;
        Scale {
            ops,
            warmup: (ops / 10).min(2_000),
            accounts: 50_000,
            ticks: 100_000,
            recovery_ops: 2_000,
            replay_ops: 1_000,
        }
    }

    /// The tier-1 self-test: every phase and oracle in a few seconds.
    pub fn smoke() -> Scale {
        Scale {
            ops: 200,
            warmup: 20,
            accounts: 2_000,
            ticks: 5_000,
            recovery_ops: 200,
            replay_ops: 100,
        }
    }

    /// A traced pass does a quarter of the work: it exists to attribute
    /// time, and its spans are kept in memory.
    pub fn quarter(self) -> Scale {
        Scale {
            ops: (self.ops / 4).max(1),
            warmup: (self.warmup / 4).max(1),
            ..self
        }
    }
}

pub const SYMBOLS: u64 = 100;

/// Distinct column aliases of the ad-hoc selects: four times the server's
/// 1,024-entry statement-plan cache, so they keep missing and evicting.
pub const ADHOC_SHAPES: u64 = 4_096;

fn symbol(rng: &mut SplitMix64) -> String {
    format!("S{:02}", rng.below(SYMBOLS))
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tick {
    pub symbol: String,
    pub price: i64,
    pub qty: i64,
    pub ts: i64,
}

pub fn ticks(seed: u64, n: u64) -> Vec<Tick> {
    let mut rng = SplitMix64::for_lane(seed, 0x71C5);
    (0..n as i64)
        .map(|ts| Tick {
            symbol: symbol(&mut rng),
            price: rng.below(10_000) as i64,
            qty: rng.below(1_000) as i64,
            ts,
        })
        .collect()
}

pub fn initial_balance(id: u64) -> i64 {
    1_000 + (id % 97) as i64
}

/// One set-up statement and the identity that runs it.
pub struct SetupStmt {
    pub client: usize,
    pub sql: String,
}

fn multi_insert(table: &str, rows: impl Iterator<Item = String>) -> Vec<String> {
    let rows: Vec<String> = rows.collect();
    rows.chunks(500)
        .map(|chunk| format!("insert {table} values {}", chunk.join(", ")))
        .collect()
}

/// Schema, indexes, rule definitions and preload, in execution order.
pub fn setup(workload: Workload, seed: u64, scale: &Scale) -> Vec<SetupStmt> {
    let mut out = Vec::new();
    let mut push = |client: usize, sql: String| out.push(SetupStmt { client, sql });
    match workload {
        Workload::PassiveMix => {
            push(
                0,
                "create table accounts (id int, balance int, note varchar(16))".into(),
            );
            push(
                0,
                "create unique hash index accounts_id on accounts (id)".into(),
            );
            let rows =
                (0..scale.accounts).map(|id| format!("({id}, {}, 'seed')", initial_balance(id)));
            for sql in multi_insert("accounts", rows) {
                push(0, sql);
            }
        }
        Workload::Fig4Composite | Workload::Fig4Durable => {
            for k in 0..CLIENTS {
                for sql in [
                    format!("create table quotes_{k} (symbol varchar(8), price int)"),
                    format!("create hash index quotes_{k}_symbol on quotes_{k} (symbol)"),
                    format!("create table trades_{k} (symbol varchar(8), qty int, price int)"),
                    format!("create table risk_log_{k} (symbol varchar(8))"),
                    format!("create table audit_{k} (n int)"),
                ] {
                    push(k, sql);
                }
                let rows = (0..SYMBOLS).map(|j| format!("('S{j:02}', {})", 100 + j));
                for sql in multi_insert(&format!("quotes_{k}"), rows) {
                    push(k, sql);
                }
                for sql in rules(k) {
                    push(k, sql);
                }
            }
        }
        Workload::ScanReads => {
            push(
                0,
                "create table ticks (symbol varchar(8), price int, qty int, ts int)".into(),
            );
            push(0, "create hash index ticks_symbol on ticks (symbol)".into());
            push(0, "create index ticks_ts on ticks (ts)".into());
            let rows = ticks(seed, scale.ticks)
                .into_iter()
                .map(|t| format!("('{}', {}, {}, {})", t.symbol, t.price, t.qty, t.ts));
            for sql in multi_insert("ticks", rows) {
                push(0, sql);
            }
        }
    }
    out
}

/// The Snoop expressions of client `k`'s two composite events.
pub fn composite_exprs(k: usize) -> [String; 2] {
    [
        format!("quoteMove_{k} ; tradeDone_{k}"),
        format!("quoteMove_{k} ^ tradeDone_{k}"),
    ]
}

/// Client `k`'s four rules: two primitive events with native actions, a
/// CHRONICLE sequence (buffers initiators) and a RECENT conjunction (does
/// not), each with an action procedure that runs back inside the server.
pub fn rules(k: usize) -> Vec<String> {
    let [seq, and] = composite_exprs(k);
    vec![
        format!(
            "create trigger t_quoteMove_{k} on quotes_{k} for update event quoteMove_{k} \
             as print 'quote moved'"
        ),
        format!(
            "create trigger t_tradeDone_{k} on trades_{k} for insert event tradeDone_{k} \
             as insert audit_{k} values (1)"
        ),
        format!(
            "create trigger t_reactive_{k} event reactive_{k} = {seq} CHRONICLE \
             as insert risk_log_{k} select symbol from trades_{k}.inserted"
        ),
        format!(
            "create trigger t_both_{k} event both_{k} = {and} RECENT \
             as insert risk_log_{k} values ('both')"
        ),
    ]
}

/// What the two composites must have fired, from `docs/SEMANTICS.md`:
/// SEQ in CHRONICLE buffers every initiator and a terminator consumes the
/// oldest; AND in RECENT keeps the latest occurrence of each side for good,
/// so once both sides have occurred every arrival pairs with the other side.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FiringModel {
    open_quotes: u64,
    seen_quote: bool,
    seen_trade: bool,
    /// Statements that raised a primitive event.
    pub notifications: u64,
    /// Native `tradeDone` actions: one `audit` row each.
    pub audit: u64,
    /// Composite firings: one action and one `risk_log` row each.
    pub risk_log: u64,
}

impl FiringModel {
    pub fn quote_update(&mut self) {
        self.notifications += 1;
        self.open_quotes += 1;
        self.risk_log += u64::from(self.seen_trade);
        self.seen_quote = true;
    }

    pub fn trade_insert(&mut self) {
        self.notifications += 1;
        self.audit += 1;
        if self.open_quotes > 0 {
            self.open_quotes -= 1;
            self.risk_log += 1;
        }
        self.risk_log += u64::from(self.seen_quote);
        self.seen_trade = true;
    }

    /// Initiators still buffered by the CHRONICLE sequence.
    pub fn open_quotes(&self) -> u64 {
        self.open_quotes
    }
}

/// Which primitive event a Figure 4 statement raises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Raised {
    Quote,
    Trade,
}

/// A `scan_reads` query in a form the oracle can evaluate in plain Rust.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanQuery {
    CountPrice {
        lo: i64,
        hi: i64,
    },
    SumQtyPrice {
        lo: i64,
        hi: i64,
    },
    GroupBelow {
        hi: i64,
    },
    /// 1% of the table through the ordered index on `ts`.
    TsRange {
        from: i64,
        to: i64,
    },
}

impl ScanQuery {
    fn sql(&self) -> String {
        match self {
            ScanQuery::CountPrice { lo, hi } => {
                format!("select count(*) from ticks where price > {lo} and price < {hi}")
            }
            ScanQuery::SumQtyPrice { lo, hi } => {
                format!("select sum(qty) from ticks where price > {lo} and price < {hi}")
            }
            ScanQuery::GroupBelow { hi } => format!(
                "select symbol, count(*), sum(qty) from ticks where price < {hi} group by symbol"
            ),
            ScanQuery::TsRange { from, to } => {
                format!("select count(*), sum(qty) from ticks where ts >= {from} and ts < {to}")
            }
        }
    }

    /// The rows the query must return, sorted (a `group by` fixes no order).
    /// Integer sums only, so the order of addition cannot matter.
    pub fn reference(&self, ticks: &[Tick]) -> Vec<Vec<Value>> {
        let agg = |keep: &dyn Fn(&Tick) -> bool| {
            let kept = ticks.iter().filter(|t| keep(t));
            let (count, sum) = kept.fold((0i64, 0i64), |(c, s), t| (c + 1, s + t.qty));
            let sum = if count == 0 {
                Value::Null
            } else {
                Value::Int(sum)
            };
            (Value::Int(count), sum)
        };
        match *self {
            ScanQuery::CountPrice { lo, hi } => {
                vec![vec![agg(&|t| t.price > lo && t.price < hi).0]]
            }
            ScanQuery::SumQtyPrice { lo, hi } => {
                vec![vec![agg(&|t| t.price > lo && t.price < hi).1]]
            }
            ScanQuery::TsRange { from, to } => {
                let (count, sum) = agg(&|t| t.ts >= from && t.ts < to);
                vec![vec![count, sum]]
            }
            ScanQuery::GroupBelow { hi } => {
                let mut groups = std::collections::BTreeMap::<&str, (i64, i64)>::new();
                for t in ticks.iter().filter(|t| t.price < hi) {
                    let g = groups.entry(&t.symbol).or_default();
                    *g = (g.0 + 1, g.1 + t.qty);
                }
                groups
                    .into_iter()
                    .map(|(s, (c, q))| vec![Value::Str(s.into()), Value::Int(c), Value::Int(q)])
                    .collect()
            }
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    pub sql: String,
    /// Result rows the wire must report, where the statement fixes them.
    pub rows: Option<u64>,
    pub raised: Option<Raised>,
    pub scan: Option<ScanQuery>,
}

impl Op {
    fn plain(sql: String, rows: Option<u64>) -> Op {
        Op {
            sql,
            rows,
            raised: None,
            scan: None,
        }
    }
}

/// What one client's acknowledged statements must have left behind.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientModel {
    pub inserted_rows: u64,
    pub balance_delta: i64,
    pub firing: FiringModel,
}

pub struct Stream {
    workload: Workload,
    k: usize,
    rng: SplitMix64,
    /// What is left of the current block of 100 rolls.
    block: Vec<u64>,
    scale: Scale,
    pub model: ClientModel,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64, k: usize, scale: &Scale) -> Stream {
        Stream {
            workload,
            k,
            rng: SplitMix64::for_lane(seed, workload.lane(k)),
            block: Vec::new(),
            scale: *scale,
            model: ClientModel::default(),
        }
    }

    pub fn next_op(&mut self) -> Op {
        match self.workload {
            Workload::PassiveMix => self.passive_op(),
            Workload::Fig4Composite | Workload::Fig4Durable => self.fig4_op(),
            Workload::ScanReads => self.scan_op(),
        }
    }

    /// The next of `0..100`, in an order shuffled anew for every block of 100
    /// operations. Each block therefore holds exactly the stated share of
    /// each statement kind: two seeds differ in order and keys, not in how
    /// much of each kind of work they ask for.
    fn roll(&mut self) -> u64 {
        if self.block.is_empty() {
            self.block = (0..100).collect();
            for i in (1..self.block.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.block.swap(i, j);
            }
        }
        self.block.pop().expect("just refilled")
    }

    fn passive_op(&mut self) -> Op {
        let k = self.k as u64;
        let roll = self.roll();
        let id = self.rng.below(self.scale.accounts);
        if roll < 65 {
            Op::plain(
                format!("select balance from accounts where id = {id}"),
                Some(1),
            )
        } else if roll < 85 {
            // Each client updates its own half of the preloaded ids, so the
            // final balances do not depend on the interleaving.
            let id = id - id % CLIENTS as u64 + k;
            let delta = self.rng.below(200) as i64 - 100;
            self.model.balance_delta += delta;
            let sql = format!("update accounts set balance = balance + {delta} where id = {id}");
            Op::plain(sql, None)
        } else if roll < 95 {
            let id = self.scale.accounts + self.model.inserted_rows * CLIENTS as u64 + k;
            let balance = self.rng.below(5_000) as i64;
            self.model.inserted_rows += 1;
            self.model.balance_delta += balance;
            Op::plain(
                format!("insert accounts values ({id}, {balance}, 'new')"),
                None,
            )
        } else {
            let shape = self.rng.below(ADHOC_SHAPES);
            let sql = format!("select balance as b{shape} from accounts where id = {id}");
            Op::plain(sql, Some(1))
        }
    }

    fn fig4_op(&mut self) -> Op {
        let k = self.k;
        let roll = self.roll();
        let symbol = symbol(&mut self.rng);
        let price = 50 + self.rng.below(1_000);
        if roll < 50 {
            self.model.firing.quote_update();
            let sql = format!("update quotes_{k} set price = {price} where symbol = '{symbol}'");
            Op {
                raised: Some(Raised::Quote),
                ..Op::plain(sql, None)
            }
        } else if roll < 95 {
            self.model.firing.trade_insert();
            let qty = 1 + self.rng.below(500);
            let sql = format!("insert trades_{k} values ('{symbol}', {qty}, {price})");
            Op {
                raised: Some(Raised::Trade),
                ..Op::plain(sql, None)
            }
        } else {
            Op::plain(
                format!("select price from quotes_{k} where symbol = '{symbol}'"),
                Some(1),
            )
        }
    }

    fn scan_op(&mut self) -> Op {
        let lo = self.rng.below(9_000) as i64;
        let hi = lo + 1 + self.rng.below(1_000) as i64;
        let query = match self.roll() % 4 {
            0 => ScanQuery::CountPrice { lo, hi },
            1 => ScanQuery::SumQtyPrice { lo, hi },
            2 => ScanQuery::GroupBelow { hi },
            _ => {
                let width = (self.scale.ticks / 100).max(1);
                let from = self.rng.below(self.scale.ticks - width + 1) as i64;
                ScanQuery::TsRange {
                    from,
                    to: from + width as i64,
                }
            }
        };
        let rows = (!matches!(query, ScanQuery::GroupBelow { .. })).then_some(1);
        Op {
            scan: Some(query),
            ..Op::plain(query.sql(), rows)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_ops(workload: Workload, seed: u64, k: usize, n: usize) -> Vec<Op> {
        let mut s = Stream::new(workload, seed, k, &Scale::smoke());
        (0..n).map(|_| s.next_op()).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in Workload::ALL {
            assert_eq!(
                first_ops(w, 7, 0, 300),
                first_ops(w, 7, 0, 300),
                "{}",
                w.name()
            );
            assert_ne!(
                first_ops(w, 7, 0, 300),
                first_ops(w, 8, 0, 300),
                "{}",
                w.name()
            );
            assert_ne!(
                first_ops(w, 7, 0, 300),
                first_ops(w, 7, 1, 300),
                "{}",
                w.name()
            );
        }
        assert_eq!(ticks(3, 500), ticks(3, 500));
        assert_ne!(ticks(3, 500), ticks(4, 500));
    }

    #[test]
    fn chronicle_sequence_consumes_oldest_initiator() {
        let mut m = FiringModel::default();
        m.trade_insert(); // no initiator buffered, conjunction has no quote yet
        assert_eq!((m.risk_log, m.audit), (0, 1));
        m.quote_update(); // buffered; conjunction pairs with the stored trade
        m.quote_update();
        assert_eq!((m.risk_log, m.open_quotes()), (2, 2));
        m.trade_insert(); // sequence pairs the oldest quote, conjunction fires
        assert_eq!((m.risk_log, m.open_quotes()), (4, 1));
        m.trade_insert();
        m.trade_insert(); // buffer empty: only the conjunction fires
        assert_eq!((m.risk_log, m.open_quotes()), (7, 0));
        assert_eq!((m.notifications, m.audit), (6, 4));
    }

    #[test]
    fn recent_conjunction_needs_both_sides_once() {
        let mut m = FiringModel::default();
        m.quote_update();
        m.quote_update();
        assert_eq!(m.risk_log, 0, "two quotes and no trade fire nothing");
        m.trade_insert();
        assert_eq!(m.risk_log, 2, "sequence + conjunction");
        m.quote_update();
        assert_eq!(m.risk_log, 3, "RECENT does not consume the stored trade");
    }
}
