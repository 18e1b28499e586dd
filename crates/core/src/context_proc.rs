//! Parameter-context processing (§5.6, Figure 17).
//!
//! The four steps the paper lists:
//! 1. native triggers put affected rows into the shadow tables (done in
//!    generated trigger SQL),
//! 2. the parameter list is retrieved from the LED (the firing's
//!    [`led::Occurrence`] params),
//! 3. tuples are inserted into `sysContext` — this module generates that
//!    SQL,
//! 4. the action procedure joins `sysContext` with the shadow tables to
//!    materialize the context tmp tables (generated in `codegen`).
//!
//! The Action Handler runs steps 3 and 4 as one server batch (see
//! `action.rs`), so no other firing can rewrite the rows between them.

use led::{Occurrence, ParameterContext};

use crate::codegen::sql_quote;

/// SQL that replaces the `sysContext` rows for every shadow table named in
/// the occurrence's parameters. Old tuples with the same `(tableName,
/// context)` are deleted before the new ones are inserted, exactly as §5.6
/// prescribes.
pub fn sys_context_sql(occurrence: &Occurrence, context: ParameterContext) -> String {
    let mut tables: Vec<&str> = Vec::new();
    let mut pairs: Vec<(&str, i64)> = Vec::new();
    for p in &occurrence.params {
        if let (Some(table), Some(vno)) = (p.table.as_deref(), p.vno) {
            if !tables.contains(&table) {
                tables.push(table);
            }
            if !pairs.contains(&(table, vno)) {
                pairs.push((table, vno));
            }
        }
    }
    let mut sql = String::new();
    for t in &tables {
        sql.push_str(&format!(
            "delete sysContext where tableName = {} and context = {}\n",
            sql_quote(t),
            sql_quote(context.as_str()),
        ));
    }
    for (t, vno) in &pairs {
        sql.push_str(&format!(
            "insert sysContext values ({}, {}, {vno})\n",
            sql_quote(t),
            sql_quote(context.as_str()),
        ));
    }
    sql
}

#[cfg(test)]
mod tests {
    use super::*;
    use led::Param;

    #[test]
    fn single_param() {
        let occ = Occurrence::point(
            "addStk",
            5,
            vec![Param::db("addStk", "db.u.addStk_inserted", 3, 5)],
        );
        let sql = sys_context_sql(&occ, ParameterContext::Recent);
        assert_eq!(
            sql,
            "delete sysContext where tableName = 'db.u.addStk_inserted' and context = 'RECENT'\n\
             insert sysContext values ('db.u.addStk_inserted', 'RECENT', 3)\n"
        );
        relsql::parser::parse_script(&sql).unwrap();
    }

    #[test]
    fn multiple_params_same_table_deleted_once() {
        // Cumulative occurrence: several vNos of the same shadow table.
        let occ = Occurrence::point(
            "e",
            9,
            vec![
                Param::db("e", "s1", 1, 1),
                Param::db("e", "s1", 2, 2),
                Param::db("e", "s2", 7, 3),
            ],
        );
        let sql = sys_context_sql(&occ, ParameterContext::Cumulative);
        assert_eq!(sql.matches("delete sysContext").count(), 2);
        assert_eq!(sql.matches("insert sysContext").count(), 3);
        assert!(sql.contains("('s1', 'CUMULATIVE', 1)"));
        assert!(sql.contains("('s1', 'CUMULATIVE', 2)"));
        assert!(sql.contains("('s2', 'CUMULATIVE', 7)"));
    }

    #[test]
    fn duplicate_pairs_inserted_once() {
        let occ = Occurrence::point(
            "e",
            9,
            vec![Param::db("e", "s1", 1, 1), Param::db("e", "s1", 1, 2)],
        );
        let sql = sys_context_sql(&occ, ParameterContext::Recent);
        assert_eq!(sql.matches("insert sysContext").count(), 1);
    }

    #[test]
    fn non_db_params_ignored() {
        let occ = Occurrence::point("e", 9, vec![Param::marker("e", 1), Param::time("e", 2)]);
        assert!(sys_context_sql(&occ, ParameterContext::Recent).is_empty());
    }
}
