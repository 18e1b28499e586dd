//! Guardrails: one way to write a table.
//!
//! Every row change happens inside a scheduled batch, through relsql's
//! index-maintaining `TableWrite`, and the agent reaches the server only
//! through SQL (its watermark included). These checks keep the raw-rows
//! escape hatch from coming back: `Table::rows_mut` with its
//! republishing `RowsWriteGuard`, `SqlServer::with_table_rows_mut`, and the
//! index `dirty` flag whose lazy rebuild only that hatch needed.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The escape hatch's names; no crate may define or use them.
const HATCH: [&str; 3] = ["rows_mut", "RowsWriteGuard", "with_table_rows_mut"];

/// Every `.rs` file under `dir`, with its text.
fn sources(dir: &Path) -> Vec<(PathBuf, String)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir).expect("source directory is readable") {
            let path = entry.expect("directory entry is readable").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = fs::read_to_string(&path).expect("source file is readable");
                out.push((path, text));
            }
        }
    }
    assert!(!out.is_empty(), "no sources under {}", dir.display());
    out
}

/// The identifiers of a source text, in order.
fn identifiers(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// `(file, name)` for each of `names` that some file under `dir` mentions.
fn mentions(dir: &Path, names: &[&str]) -> BTreeSet<(PathBuf, String)> {
    let mut found = BTreeSet::new();
    for (path, text) in sources(dir) {
        for word in identifiers(&text).filter(|w| names.contains(w)) {
            found.insert((path.clone(), word.to_string()));
        }
    }
    found
}

fn crate_src(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(name)
        .join("src")
}

#[test]
fn relsql_has_no_raw_row_writer_and_no_lazy_index_rebuild() {
    let src = crate_src("relsql");
    assert_eq!(mentions(&src, &HATCH), BTreeSet::new());
    // The index set is never stale, so nothing marks it dirty.
    for file in ["table.rs", "index.rs"] {
        let text = fs::read_to_string(src.join(file)).expect("source file is readable");
        let flag: Vec<&str> = identifiers(&text)
            .filter(|w| *w == "dirty" || *w == "IndexState")
            .collect();
        assert_eq!(flag, Vec::<&str>::new(), "{file}");
    }
}

#[test]
fn core_never_names_the_raw_row_writer() {
    assert_eq!(mentions(&crate_src("core"), &HATCH), BTreeSet::new());
}
