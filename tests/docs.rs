//! The prose docs name only code that exists: every backticked
//! `sp-x::name`, `sp_x::name`, `shift-core::name` or `shift_core::name` in
//! the docs below resolves, in that crate, to a module file, a `pub` item
//! or a `pub use` called `name`.

use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 4] = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "results/README.md"];

/// Item kinds a `pub` declaration can name.
const KINDS: [&str; 8] = ["fn", "struct", "enum", "trait", "type", "const", "static", "mod"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Each workspace crate under `crates/`: its package name with `-` read
/// as `_`, and its directory.
fn crates() -> Vec<(String, PathBuf)> {
    let mut out = Vec::new();
    for entry in fs::read_dir(root().join("crates")).expect("crates/ is readable") {
        let dir = entry.expect("directory entry").path();
        let manifest = dir.join("Cargo.toml");
        if !manifest.is_file() {
            continue;
        }
        let name = read(&manifest)
            .lines()
            .find_map(|l| l.strip_prefix("name = \"")?.strip_suffix('"').map(str::to_owned))
            .unwrap_or_else(|| panic!("{} has no package name", manifest.display()));
        out.push((name.replace('-', "_"), dir));
    }
    out
}

/// The text of every `.rs` file under `dir`.
fn sources(dir: &Path, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).expect("source dir is readable") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(read(&path));
        }
    }
}

/// True if a line of `src` declares `pub <kind> name`.
fn declares(src: &str, name: &str) -> bool {
    src.lines().filter_map(|l| l.trim_start().strip_prefix("pub ")).any(|rest| {
        KINDS.iter().any(|kind| {
            rest.strip_prefix(kind)
                .and_then(|r| r.strip_prefix(' '))
                .is_some_and(|r| r.split(|c| !is_ident(c)).next() == Some(name))
        })
    })
}

/// True if a `pub use` statement in `src` names `name`.
fn reexports(src: &str, name: &str) -> bool {
    src.match_indices("pub use ").any(|(at, _)| {
        let stmt = &src[at..];
        let stmt = &stmt[..stmt.find(';').unwrap_or(stmt.len())];
        stmt.split(|c| !is_ident(c)).any(|word| word == name)
    })
}

/// True if the crate at `dir` has a module, `pub` item or `pub use` called
/// `name`.
fn resolves(dir: &Path, name: &str) -> bool {
    let src = dir.join("src");
    if src.join(format!("{name}.rs")).is_file() || src.join(name).join("mod.rs").is_file() {
        return true;
    }
    let mut texts = Vec::new();
    sources(&src, &mut texts);
    texts.iter().any(|t| declares(t, name) || reexports(t, name))
}

/// The inline code spans of a Markdown document, fenced blocks left out.
/// Spans are paired within a paragraph, so one stray backtick cannot flip
/// the rest of the file.
fn code_spans(doc: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split("\n\n")
        .flat_map(|para| para.split('`').skip(1).step_by(2).map(str::to_owned))
        .collect()
}

/// Every `(crate, name)` a code span names as `crate::name` or
/// `crate::{a, b}`, for the crate prefixes `sp-`, `sp_`, `shift-core` and
/// `shift_core`.
fn paths(span: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (at, _) in span.match_indices("::") {
        let head = &span[..at];
        let start = head.rfind(|c: char| !is_ident(c) && c != '-').map_or(0, |i| i + 1);
        let krate = &head[start..];
        let crate_like =
            ["sp-", "sp_", "shift-core", "shift_core"].iter().any(|p| krate.starts_with(p));
        let follows_path = span[..start].ends_with("::");
        if !crate_like || follows_path {
            continue;
        }
        let tail = &span[at + 2..];
        let names = match tail.strip_prefix('{') {
            Some(list) => &list[..list.find('}').unwrap_or(list.len())],
            None => &tail[..tail.find(|c| !is_ident(c)).unwrap_or(tail.len())],
        };
        for name in names.split(|c| !is_ident(c)).filter(|n| !n.is_empty()) {
            out.push((krate.replace('-', "_"), name.to_owned()));
        }
    }
    out
}

#[test]
fn docs_name_only_code_that_exists() {
    let crates = crates();
    let mut missing = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        for span in code_spans(&read(&root().join(doc))) {
            for (krate, name) in paths(&span) {
                checked += 1;
                let found = crates
                    .iter()
                    .find(|(n, _)| *n == krate)
                    .is_some_and(|(_, dir)| resolves(dir, &name));
                if !found {
                    missing.push(format!("{doc}: `{span}` ({krate}::{name})"));
                }
            }
        }
    }
    assert!(checked > 0, "no crate paths found in {DOCS:?}");
    assert!(missing.is_empty(), "docs name code that does not exist:\n{}", missing.join("\n"));
}
