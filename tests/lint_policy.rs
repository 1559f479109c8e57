//! The lint policy of docs/ANALYSIS.md where clippy cannot see it.
//!
//! Clippy enforces rules PL001–PL003 and PL005–PL007, but only as
//! configured: a deleted `#![deny]` or a crate that stops inheriting the
//! workspace lints would pass CI silently, so
//! [`the_lint_policy_stays_in_place`] pins the configuration. PL004 has no
//! clippy lint, so [`relaxed_audit`] is the rule itself.

use std::path::{Path, PathBuf};

const MARKER: &str = "// ORDERING:";
const UNARGUED: &str = "`Relaxed` without an `// ORDERING: <argument>` on or above it";
const EMPTY: &str = "`// ORDERING:` states no argument";
const STALE: &str = "`// ORDERING:` covers no `Relaxed`";

/// The serving tier's module roots (PL001): a lint level set at the top of
/// a module reaches all of its submodules.
const SERVING_ROOTS: [&str; 5] = [
    "crates/hdbscan/src/serve.rs",
    "crates/hdbscan/src/daemon.rs",
    "crates/mst/src/error.rs",
    "crates/mst/src/index.rs",
    "src/bin/pandorad.rs",
];

const SERVING_DENY: &str = "#![deny(clippy::panic, clippy::unreachable, clippy::unimplemented, \
                            clippy::unwrap_used, clippy::expect_used)]";

/// The workspace clippy lints that must stay at `deny`.
const WORKSPACE_DENY: [&str; 6] = [
    "undocumented_unsafe_blocks",
    "missing_safety_doc",
    "dbg_macro",
    "todo",
    "print_stderr",
    "allow_attributes_without_reason",
];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The first-party package directories: `crates/*` and the root.
fn package_dirs() -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(root().join("crates"))
        .expect("crates/")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.join("Cargo.toml").is_file())
        .collect();
    dirs.push(root());
    dirs
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The `key = value` lines of one `[section]` of a TOML file.
fn toml_section<'a>(text: &'a str, section: &str) -> Vec<(&'a str, &'a str)> {
    text.lines()
        .skip_while(|line| line.trim() != section)
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.trim_start().starts_with('#'))
        .filter_map(|line| line.split_once('='))
        .map(|(key, value)| (key.trim(), value.trim()))
        .collect()
}

/// `code` names `Relaxed` as a word of its own, not inside, say,
/// `RelaxedCounter`.
fn names_relaxed(code: &str) -> bool {
    let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    code.match_indices("Relaxed").any(|(i, word)| {
        !ident(code[..i].chars().next_back()) && !ident(code[i + word.len()..].chars().next())
    })
}

/// PL004 over one file: every line of code that names `Relaxed` carries an
/// `// ORDERING:` argument on it or in the comment lines directly above it,
/// and every marker covers such a line. Returns one `path:line: fault` per
/// fault. The `#[cfg(test)] mod tests` tail is test code and is skipped;
/// clippy's `items_after_test_module` keeps other code out of it.
fn relaxed_audit(path: &str, text: &str) -> Vec<String> {
    let body = text
        .split_once("#[cfg(test)]\nmod tests {")
        .map_or(text, |(body, _)| body);
    let mut findings = Vec::new();
    let mut report = |i: usize, what: &str| findings.push(format!("{path}:{}: {what}", i + 1));
    // The line of a marker in the comment block directly above, if any.
    let mut pending = None;
    for (i, line) in body.lines().enumerate() {
        let (code, comment) = line.split_at(line.find("//").unwrap_or(line.len()));
        let marker = comment.find(MARKER).map(|at| &comment[at + MARKER.len()..]);
        if marker.is_some_and(|argument| argument.trim().is_empty()) {
            report(i, EMPTY);
        }
        if code.trim().is_empty() && !comment.is_empty() {
            pending = pending.or(marker.map(|_| i));
            continue;
        }
        // A blank or code line ends the comment block above it.
        match (names_relaxed(code), pending.take().or(marker.map(|_| i))) {
            (true, None) => report(i, UNARGUED),
            (false, Some(m)) => report(m, STALE),
            _ => {}
        }
    }
    if let Some(m) = pending {
        report(m, STALE);
    }
    findings
}

#[test]
fn every_relaxed_ordering_states_its_argument() {
    let root = root();
    let mut files = Vec::new();
    for dir in package_dirs() {
        rust_files(&dir.join("src"), &mut files);
    }
    // The rule's motivating sites: the lock-free union–find and Borůvka's
    // `fetch_min` flush.
    for rel in ["crates/exec/src/dsu.rs", "crates/mst/src/boruvka.rs"] {
        assert!(files.contains(&root.join(rel)), "{rel} was not scanned");
    }
    // The counters module argues its `Relaxed` counters in its module docs.
    files.retain(|file| !file.ends_with("crates/exec/src/counters.rs"));
    let findings: Vec<String> = files
        .iter()
        .flat_map(|file| {
            let rel = file.strip_prefix(&root).expect("under the root");
            relaxed_audit(&rel.to_string_lossy(), &read(file))
        })
        .collect();
    assert!(findings.is_empty(), "PL004:\n{}", findings.join("\n"));
}

#[test]
fn the_relaxed_audit_reports_each_kind_of_fault() {
    let clean = "fn f(a: &AtomicU32) {
    // ORDERING: a statistic; the argument may run over
    // several comment lines.
    a.fetch_add(1, Ordering::Relaxed);
    a.load(Ordering::Relaxed); // ORDERING: a trailing marker counts too.
    let c = RelaxedCounter::new(); // another word
}
#[cfg(test)]
mod tests {
    fn g(a: &AtomicU32) {
        a.store(0, Ordering::Relaxed);
    }
}
";
    assert_eq!(relaxed_audit("clean.rs", clean), Vec::<String>::new());
    for (text, expected) in [
        ("x.store(1, Relaxed);\n", &[(1, UNARGUED)][..]),
        ("use Ordering::{Acquire, Relaxed};\n", &[(1, UNARGUED)]),
        ("// ORDERING:\nx.load(Relaxed);\n", &[(1, EMPTY)]),
        ("// ORDERING: x\nx.load(Acquire);\n", &[(1, STALE)]),
        (
            "// ORDERING: x\n\nx.load(Relaxed);\n",
            &[(1, STALE), (3, UNARGUED)],
        ),
        ("f(); // ORDERING: x\n", &[(1, STALE)]),
        ("// ORDERING: x\n", &[(1, STALE)]),
    ] {
        let expected: Vec<String> = expected
            .iter()
            .map(|(line, what)| format!("x.rs:{line}: {what}"))
            .collect();
        assert_eq!(relaxed_audit("x.rs", text), expected, "{text}");
    }
}

#[test]
fn the_lint_policy_stays_in_place() {
    let root = root();
    // PL001: each serving root denies every panic path for its subtree.
    let deny: String = SERVING_DENY.split_whitespace().collect();
    for rel in SERVING_ROOTS {
        let text: String = read(&root.join(rel)).split_whitespace().collect();
        assert!(text.contains(&deny), "{rel}: lost `{SERVING_DENY}`");
    }
    // PL002, PL003, PL006, PL007: the workspace lints stay at deny …
    let manifest = read(&root.join("Cargo.toml"));
    let clippy = toml_section(&manifest, "[workspace.lints.clippy]");
    for lint in WORKSPACE_DENY {
        assert!(
            clippy.contains(&(lint, "\"deny\"")),
            "Cargo.toml: `{lint}` is not denied in [workspace.lints.clippy]"
        );
    }
    // … and reach every first-party package.
    let packages = package_dirs();
    assert!(packages.len() >= 7, "{packages:?}");
    for dir in &packages {
        let manifest = read(&dir.join("Cargo.toml"));
        assert!(
            toml_section(&manifest, "[lints]").contains(&("workspace", "true")),
            "{}: no `[lints] workspace = true`",
            dir.display()
        );
    }
    // PL005: the kernel crates ban the hash collections. Clippy reads only
    // the nearest clippy.toml, so each repeats the root settings too.
    let root_settings = read(&root.join("clippy.toml"));
    for name in ["exec", "core", "mst"] {
        let path = root.join("crates").join(name).join("clippy.toml");
        let text = read(&path);
        for banned in ["HashMap", "HashSet"] {
            assert!(
                text.contains(&format!("path = \"std::collections::{banned}\"")),
                "{}: {banned} is not in disallowed-types",
                path.display()
            );
        }
        for setting in root_settings.lines().filter(|l| l.contains(" = ")) {
            assert!(
                text.lines().any(|l| l == setting),
                "{}: lost the root setting `{setting}`",
                path.display()
            );
        }
    }
}
