//! Every result file the documentation cites exists and is a benchmark
//! result.
//!
//! A host-time number in the Markdown at the repository root or under
//! `docs/` names the committed `docs/results/` file it comes from. This
//! test finds every such path, expands its brace lists (`{a,b}`) and
//! matches its `*` patterns against the directory. Each expanded path
//! must name at least one file, and each named `.json` file must parse
//! as a `bench/result/v1` result that records the commit it was
//! measured at.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use multiring::trace::json::{self, Json};

const RESULTS: &str = "docs/results/";

/// The Markdown files at the root that document the project. Any other
/// `.md` file there, such as a plan that names result files before
/// they are committed, is not documentation and is not checked.
const DOCUMENTS: [&str; 10] = [
    "CHANGELOG.md",
    "CHANGES.md",
    "CONTRIBUTING.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "PAPER.md",
    "PAPERS.md",
    "README.md",
    "ROADMAP.md",
    "SNIPPETS.md",
];

/// The [`DOCUMENTS`] at the root, and the `.md` files anywhere under
/// `docs/`.
fn markdown_files(root: &Path) -> Vec<PathBuf> {
    fn walk(dir: &Path, recurse: bool, out: &mut Vec<PathBuf>) {
        for entry in fs::read_dir(dir).expect("readable directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                if recurse {
                    walk(&path, true, out);
                }
            } else if path.extension().is_some_and(|e| e == "md") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(root, false, &mut files);
    files.retain(|path| DOCUMENTS.iter().any(|d| *path == root.join(d)));
    walk(&root.join("docs"), true, &mut files);
    files.sort();
    files
}

/// Every path cited as `docs/results/<path>` in `text`, without the
/// prefix. A path runs over name characters, `*` and whole brace lists;
/// a trailing full stop ends the sentence, not the name. A bare mention
/// of the directory is not a citation.
fn cited_paths(text: &str) -> Vec<&str> {
    let mut cited = Vec::new();
    for (at, _) in text.match_indices(RESULTS) {
        let rest = &text[at + RESULTS.len()..];
        let mut in_braces = false;
        let end = rest
            .find(|c: char| match c {
                '{' => {
                    in_braces = true;
                    false
                }
                '}' if in_braces => {
                    in_braces = false;
                    false
                }
                ',' if in_braces => false,
                c => !(c.is_ascii_alphanumeric() || "-_.*".contains(c)),
            })
            .unwrap_or(rest.len());
        let path = rest[..end].trim_end_matches('.');
        if !path.is_empty() {
            cited.push(path);
        }
    }
    cited
}

/// Expands the brace lists of `pattern`, left to right:
/// `a-{x,y}.json` gives `a-x.json` and `a-y.json`.
fn expand_braces(pattern: &str) -> Vec<String> {
    match (pattern.find('{'), pattern.find('}')) {
        (Some(open), Some(close)) if open < close => {
            let (head, tail) = (&pattern[..open], &pattern[close + 1..]);
            pattern[open + 1..close]
                .split(',')
                .flat_map(|alt| expand_braces(&format!("{head}{alt}{tail}")))
                .collect()
        }
        _ => vec![pattern.to_string()],
    }
}

/// Whether `name` matches `pattern`, where `*` stands for any run of
/// characters.
fn glob_match(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == name,
        Some((head, tail)) => name.strip_prefix(head).is_some_and(|rest| {
            (0..=rest.len())
                .filter(|&i| rest.is_char_boundary(i))
                .any(|i| glob_match(tail, &rest[i..]))
        }),
    }
}

/// Checks that a result file parses as `bench/result/v1` and names the
/// commit it was measured at.
fn check_result(path: &Path) -> Result<(), String> {
    let text = fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = json::parse(&text)?;
    let schema = doc.get("schema").and_then(Json::as_str);
    if schema != Some("bench/result/v1") {
        return Err(format!("schema {schema:?}, not bench/result/v1"));
    }
    match doc
        .get("provenance")
        .and_then(|p| p.get("commit"))
        .and_then(Json::as_str)
    {
        Some(commit) if !commit.is_empty() && commit != "unknown" => Ok(()),
        commit => Err(format!("provenance.commit {commit:?}")),
    }
}

#[test]
fn cited_result_files_exist_and_are_bench_results() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dir = root.join(RESULTS);
    let names: Vec<String> = fs::read_dir(&dir)
        .expect("docs/results exists")
        .map(|e| {
            e.expect("directory entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    let mut problems = Vec::new();
    let mut cited_files = BTreeSet::new();
    for md in markdown_files(root) {
        let text = fs::read_to_string(&md).expect("readable Markdown");
        for cited in cited_paths(&text) {
            for pattern in expand_braces(cited) {
                let matches: Vec<&String> =
                    names.iter().filter(|n| glob_match(&pattern, n)).collect();
                if matches.is_empty() {
                    problems.push(format!(
                        "{}: {RESULTS}{cited} names {pattern}, which matches no file",
                        md.strip_prefix(root).unwrap_or(&md).display()
                    ));
                }
                cited_files.extend(matches.into_iter().cloned());
            }
        }
    }
    for name in cited_files.iter().filter(|n| n.ends_with(".json")) {
        if let Err(e) = check_result(&dir.join(name)) {
            problems.push(format!("{RESULTS}{name}: {e}"));
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
    assert!(!cited_files.is_empty(), "no Markdown file cites a result");
}

#[test]
fn the_plan_is_not_scanned_and_the_readme_is() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = markdown_files(root);
    assert!(files.contains(&root.join("README.md")));
    assert!(files.contains(&root.join("docs/PERF.md")));
    // A new root document is checked only once it joins DOCUMENTS:
    // besides them the root holds at most one Markdown file, the plan.
    let unlisted: Vec<String> = fs::read_dir(root)
        .expect("readable root")
        .map(|e| e.expect("directory entry").file_name())
        .map(|name| name.to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".md") && !DOCUMENTS.contains(&name.as_str()))
        .collect();
    assert!(
        unlisted.len() <= 1,
        "root Markdown files missing from DOCUMENTS: {unlisted:?}"
    );
}

#[test]
fn citations_are_read_as_written() {
    let text = "see `docs/results/a-{x,y}-z.json`, docs/results/b-*. \
                and docs/results/c{,2}.txt (docs/results/) docs/results/<w>";
    assert_eq!(cited_paths(text), ["a-{x,y}-z.json", "b-*", "c{,2}.txt"]);
    assert_eq!(
        expand_braces("a-{x,y}-{1,2}"),
        ["a-x-1", "a-x-2", "a-y-1", "a-y-2"]
    );
    assert_eq!(expand_braces("c{,2}.txt"), ["c.txt", "c2.txt"]);
    assert!(glob_match("crossing-*", "crossing-agree.txt"));
    assert!(glob_match("r-*.*", "r-set.json"));
    assert!(!glob_match("crossing-*", "clone-agree.txt"));
    assert!(!glob_match("a.json", "a.json.bak"));
}
