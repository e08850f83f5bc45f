//! Public-API snapshot check: the `pub` surface of every workspace crate
//! is captured in the checked-in golden file `API_SURFACE.txt`. Any change
//! to the public surface — a new entry point, a removed re-export, a
//! signature edit — shows up as a diff against the golden and must be
//! committed explicitly (regenerate with `UPDATE_API_SURFACE=1 cargo test
//! -p lcs_api --test api_surface`). CI runs this test, so surface drift
//! cannot land silently.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The workspace source roots whose surface the golden captures (library
/// code only — tests, benches and binaries are not public surface).
const ROOTS: [&str; 10] = [
    "crates/api/src",
    "crates/graph/src",
    "crates/congest/src",
    "crates/core/src",
    "crates/dist/src",
    "crates/mst/src",
    "crates/obs/src",
    "crates/workload/src",
    "crates/server/src",
    "src",
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|e| e.expect("readable dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The types `source` declares without plain `pub` (private, or
/// restricted like `pub(crate)`): their methods are not public surface,
/// however they are marked.
fn private_types(source: &str) -> Vec<&str> {
    let mut names = Vec::new();
    for line in source.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with("pub ") {
            continue;
        }
        // Drop a restricted visibility such as `pub(crate) `.
        let decl = match trimmed.strip_prefix("pub(") {
            Some(rest) => rest.split_once(") ").map_or("", |(_, decl)| decl),
            None => trimmed,
        };
        for keyword in ["struct ", "enum ", "trait ", "type ", "union "] {
            if let Some(rest) = decl.strip_prefix(keyword) {
                names.push(leading_ident(rest));
            }
        }
    }
    names
}

/// The identifier `text` starts with.
fn leading_ident(text: &str) -> &str {
    let end = text
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(text.len());
    &text[..end]
}

/// The self type's name of an `impl` header line (`impl<P> Trait for
/// Type<P> {` → `Type`), or `None` if the line opens no impl block.
fn impl_self_type(trimmed: &str) -> Option<&str> {
    let header = trimmed.strip_prefix("unsafe ").unwrap_or(trimmed);
    let mut rest = header.strip_prefix("impl")?;
    if rest.starts_with('<') {
        // Skip the impl's generic parameters, brackets balanced.
        let mut open = 0usize;
        let end = rest.char_indices().find_map(|(i, c)| {
            match c {
                '<' => open += 1,
                '>' => open -= 1,
                _ => {}
            }
            (open == 0).then_some(i + 1)
        })?;
        rest = &rest[end..];
    } else if !rest.starts_with(' ') {
        return None;
    }
    let ty = rest.rsplit_once(" for ").map_or(rest, |(_, ty)| ty).trim();
    let path = ty.trim_start_matches('&');
    let name_end = path
        .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(path.len());
    Some(path[..name_end].rsplit("::").next().unwrap_or(""))
}

/// Extracts the `pub` item lines of one file, skipping `#[cfg(test)]`
/// modules and the impl blocks of types the file declares without plain
/// `pub`. One line per item: the trimmed source line with any trailing `{`
/// body opener removed — enough to make every surface change (adds,
/// removals, signature edits) visible in the snapshot diff.
fn surface_of(source: &str) -> Vec<String> {
    let private = private_types(source);
    let mut items = Vec::new();
    let mut skip_depth: Option<usize> = None;
    let mut depth: usize = 0;
    let mut pending_cfg_test = false;
    let mut pending_private_impl = false;
    for line in source.lines() {
        let trimmed = line.trim();
        if skip_depth.is_none() && trimmed.starts_with("#[cfg(test)]") {
            pending_cfg_test = true;
        } else if pending_cfg_test && trimmed.starts_with("mod ") {
            // Skip the whole test module: from here to the brace that
            // closes it.
            skip_depth = Some(depth);
            pending_cfg_test = false;
        } else if !trimmed.starts_with("#[") && !trimmed.is_empty() {
            pending_cfg_test = false;
        }
        if skip_depth.is_none() && impl_self_type(trimmed).is_some_and(|ty| private.contains(&ty)) {
            pending_private_impl = true;
        }
        if pending_private_impl && line.contains('{') {
            // Skip the impl block, whose header may span several lines:
            // from the line that opens its body to the brace that closes
            // it.
            skip_depth = Some(depth);
            pending_private_impl = false;
        }

        let in_skip = skip_depth.is_some();
        if !in_skip
            && (trimmed.starts_with("pub fn ")
                || trimmed.starts_with("pub struct ")
                || trimmed.starts_with("pub enum ")
                || trimmed.starts_with("pub trait ")
                || trimmed.starts_with("pub type ")
                || trimmed.starts_with("pub const ")
                || trimmed.starts_with("pub static ")
                || trimmed.starts_with("pub mod ")
                || trimmed.starts_with("pub use "))
        {
            let mut item = trimmed.trim_end_matches('{').trim_end().to_string();
            // Multi-line `pub use` lists: normalize the opening line only.
            if item.ends_with(',') {
                item.pop();
            }
            items.push(item);
        }

        depth += line.matches('{').count();
        depth = depth.saturating_sub(line.matches('}').count());
        if let Some(d) = skip_depth {
            if depth <= d {
                skip_depth = None;
            }
        }
    }
    items
}

fn snapshot() -> String {
    let root = repo_root();
    let mut out = String::from(
        "# Public API surface (generated by crates/api/tests/api_surface.rs).\n\
         # Regenerate with: UPDATE_API_SURFACE=1 cargo test -p lcs_api --test api_surface\n",
    );
    for rel in ROOTS {
        let mut files = Vec::new();
        rust_files(&root.join(rel), &mut files);
        for file in files {
            let rel_path = file
                .strip_prefix(&root)
                .expect("file under repo root")
                .display()
                .to_string()
                .replace('\\', "/");
            let source = std::fs::read_to_string(&file).expect("readable source file");
            let items = surface_of(&source);
            if items.is_empty() {
                continue;
            }
            writeln!(out, "\n## {rel_path}").unwrap();
            for item in items {
                writeln!(out, "{item}").unwrap();
            }
        }
    }
    out
}

/// Methods of a type the file declares without plain `pub` stay out of
/// the surface, whether the impl header is one line or several; the
/// methods of a `pub` type stay in.
#[test]
fn impls_of_crate_private_types_are_not_surface() {
    let source = r#"
pub struct Open;

impl Open {
    pub fn visible(&self) -> u32 {
        1
    }
}

pub(crate) struct Engine<'a, P> {
    program: &'a P,
}

impl<'a, P: Clone> Engine<'a, P> {
    pub fn program(&self) -> &P {
        self.program
    }
}

impl<P> std::fmt::Display for Engine<'_, P>
where
    P: Clone,
{
    pub fn shown(&self) {}
}

struct Private;

impl Private {
    pub fn hidden(&self) {}
}

impl Open {
    pub fn also_visible(&self) {}
}
"#;
    assert_eq!(
        surface_of(source),
        [
            "pub struct Open;",
            "pub fn visible(&self) -> u32",
            "pub fn also_visible(&self) {}",
        ]
    );
}

#[test]
fn public_api_surface_matches_the_golden_file() {
    let golden_path = repo_root().join("API_SURFACE.txt");
    let current = snapshot();
    if std::env::var("UPDATE_API_SURFACE").is_ok() {
        std::fs::write(&golden_path, &current).expect("golden file is writable");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_default();
    assert!(
        golden == current,
        "the public API surface changed but API_SURFACE.txt was not regenerated.\n\
         Review the diff below, then run `UPDATE_API_SURFACE=1 cargo test -p lcs_api --test api_surface`\n\
         and commit the updated golden.\n\n{}",
        diff(&golden, &current)
    );
}

/// A minimal line diff for the failure message (no external crates).
fn diff(golden: &str, current: &str) -> String {
    let golden_lines: std::collections::BTreeSet<&str> = golden.lines().collect();
    let current_lines: std::collections::BTreeSet<&str> = current.lines().collect();
    let mut out = String::new();
    for line in current_lines.difference(&golden_lines) {
        writeln!(out, "+ {line}").unwrap();
    }
    for line in golden_lines.difference(&current_lines) {
        writeln!(out, "- {line}").unwrap();
    }
    if out.is_empty() {
        out.push_str("(ordering-only change)");
    }
    out
}
