//! The one source scanner every token-level rule reads through.
//!
//! A rule never opens a file itself. [`load`] reads each `.rs` file once
//! and prepares it as a [`SourceFile`]: the raw text, the text with
//! comments, strings and char literals blanked by [`strip`] (so rules
//! never fire on prose and line numbers stay correct), the
//! whitespace-squeezed lines, one token stream and one per-line
//! `#[cfg(test)]` mask. The rule table in [`crate::scan`] then runs every
//! rule over those prepared files, so a fix to (say) raw-string handling
//! or test-scope tracking reaches every rule at once.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Replace comments, strings and char literals with spaces, preserving
/// line structure so token line numbers stay correct. Handles nested
/// block comments, raw strings (`r"…"`, `r#"…"#`), escapes, and the
/// char-literal/lifetime ambiguity.
pub fn strip(source: &str) -> String {
    let chars: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '/' && next == Some('/') {
            while i < chars.len() && chars[i] != '\n' {
                out.push(' ');
                i += 1;
            }
        } else if c == '/' && next == Some('*') {
            let mut depth = 1;
            out.push_str("  ");
            i += 2;
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(if chars[i] == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
        } else if c == 'r' && (next == Some('"') || next == Some('#')) && is_raw_string(&chars, i) {
            i = skip_raw_string(&chars, i, &mut out);
        } else if c == '"' {
            out.push(' ');
            i += 1;
            while i < chars.len() && chars[i] != '"' {
                if chars[i] == '\\' {
                    out.push(' ');
                    i += 1;
                }
                if i < chars.len() {
                    out.push(if chars[i] == '\n' { '\n' } else { ' ' });
                    i += 1;
                }
            }
            out.push(' ');
            i += 1;
        } else if c == '\'' {
            // Char literal vs lifetime: a literal closes within a few
            // characters; a lifetime is ' followed by an identifier.
            if let Some(end) = char_literal_end(&chars, i) {
                for _ in i..=end {
                    out.push(' ');
                }
                i = end + 1;
            } else {
                out.push(c);
                i += 1;
            }
        } else {
            out.push(c);
            i += 1;
        }
    }
    out
}

fn is_raw_string(chars: &[char], i: usize) -> bool {
    let mut j = i + 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

fn skip_raw_string(chars: &[char], start: usize, out: &mut String) -> usize {
    let mut i = start + 1;
    let mut hashes = 0;
    out.push(' ');
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        out.push(' ');
        i += 1;
    }
    out.push(' ');
    i += 1; // the opening quote
    while i < chars.len() {
        if chars[i] == '"' {
            let mut ok = true;
            for h in 0..hashes {
                if chars.get(i + 1 + h) != Some(&'#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                for _ in 0..=hashes {
                    out.push(' ');
                }
                return i + 1 + hashes;
            }
        }
        out.push(if chars[i] == '\n' { '\n' } else { ' ' });
        i += 1;
    }
    i
}

fn char_literal_end(chars: &[char], i: usize) -> Option<usize> {
    // 'x'  '\n'  '\u{1F600}' — scan to a closing quote within bounds.
    let mut j = i + 1;
    if chars.get(j) == Some(&'\\') {
        j += 1;
        if chars.get(j) == Some(&'u') {
            while j < chars.len() && chars[j] != '}' {
                j += 1;
            }
        }
        j += 1;
    } else {
        j += 1;
    }
    (chars.get(j) == Some(&'\'')).then_some(j)
}

/// One token of stripped source.
#[derive(Debug, Clone)]
pub struct Tok {
    /// The token's text.
    pub text: String,
    /// 1-based source line.
    pub line: usize,
}

fn tokenize(stripped: &str) -> Vec<Tok> {
    let chars: Vec<char> = stripped.chars().collect();
    let mut toks = Vec::new();
    let mut line = 1;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c.is_alphanumeric() || c == '_' {
            // An identifier, keyword or (the digits of) a number.
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            toks.push(Tok {
                text: chars[start..i].iter().collect(),
                line,
            });
        } else {
            // Multi-character operators kept whole, so `->` never reads
            // as a closing `>` of a generic list.
            let two: String = chars[i..(i + 2).min(chars.len())].iter().collect();
            let op = match two.as_str() {
                "->" | "=>" | "::" | "==" | "!=" | "<=" | ">=" | "&&" | "||" | ".." | "<<"
                | ">>" | "+=" | "-=" | "*=" | "/=" | "%=" => {
                    i += 2;
                    two
                }
                _ => {
                    i += 1;
                    c.to_string()
                }
            };
            toks.push(Tok { text: op, line });
        }
    }
    toks
}

/// Do the tokens starting at `at` spell out `pat`?
pub fn matches(toks: &[Tok], at: usize, pat: &[&str]) -> bool {
    pat.iter()
        .enumerate()
        .all(|(j, p)| toks.get(at + j).is_some_and(|t| t.text == *p))
}

/// Skip past one balanced `open … close` group starting at or after `i`.
pub fn skip_balanced(toks: &[Tok], mut i: usize, open: &str, close: &str) -> usize {
    while i < toks.len() && toks[i].text != open {
        i += 1;
    }
    let mut depth = 0;
    while i < toks.len() {
        if toks[i].text == open {
            depth += 1;
        } else if toks[i].text == close {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// Skip one item: to its closing brace, or to `;` for a brace-less item
/// (`use …;`, `mod tests;`, a trait method declaration).
fn skip_item(toks: &[Tok], mut i: usize) -> usize {
    while i < toks.len() {
        match toks[i].text.as_str() {
            "{" => return skip_balanced(toks, i, "{", "}"),
            ";" => return i + 1,
            _ => i += 1,
        }
    }
    i
}

/// One source file, read and prepared once for every rule.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// How findings name the file (repo-root-relative in a workspace scan).
    pub label: String,
    /// The file as read.
    pub raw: String,
    /// [`strip`]ped text: same lines, comments and literals blanked.
    pub stripped: String,
    /// Stripped lines with all whitespace removed, so `thread :: spawn`
    /// matches `thread::spawn`.
    pub squeezed: Vec<String>,
    /// The stripped text's tokens.
    pub toks: Vec<Tok>,
    /// Per line (0-based index), whether it lies in a `#[cfg(test)]` item.
    test: Vec<bool>,
}

impl SourceFile {
    /// Prepare `raw` (named `label` in findings).
    pub fn new(label: &str, raw: &str) -> Self {
        let stripped = strip(raw);
        let squeezed: Vec<String> = stripped
            .lines()
            .map(|l| l.chars().filter(|c| !c.is_whitespace()).collect())
            .collect();
        let toks = tokenize(&stripped);
        let mut file = SourceFile {
            label: label.to_string(),
            raw: raw.to_string(),
            stripped,
            squeezed,
            toks,
            test: Vec::new(),
        };
        file.test = file.item_lines(|toks, i| {
            if toks[i].text != "#" || !matches(toks, i + 1, &["[", "cfg", "(", "test", ")", "]"]) {
                return None;
            }
            // Skip any further attributes; the item itself follows.
            let mut item = i + 7;
            while toks.get(item).is_some_and(|t| t.text == "#") {
                item = skip_balanced(toks, item + 1, "[", "]");
            }
            Some(item)
        });
        file
    }

    /// Is 1-based `line` inside a `#[cfg(test)]` item?
    pub fn in_test(&self, line: usize) -> bool {
        self.test.get(line - 1).copied().unwrap_or(false)
    }

    /// The one item-scope tracker. `opens(toks, i)` returns where an item
    /// starts when the token at `i` opens one (an attribute, or the item
    /// keyword itself); the item runs to its closing brace or `;` (see
    /// [`skip_item`]). Returns a per-line mask (0-based index) covering
    /// each such item from the opening token's line to its last line.
    pub fn item_lines(&self, opens: impl Fn(&[Tok], usize) -> Option<usize>) -> Vec<bool> {
        let mut mask = vec![false; self.squeezed.len()];
        let mut i = 0;
        while i < self.toks.len() {
            let Some(item) = opens(&self.toks, i) else {
                i += 1;
                continue;
            };
            let end = skip_item(&self.toks, item).max(i + 1);
            let last = self.toks[end - 1].line;
            for covered in &mut mask[self.toks[i].line - 1..last] {
                *covered = true;
            }
            i = end;
        }
        mask
    }
}

/// Repo-root-relative label for a path, with `/` separators on every
/// platform (the form all rule allowlists are written in).
pub fn file_label(path: &Path, repo_root: &Path) -> String {
    path.strip_prefix(repo_root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Every `.rs` file under `root`, depth-first with each directory's
/// entries sorted, so every rule's finding order is deterministic across
/// platforms.
fn walk_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> = fs::read_dir(root)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    entries.sort();
    let mut files = Vec::new();
    for path in entries {
        if path.is_dir() {
            files.extend(walk_rs_files(&path)?);
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    Ok(files)
}

/// Read and prepare, once each, the files named by `paths`: a directory
/// contributes every `.rs` file under it (depth-first, sorted), a file
/// is read whatever its extension. `label` names each file.
pub fn load(paths: &[PathBuf], label: impl Fn(&Path) -> String) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for path in paths {
        let found = if path.is_dir() {
            walk_rs_files(path)?
        } else {
            vec![path.clone()]
        };
        for file in found {
            files.push(SourceFile::new(&label(&file), &fs::read_to_string(&file)?));
        }
    }
    Ok(files)
}

/// Repo root as seen from this crate's build-time manifest location.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/check has a workspace root two levels up")
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_preserves_line_count() {
        let src = "fn a() {}\n/* multi\nline */\nlet s = \"x\ny\";\n";
        assert_eq!(strip(src).lines().count(), src.lines().count());
    }

    #[test]
    fn strip_blanks_comments_strings_chars() {
        let s = strip("let c = 'x'; // note\nlet s = \"str\"; /* b */");
        assert!(!s.contains("note"));
        assert!(!s.contains("str"));
        assert!(!s.contains('x'));
        assert!(s.contains("let c ="));
    }

    #[test]
    fn strip_handles_raw_strings_and_lifetimes() {
        let s = strip("fn f<'a>(x: &'a str) { let r = r#\"raw \" body\"#; }");
        assert!(s.contains("'a"), "lifetimes survive: {s}");
        assert!(!s.contains("raw"), "raw string blanked: {s}");
    }

    #[test]
    fn walk_is_sorted_and_labelled() {
        let root = repo_root();
        let files = load(&[root.join("crates/check/src")], |p| file_label(p, &root)).expect("walk");
        assert!(files.iter().any(|f| f.label == "crates/check/src/lib.rs"));
        let labels: Vec<&String> = files.iter().map(|f| &f.label).collect();
        let mut sorted = labels.clone();
        sorted.sort();
        assert_eq!(labels, sorted, "deterministic traversal order");
    }
}
