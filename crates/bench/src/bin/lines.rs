//! The line counter: production and in-module test lines of the
//! simulator's Rust source, counted one fixed way so that counts from
//! different trees compare.
//!
//! The method: every `.rs` file under `crates/*/src`, `src` and
//! `examples` (not `benchmark/`, `vendor/` or the integration tests);
//! a line counts if it holds code outside comments — blank lines, `//`
//! comments of every kind and lines wholly inside `/* */` do not. An
//! item under `#[cfg(test)]` (the attribute line, through the brace
//! that closes the item, or its `;`) counts as in-module test lines,
//! and everything else as production. Braces inside strings, raw
//! strings, character literals and comments do not match.
//!
//! Usage: `lines [ROOT]` (default `.`, the repository root). Prints
//! one row per crate, `src` and `examples`, then the totals.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Production and in-module test lines.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Count {
    production: usize,
    tests: usize,
}

impl std::ops::AddAssign for Count {
    fn add_assign(&mut self, other: Count) {
        self.production += other.production;
        self.tests += other.tests;
    }
}

/// What the lexer carries from one line to the next.
#[derive(Clone, Copy)]
enum Lex {
    Code,
    /// Inside `/* */`, at this nesting depth.
    Block(u32),
    /// Inside a `"` string (escapes apply).
    Str,
    /// Inside a raw string closed by `"` and this many `#`.
    Raw(usize),
}

/// One line's code: whether it has any outside comments, its net
/// brace count outside literals, and its last code character.
struct Line {
    code: bool,
    braces: i64,
    last: Option<char>,
}

/// Lexes one line, starting in `state`; returns the line and the
/// state the next line starts in.
fn lex(line: &str, mut state: Lex) -> (Line, Lex) {
    let chars: Vec<char> = line.chars().collect();
    let mut out = Line {
        code: false,
        braces: 0,
        last: None,
    };
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match state {
            Lex::Block(depth) => {
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        Lex::Code
                    } else {
                        Lex::Block(depth - 1)
                    };
                    i += 1;
                } else if c == '/' && next == Some('*') {
                    state = Lex::Block(depth + 1);
                    i += 1;
                }
            }
            Lex::Str => {
                out.code = true;
                if c == '\\' {
                    i += 1;
                } else if c == '"' {
                    state = Lex::Code;
                }
            }
            Lex::Raw(hashes) => {
                out.code = true;
                if c == '"' && chars[i + 1..].iter().take_while(|&&h| h == '#').count() >= hashes {
                    state = Lex::Code;
                    i += hashes;
                }
            }
            Lex::Code => {
                if c.is_whitespace() {
                    i += 1;
                    continue;
                }
                if c == '/' && next == Some('/') {
                    break;
                }
                if c == '/' && next == Some('*') {
                    state = Lex::Block(1);
                    i += 2;
                    continue;
                }
                out.code = true;
                out.last = Some(c);
                let ident_before = i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
                match c {
                    '"' => state = Lex::Str,
                    'r' if !ident_before => {
                        let hashes = chars[i + 1..].iter().take_while(|&&h| h == '#').count();
                        if chars.get(i + 1 + hashes) == Some(&'"') {
                            state = Lex::Raw(hashes);
                            i += 1 + hashes;
                        }
                    }
                    '\'' => {
                        // A character literal ('x', '\n', '\u{7f}'), or
                        // a lifetime, which has no closing quote.
                        if next == Some('\\') {
                            let close = chars
                                .get(i + 3..)
                                .and_then(|rest| rest.iter().position(|&q| q == '\''));
                            i += 3 + close.unwrap_or(0);
                        } else if chars.get(i + 2) == Some(&'\'') {
                            i += 2;
                        }
                    }
                    '{' => out.braces += 1,
                    '}' => out.braces -= 1,
                    _ => {}
                }
            }
        }
        i += 1;
    }
    (out, state)
}

/// Counts one file's source.
fn count_source(source: &str) -> Count {
    let mut count = Count::default();
    let mut state = Lex::Code;
    let mut depth: i64 = 0;
    // The open `#[cfg(test)]` item: the depth it started at, and
    // whether its body's brace has opened.
    let mut test_item: Option<(i64, bool)> = None;
    for text in source.lines() {
        let starts_cfg_test =
            matches!(state, Lex::Code) && text.trim_start().starts_with("#[cfg(test)]");
        let (line, next) = lex(text, state);
        state = next;
        if test_item.is_none() && starts_cfg_test {
            test_item = Some((depth, false));
        }
        if line.code {
            match test_item {
                Some(_) => count.tests += 1,
                None => count.production += 1,
            }
        }
        depth += line.braces;
        if let Some((start, opened)) = test_item.as_mut() {
            *opened |= depth > *start;
            let closed = *opened && depth <= *start;
            let ended_without_body = !*opened && line.last == Some(';');
            if closed || ended_without_body {
                test_item = None;
            }
        }
    }
    count
}

/// Every `.rs` file under `dir`, sorted.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(dir) = pending.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                pending.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    files
}

/// The counted trees under `root`, each with its label.
fn trees(root: &Path) -> Vec<(String, PathBuf)> {
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .map(|entries| entries.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    crates.sort();
    let mut trees: Vec<(String, PathBuf)> = crates
        .into_iter()
        .filter(|c| c.join("src").is_dir())
        .map(|c| {
            let name = c.file_name().map(|n| n.to_string_lossy().into_owned());
            (
                format!("crates/{}", name.unwrap_or_default()),
                c.join("src"),
            )
        })
        .collect();
    trees.push(("src".into(), root.join("src")));
    trees.push(("examples".into(), root.join("examples")));
    trees
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = match args.as_slice() {
        [] => PathBuf::from("."),
        [root] if !root.starts_with('-') => PathBuf::from(root),
        _ => {
            eprintln!("usage: lines [ROOT]");
            return ExitCode::from(2);
        }
    };
    if !root.join("crates").is_dir() {
        eprintln!("lines: {} has no crates/ directory", root.display());
        return ExitCode::from(2);
    }
    let mut total = Count::default();
    println!("{:<16} {:>10} {:>10}", "tree", "production", "tests");
    for (label, dir) in trees(&root) {
        let mut count = Count::default();
        for file in rust_files(&dir) {
            match fs::read_to_string(&file) {
                Ok(source) => count += count_source(&source),
                Err(e) => {
                    eprintln!("lines: {}: {e}", file.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        println!("{label:<16} {:>10} {:>10}", count.production, count.tests);
        total += count;
    }
    println!(
        "{:<16} {:>10} {:>10}",
        "total", total.production, total.tests
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(source: &str) -> (usize, usize) {
        let c = count_source(source);
        (c.production, c.tests)
    }

    #[test]
    fn comments_and_blank_lines_do_not_count() {
        let source = "//! doc\n\n/// item doc\nfn f() {\n    // note\n    /* a\n       b */\n    g(); /* tail */\n}\n";
        assert_eq!(count(source), (3, 0));
    }

    #[test]
    fn a_cfg_test_item_counts_through_its_closing_brace() {
        let source = "fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        assert!(true);\n    }\n}\nfn g() {}\n";
        assert_eq!(count(source), (2, 7));
    }

    #[test]
    fn an_item_without_a_body_ends_at_its_semicolon() {
        let source = "#[cfg(test)]\nuse std::fmt;\nfn f() {}\n#[cfg(test)] mod tests;\nfn g() {}\n";
        assert_eq!(count(source), (2, 3));
    }

    #[test]
    fn braces_in_literals_and_comments_do_not_match() {
        let source = "#[cfg(test)]\nmod tests {\n    const A: char = '{';\n    const B: &str = \"}}\";\n    const C: &str = r#\"}\"#;\n    // }\n    fn f<'a>(x: &'a str) -> &'a str { x }\n}\nfn prod() {}\n";
        assert_eq!(count(source), (1, 7));
    }

    #[test]
    fn a_string_spanning_lines_counts_each_line() {
        let source = "const S: &str = \"a\n// not a comment\n{\";\nfn f() {}\n";
        assert_eq!(count(source), (4, 0));
    }
}
