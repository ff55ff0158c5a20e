//! The one writer of the binaries' machine-readable artifacts
//! (`BENCH_matrix.json`, `BENCH_prefetch.json`, `BENCH_scaling.json`).
//!
//! Those files are committed and compared byte for byte, so their
//! layout is part of the format: a number is written as its caller
//! formats it (the precision is the caller's), an object is either
//! one line or one member per line, and an array of cells is one cell
//! per line. [`Json`] spells exactly that and nothing more.

/// A rendered JSON value in the layout of the committed
/// `BENCH_*.json` files.
#[derive(Debug, Clone)]
pub struct Json(String);

impl Json {
    /// A number (or `true`/`false`) in its `Display` form; format it
    /// first (`format!("{x:.4}")`) to fix its precision.
    pub fn num(value: impl std::fmt::Display) -> Json {
        Json(value.to_string())
    }

    /// A quoted string. The harness's strings are names and labels,
    /// which never hold a quote, a backslash or a newline.
    pub fn str(value: &str) -> Json {
        Json(format!("\"{value}\""))
    }

    /// An object on one line: `{"k": v, "k": v}`.
    pub fn line(members: Vec<(&str, Json)>) -> Json {
        let members: Vec<_> = members.into_iter().map(member).collect();
        Json(format!("{{{}}}", members.join(", ")))
    }

    /// An object with one member per line.
    pub fn block(members: Vec<(&str, Json)>) -> Json {
        Json::lines('{', '}', members.into_iter().map(member))
    }

    /// An array with one element per line.
    pub fn list(items: Vec<Json>) -> Json {
        Json::lines('[', ']', items.into_iter().map(|item| item.0))
    }

    /// Writes this value to `path` as a document (a final newline
    /// added), panicking with the path on an I/O error.
    pub fn write_file(&self, path: &str) {
        std::fs::write(path, format!("{}\n", self.0))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    }

    /// `items` one a line between `open` and `close`, each indented one
    /// level: a nested value's own lines move in with it.
    fn lines(open: char, close: char, items: impl ExactSizeIterator<Item = String>) -> Json {
        let last = items.len().saturating_sub(1);
        let mut out = format!("{open}\n");
        for (i, item) in items.enumerate() {
            let comma = if i < last { "," } else { "" };
            out += &format!("  {}{comma}\n", item.replace('\n', "\n  "));
        }
        out.push(close);
        Json(out)
    }
}

/// One object member: `"key": value`.
fn member((key, value): (&str, Json)) -> String {
    format!("\"{key}\": {}", value.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_committed_layout() {
        let line = |n| Json::line(vec![("k", Json::str("a")), ("n", Json::num(n))]);
        let doc = Json::block(vec![
            ("config", line(1)),
            ("speedups", Json::block(vec![("x", Json::num("9.10"))])),
            ("cells", Json::list(vec![line(2), line(3)])),
            ("empty", Json::list(Vec::new())),
        ]);
        let want = "{\n  \"config\": {\"k\": \"a\", \"n\": 1},\n  \"speedups\": {\n    \"x\": 9.10\n  },\n  \
                    \"cells\": [\n    {\"k\": \"a\", \"n\": 2},\n    {\"k\": \"a\", \"n\": 3}\n  ],\n  \
                    \"empty\": [\n  ]\n}";
        assert_eq!(doc.0, want);
    }
}
