//! Plain-text table rendering and CSV emission for the experiment
//! binaries — the output mirrors the row/column structure of the
//! paper's tables so side-by-side comparison is mechanical.

use std::io::Write;

/// An in-memory table with a title, header, and string rows.
#[derive(Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
        println!();
    }

    /// Appends the rows as CSV to `path` (with a header line naming
    /// the table in a comment and the columns).
    pub fn write_csv(&self, path: &str) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(
            std::fs::OpenOptions::new().create(true).append(true).open(path)?,
        );
        writeln!(f, "# {}", self.title)?;
        writeln!(f, "{}", self.header.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        f.flush()
    }

    /// Writes CSV if a path was provided.
    pub fn maybe_csv(&self, path: &Option<String>) {
        if let Some(p) = path {
            if let Err(e) = self.write_csv(p) {
                eprintln!("warning: failed to write {p}: {e}");
            }
        }
    }

    /// Renders the table as one machine-readable JSON object:
    /// `{"title": ..., "columns": [...], "rows": [[...], ...]}`.
    pub fn to_json(&self) -> String {
        let quoted = |out: &mut String, s: &str| {
            out.push('"');
            tc_metrics::json::escape_into(out, s);
            out.push('"');
        };
        let mut out = String::from("{\"title\":");
        quoted(&mut out, &self.title);
        out.push_str(",\"columns\":[");
        for (i, h) in self.header.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            quoted(&mut out, h);
        }
        out.push_str("],\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, c) in row.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                quoted(&mut out, c);
            }
            out.push(']');
        }
        out.push_str("]}");
        out
    }

    /// Appends the table as one JSON line to `path` (JSON-lines: each
    /// table an experiment emits becomes one self-describing record).
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(
            std::fs::OpenOptions::new().create(true).append(true).open(path)?,
        );
        writeln!(f, "{}", self.to_json())?;
        f.flush()
    }

    /// Writes the JSON run report if a path was provided.
    pub fn maybe_json(&self, path: &Option<String>) {
        if let Some(p) = path {
            if let Err(e) = self.write_json(p) {
                eprintln!("warning: failed to write {p}: {e}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["a", "long-header", "b"]);
        t.row(vec!["1".into(), "2".into(), "333333".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long-header"));
        assert!(s.lines().count() >= 4);
        assert_eq!(t.num_rows(), 1);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn rejects_ragged_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn json_report_parses_back() {
        let mut t = Table::new("demo \"quoted\"", &["ranks", "tct(s)"]);
        t.row(vec!["4".into(), "0.123".into()]);
        t.row(vec!["9".into(), "0.456".into()]);
        let doc = tc_metrics::json::parse(&t.to_json()).expect("valid JSON");
        assert_eq!(doc.get("title").and_then(|v| v.as_str()), Some("demo \"quoted\""));
        let cols = doc.get("columns").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(cols.len(), 2);
        let rows = doc.get("rows").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].as_arr().unwrap()[1].as_str(), Some("0.456"));
    }

    #[test]
    fn json_lines_append() {
        let dir = std::env::temp_dir().join(format!("tcbench-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.json");
        let p = path.to_str().unwrap().to_string();
        let mut t = Table::new("one", &["a"]);
        t.row(vec!["1".into()]);
        t.write_json(&p).unwrap();
        t.write_json(&p).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = content.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            tc_metrics::json::parse(line).expect("each line is a JSON object");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join(format!("tcbench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let p = path.to_str().unwrap().to_string();
        let mut t = Table::new("csv", &["x", "y"]);
        t.row(vec!["1".into(), "2".into()]);
        t.write_csv(&p).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("x,y"));
        assert!(content.contains("1,2"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
