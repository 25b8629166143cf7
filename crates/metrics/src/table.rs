//! Plain-text and Markdown table rendering for the experiment harness.

/// A simple column-aligned table.
///
/// The experiment harness (`sched-bench`, binary `experiments`) prints one
/// table per experiment, the view of its catalog records.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header width.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width must match headers");
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn nr_rows(&self) -> usize {
        self.rows.len()
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        widths
    }

    /// Renders the table as aligned plain text.
    pub fn to_text(&self) -> String {
        let widths = self.widths();
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1))),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders the table as GitHub-flavoured Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.headers.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Renders the table as CSV (headers first).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("E0: sample", &["cores", "rounds", "failures"]);
        t.row(&["4".into(), "2".into(), "1".into()]);
        t.row(&["64".into(), "7".into(), "12".into()]);
        t
    }

    #[test]
    fn text_rendering_aligns_columns() {
        let text = sample().to_text();
        assert!(text.contains("== E0: sample =="));
        assert!(text.contains("cores"));
        assert!(text.lines().count() >= 4);
    }

    #[test]
    fn markdown_rendering_has_separator_row() {
        let md = sample().to_markdown();
        assert!(md.contains("| cores | rounds | failures |"));
        assert!(md.contains("|---|---|---|"));
        assert!(md.contains("| 64 | 7 | 12 |"));
    }

    #[test]
    fn csv_rendering() {
        let csv = sample().to_csv();
        assert_eq!(csv.lines().next().unwrap(), "cores,rounds,failures");
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["1".into()]);
    }
}
