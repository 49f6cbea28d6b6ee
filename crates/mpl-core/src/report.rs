//! Table-style reporting of decomposition results.

use crate::DecompositionResult;
use std::fmt;

/// Minimal JSON string escaping (quotes, backslashes, control characters)
/// — the shared helper behind the hand-rolled JSON emitters of the
/// `qpl-decompose` CLI and the `mpl-bench` batch reports (the workspace
/// has no serde dependency).  A wrapper over [`json_escape_into`].
pub fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    json_escape_into(text, &mut out);
    out
}

/// Appends `text` to `out` with [`json_escape`]'s escaping.  Runs of bytes
/// that need no escape are copied whole, so the cost is one pass over
/// `text` with no allocation beyond `out`'s growth.
pub fn json_escape_into(text: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run_start = 0;
    for (index, &byte) in text.as_bytes().iter().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            0x00..=0x1f => "\\u00",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `index` is a char boundary.
        out.push_str(&text[run_start..index]);
        out.push_str(escape);
        if byte < 0x20 {
            out.push(char::from(HEX[usize::from(byte >> 4)]));
            out.push(char::from(HEX[usize::from(byte & 0xf)]));
        }
        run_start = index + 1;
    }
    out.push_str(&text[run_start..]);
}

/// One row of a comparison table: the conflict count, stitch count and
/// color-assignment CPU time of a single (circuit, algorithm) pair — the
/// `cn#`, `st#`, `CPU(s)` triple of the paper's tables.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    /// Circuit (layout) name.
    pub circuit: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Conflict count.
    pub conflicts: usize,
    /// Stitch count.
    pub stitches: usize,
    /// Color-assignment time in seconds.
    pub cpu_seconds: f64,
}

impl ResultRow {
    /// Builds a row from a decomposition result.
    pub fn from_result(result: &DecompositionResult) -> Self {
        ResultRow {
            circuit: result.layout_name().to_string(),
            algorithm: result.algorithm().to_string(),
            conflicts: result.conflicts(),
            stitches: result.stitches(),
            cpu_seconds: result.color_time().as_secs_f64(),
        }
    }
}

/// A comparison table in the style of the paper's Table 1 / Table 2:
/// one row per circuit, one `(cn#, st#, CPU)` column group per algorithm.
#[derive(Debug, Clone, Default)]
pub struct TableReport {
    rows: Vec<ResultRow>,
}

impl TableReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        TableReport::default()
    }

    /// Adds a row.
    pub fn push(&mut self, row: ResultRow) {
        self.rows.push(row);
    }

    /// All rows added so far.
    pub fn rows(&self) -> &[ResultRow] {
        &self.rows
    }

    /// The distinct algorithm names, in first-appearance order.
    pub fn algorithms(&self) -> Vec<String> {
        let mut names = Vec::new();
        for row in &self.rows {
            if !names.contains(&row.algorithm) {
                names.push(row.algorithm.clone());
            }
        }
        names
    }

    /// The distinct circuit names, in first-appearance order.
    pub fn circuits(&self) -> Vec<String> {
        let mut names = Vec::new();
        for row in &self.rows {
            if !names.contains(&row.circuit) {
                names.push(row.circuit.clone());
            }
        }
        names
    }

    fn row_for(&self, circuit: &str, algorithm: &str) -> Option<&ResultRow> {
        self.rows
            .iter()
            .find(|row| row.circuit == circuit && row.algorithm == algorithm)
    }

    /// Per-algorithm averages `(conflicts, stitches, cpu_seconds)` over all
    /// circuits that have a row for that algorithm — the `avg.` line of the
    /// paper's tables.
    pub fn averages(&self, algorithm: &str) -> Option<(f64, f64, f64)> {
        let rows: Vec<&ResultRow> = self
            .rows
            .iter()
            .filter(|row| row.algorithm == algorithm)
            .collect();
        if rows.is_empty() {
            return None;
        }
        let n = rows.len() as f64;
        Some((
            rows.iter().map(|r| r.conflicts as f64).sum::<f64>() / n,
            rows.iter().map(|r| r.stitches as f64).sum::<f64>() / n,
            rows.iter().map(|r| r.cpu_seconds).sum::<f64>() / n,
        ))
    }

    /// Ratios of the averages of `algorithm` relative to `baseline` — the
    /// `ratio` line of the paper's tables.  Returns `None` when either
    /// algorithm has no rows or a baseline average is zero (the ratio is
    /// then reported as 1.0 for that quantity).
    pub fn ratios(&self, algorithm: &str, baseline: &str) -> Option<(f64, f64, f64)> {
        let (ac, as_, at) = self.averages(algorithm)?;
        let (bc, bs, bt) = self.averages(baseline)?;
        let ratio = |x: f64, y: f64| if y.abs() < 1e-12 { 1.0 } else { x / y };
        Some((ratio(ac, bc), ratio(as_, bs), ratio(at, bt)))
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let algorithms = self.algorithms();
        let mut out = String::new();
        out.push_str(&format!("{:<10}", "Circuit"));
        for algorithm in &algorithms {
            out.push_str(&format!("| {:^26} ", algorithm));
        }
        out.push('\n');
        out.push_str(&format!("{:<10}", ""));
        for _ in &algorithms {
            out.push_str(&format!("| {:>7} {:>7} {:>10} ", "cn#", "st#", "CPU(s)"));
        }
        out.push('\n');
        for circuit in self.circuits() {
            out.push_str(&format!("{circuit:<10}"));
            for algorithm in &algorithms {
                match self.row_for(&circuit, algorithm) {
                    Some(row) => out.push_str(&format!(
                        "| {:>7} {:>7} {:>10.3} ",
                        row.conflicts, row.stitches, row.cpu_seconds
                    )),
                    None => out.push_str(&format!("| {:>7} {:>7} {:>10} ", "-", "-", "-")),
                }
            }
            out.push('\n');
        }
        out.push_str(&format!("{:<10}", "avg."));
        for algorithm in &algorithms {
            match self.averages(algorithm) {
                Some((c, s, t)) => {
                    out.push_str(&format!("| {c:>7.1} {s:>7.1} {t:>10.3} "));
                }
                None => out.push_str(&format!("| {:>7} {:>7} {:>10} ", "-", "-", "-")),
            }
        }
        out.push('\n');
        if let Some(baseline) = algorithms.first() {
            out.push_str(&format!("{:<10}", "ratio"));
            for algorithm in &algorithms {
                match self.ratios(algorithm, baseline) {
                    Some((c, s, t)) => {
                        out.push_str(&format!("| {c:>7.2} {s:>7.2} {t:>10.3} "));
                    }
                    None => out.push_str(&format!("| {:>7} {:>7} {:>10} ", "-", "-", "-")),
                }
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for TableReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_escapes_every_control_character() {
        // RFC 8259 requires escaping exactly U+0000..=U+001F (plus quote
        // and backslash); everything in that range must come out as a
        // four-digit \u escape, never raw.
        for code in 0u32..0x20 {
            let c = char::from_u32(code).expect("control characters are chars");
            let escaped = json_escape(&c.to_string());
            assert_eq!(escaped, format!("\\u{code:04x}"), "U+{code:04X}");
            assert!(!escaped.contains(c), "raw U+{code:04X} leaked through");
        }
        assert_eq!(json_escape("\t"), "\\u0009");
        assert_eq!(json_escape("\n"), "\\u000a");
        assert_eq!(json_escape("\r"), "\\u000d");
        assert_eq!(json_escape("a\nb"), "a\\u000ab");
    }

    #[test]
    fn json_escape_escapes_quotes_and_backslashes_only_once() {
        assert_eq!(json_escape("\""), "\\\"");
        assert_eq!(json_escape("\\"), "\\\\");
        assert_eq!(json_escape("\\\""), "\\\\\\\"");
        assert_eq!(json_escape(r"C:\path"), r"C:\\path");
    }

    #[test]
    fn json_escape_passes_non_bmp_and_printable_unicode_through_raw() {
        // JSON strings are Unicode: anything outside the mandatory escape
        // set may appear literally.  Non-BMP code points must NOT be split
        // into \u surrogate pairs by this escaper (it emits UTF-8), and
        // must survive unmodified.
        assert_eq!(json_escape("😀"), "😀");
        assert_eq!(json_escape("\u{10FFFF}"), "\u{10FFFF}");
        assert_eq!(json_escape("éß漢"), "éß漢");
        // DEL (U+007F) and the line/paragraph separators are not in the
        // mandatory escape set; they pass through raw.
        assert_eq!(json_escape("\u{7f}"), "\u{7f}");
        assert_eq!(json_escape("\u{2028}\u{2029}"), "\u{2028}\u{2029}");
        // Mixed: escapes and raw text interleave without disturbing either.
        assert_eq!(
            json_escape("a\"b\\c\u{1}😀\n"),
            "a\\\"b\\\\c\\u0001😀\\u000a"
        );
    }

    #[test]
    fn json_escape_into_appends_the_same_escaping() {
        let mut out = String::from("\"k\":\"");
        json_escape_into("a\"b\\c\u{1}😀\n", &mut out);
        assert_eq!(out, "\"k\":\"a\\\"b\\\\c\\u0001😀\\u000a");
        let mut empty = String::new();
        json_escape_into("", &mut empty);
        assert_eq!(empty, "");
    }

    fn row(
        circuit: &str,
        algorithm: &str,
        conflicts: usize,
        stitches: usize,
        cpu: f64,
    ) -> ResultRow {
        ResultRow {
            circuit: circuit.into(),
            algorithm: algorithm.into(),
            conflicts,
            stitches,
            cpu_seconds: cpu,
        }
    }

    fn sample() -> TableReport {
        let mut report = TableReport::new();
        report.push(row("C432", "ILP", 2, 0, 0.6));
        report.push(row("C432", "Linear", 2, 1, 0.001));
        report.push(row("C499", "ILP", 1, 4, 0.7));
        report.push(row("C499", "Linear", 1, 4, 0.001));
        report
    }

    #[test]
    fn collects_algorithms_and_circuits_in_order() {
        let report = sample();
        assert_eq!(report.algorithms(), vec!["ILP", "Linear"]);
        assert_eq!(report.circuits(), vec!["C432", "C499"]);
        assert_eq!(report.rows().len(), 4);
    }

    #[test]
    fn averages_and_ratios() {
        let report = sample();
        let (c, s, t) = report.averages("ILP").expect("rows exist");
        assert!((c - 1.5).abs() < 1e-12);
        assert!((s - 2.0).abs() < 1e-12);
        assert!((t - 0.65).abs() < 1e-12);
        let (rc, rs, rt) = report.ratios("Linear", "ILP").expect("rows exist");
        assert!((rc - 1.0).abs() < 1e-12);
        assert!((rs - 2.5 / 2.0).abs() < 1e-12);
        assert!(rt < 0.01);
        assert!(report.averages("SDP").is_none());
    }

    #[test]
    fn render_contains_headers_rows_and_summary_lines() {
        let report = sample();
        let text = report.render();
        assert!(text.contains("Circuit"));
        assert!(text.contains("cn#"));
        assert!(text.contains("C432"));
        assert!(text.contains("avg."));
        assert!(text.contains("ratio"));
        assert_eq!(text, report.to_string());
    }

    #[test]
    fn missing_cells_render_as_dashes() {
        let mut report = sample();
        report.push(row("C880", "Linear", 0, 0, 0.002));
        let text = report.render();
        assert!(text
            .lines()
            .any(|line| line.starts_with("C880") && line.contains('-')));
    }

    #[test]
    fn zero_baseline_ratio_defaults_to_one() {
        let mut report = TableReport::new();
        report.push(row("X", "A", 0, 0, 0.0));
        report.push(row("X", "B", 3, 0, 0.1));
        let (rc, rs, _) = report.ratios("B", "A").expect("rows exist");
        assert_eq!(rc, 1.0);
        assert_eq!(rs, 1.0);
    }
}
