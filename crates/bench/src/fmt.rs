//! Plain-text table rendering and JSON string and number literals for
//! experiment output.

/// Render an aligned text table: a header row, a rule, then data rows.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Format a throughput in K requests/second.
pub fn kreqs(v: f64) -> String {
    format!("{:.0}", v / 1000.0)
}

/// Format seconds in the most readable unit.
pub fn time_s(v: f64) -> String {
    if v >= 1.0 {
        format!("{v:.2} s")
    } else if v >= 1e-3 {
        format!("{:.2} ms", v * 1e3)
    } else if v >= 1e-6 {
        format!("{:.1} µs", v * 1e6)
    } else {
        format!("{:.0} ns", v * 1e9)
    }
}

/// Format a ratio with two decimals and a trailing ×.
pub fn ratio(v: f64) -> String {
    format!("{v:.2}x")
}

/// `s` as a JSON string literal, quotes included.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    rhythm_obs::json_escape(s, &mut out);
    out.push('"');
    out
}

/// `v` as a JSON number with six decimals, or `null` when it is not
/// finite (JSON has no NaN or infinity).
pub fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_string()
    }
}

/// The machine a result was measured on — the fields every `benchmark/`
/// result carries (`nproc`, `cpu`, `kernel`, `rustc`, `commit`) — as a JSON
/// object. The commit is read from `.git` of the working directory and is
/// `unknown` outside a checkout.
pub fn machine_block() -> String {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let unknown = || "unknown".to_string();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = read("/proc/cpuinfo")
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(unknown);
    let kernel = read("/proc/sys/kernel/osrelease").unwrap_or_else(unknown);
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(unknown);
    let commit = read(".git/HEAD")
        .and_then(|head| match head.strip_prefix("ref: ") {
            Some(reference) => read(&format!(".git/{reference}")),
            None => Some(head),
        })
        .unwrap_or_else(unknown);
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"kernel\":{},\"rustc\":{},\"commit\":{}}}",
        json_str(&cpu),
        json_str(&kernel),
        json_str(&rustc),
        json_str(&commit),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].ends_with("22"));
        let widths: Vec<usize> = lines.iter().map(|l| l.len()).collect();
        assert_eq!(widths[0], widths[2], "aligned");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        render_table(&["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c\n\u{1}"), r#""a\"b\\c\n\u0001""#);
    }

    #[test]
    fn json_numbers_are_finite_or_null() {
        assert_eq!(json_f(1.5), "1.500000");
        assert_eq!(json_f(f64::NAN), "null");
        assert_eq!(json_f(f64::INFINITY), "null");
    }

    #[test]
    fn unit_formatting() {
        assert_eq!(kreqs(1_535_000.0), "1535");
        assert_eq!(time_s(0.024), "24.00 ms");
        assert_eq!(time_s(5e-6), "5.0 µs");
        assert_eq!(time_s(2.5), "2.50 s");
        assert_eq!(ratio(4.0), "4.00x");
    }
}
