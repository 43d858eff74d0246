//! Plain-text rendering of regenerated figures.

use std::fmt::Write as _;

use crate::figures::FigureData;

/// Renders a figure as a fixed-width table: one row per x value, one
/// column per series.
///
/// ```
/// use bgpsim::figures::{FigureData, Series};
/// use bgpsim::report::render_table;
///
/// let fig = FigureData {
///     id: "fig00".into(),
///     title: "demo".into(),
///     x_label: "x".into(),
///     y_label: "y".into(),
///     series: vec![Series { name: "a".into(), points: vec![(1.0, 2.0)] }],
/// };
/// let table = render_table(&fig);
/// assert!(table.contains("demo"));
/// assert!(table.contains("a"));
/// ```
pub fn render_table(fig: &FigureData) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} — {}", fig.id, fig.title);
    let _ = writeln!(out, "y: {}", fig.y_label);

    let xs: Vec<f64> = fig
        .series
        .first()
        .map(|s| s.points.iter().map(|&(x, _)| x).collect())
        .unwrap_or_default();

    let mut header = format!("{:>14}", fig.x_label_short());
    for s in &fig.series {
        let _ = write!(header, " | {:>18}", truncate(&s.name, 18));
    }
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "{}", "-".repeat(header.len()));
    for (i, x) in xs.iter().enumerate() {
        let mut row = format!("{x:>14.3}");
        for s in &fig.series {
            match s.points.get(i) {
                Some(&(_, y)) => {
                    let _ = write!(row, " | {y:>18.3}");
                }
                None => {
                    let _ = write!(row, " | {:>18}", "-");
                }
            }
        }
        let _ = writeln!(out, "{row}");
    }
    out
}

/// Renders a figure as CSV (header: x label then series names).
pub fn render_csv(fig: &FigureData) -> String {
    let mut out = String::new();
    let mut header = vec![fig.x_label.clone()];
    header.extend(fig.series.iter().map(|s| s.name.clone()));
    let _ = writeln!(out, "{}", header.join(","));
    let xs: Vec<f64> = fig
        .series
        .first()
        .map(|s| s.points.iter().map(|&(x, _)| x).collect())
        .unwrap_or_default();
    for (i, x) in xs.iter().enumerate() {
        let mut row = vec![format!("{x}")];
        for s in &fig.series {
            row.push(
                s.points
                    .get(i)
                    .map(|&(_, y)| format!("{y}"))
                    .unwrap_or_default(),
            );
        }
        let _ = writeln!(out, "{}", row.join(","));
    }
    out
}

/// Renders a figure as a GitHub-flavoured markdown table (the format
/// EXPERIMENTS.md uses).
///
/// ```
/// use bgpsim::figures::{FigureData, Series};
/// use bgpsim::report::render_markdown;
///
/// let fig = FigureData {
///     id: "fig00".into(),
///     title: "demo".into(),
///     x_label: "x".into(),
///     y_label: "y".into(),
///     series: vec![Series { name: "a".into(), points: vec![(1.0, 2.0)] }],
/// };
/// let md = render_markdown(&fig);
/// assert!(md.starts_with("| x |"));
/// assert!(md.contains("| 1 | 2.0 |"));
/// ```
pub fn render_markdown(fig: &FigureData) -> String {
    let mut out = String::new();
    let mut header = format!("| {} |", fig.x_label);
    let mut rule = String::from("|---:|");
    for s in &fig.series {
        let _ = write!(header, " {} |", s.name);
        rule.push_str("---:|");
    }
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "{rule}");
    let xs: Vec<f64> = fig
        .series
        .first()
        .map(|s| s.points.iter().map(|&(x, _)| x).collect())
        .unwrap_or_default();
    for (i, x) in xs.iter().enumerate() {
        let mut row = format!("| {x} |");
        for s in &fig.series {
            match s.points.get(i) {
                Some(&(_, y)) => {
                    let _ = write!(row, " {y:.1} |");
                }
                None => row.push_str(" - |"),
            }
        }
        let _ = writeln!(out, "{row}");
    }
    out
}

impl FigureData {
    fn x_label_short(&self) -> &str {
        if self.x_label.len() <= 14 {
            &self.x_label
        } else if self.x_label.starts_with("failure") {
            "failure %"
        } else {
            "x"
        }
    }
}

fn truncate(s: &str, max: usize) -> &str {
    if s.len() <= max {
        s
    } else {
        let mut end = max;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        &s[..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Series;

    fn demo() -> FigureData {
        FigureData {
            id: "figXX".into(),
            title: "A demo".into(),
            x_label: "MRAI (s)".into(),
            y_label: "delay (s)".into(),
            series: vec![
                Series {
                    name: "one".into(),
                    points: vec![(0.5, 10.0), (1.0, 5.0)],
                },
                Series {
                    name: "two".into(),
                    points: vec![(0.5, 12.0), (1.0, 6.0)],
                },
            ],
        }
    }

    #[test]
    fn table_contains_all_parts() {
        let t = render_table(&demo());
        assert!(t.contains("figXX"));
        assert!(t.contains("one"));
        assert!(t.contains("two"));
        assert!(t.contains("10.000"));
        assert!(t.contains("0.500"));
    }

    #[test]
    fn csv_is_well_formed() {
        let c = render_csv(&demo());
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "MRAI (s),one,two");
        assert_eq!(lines[1], "0.5,10,12");
    }

    #[test]
    fn empty_figure_renders() {
        let fig = FigureData {
            id: "e".into(),
            title: "empty".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![],
        };
        assert!(render_table(&fig).contains("empty"));
        assert_eq!(render_csv(&fig).lines().count(), 1);
    }

    #[test]
    fn markdown_is_well_formed() {
        let md = render_markdown(&demo());
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "| MRAI (s) | one | two |");
        assert_eq!(lines[1], "|---:|---:|---:|");
        assert!(lines[2].contains("10.0"));
    }

    #[test]
    fn long_series_names_truncate() {
        let mut fig = demo();
        fig.series[0].name = "a-very-long-series-name-indeed".into();
        let t = render_table(&fig);
        assert!(t.contains("a-very-long-series"));
    }
}
