//! Report rendering: aligned text tables, CSV, and quick ASCII charts.

use crate::figures::FigureData;

/// Do two x-coordinates name the same sweep point?  Exact `==` breaks as
/// soon as an x is recomputed through floating point (a scaled sweep can
/// yield `0.30000000000000004` in one series and `0.3` in another), so
/// points are matched with a relative tolerance of one part in 10⁹.
///
/// This is *the* x-identity predicate for report rendering: both the row
/// dedup and the per-series lookups in [`text_table`] and [`csv`] must go
/// through it, or a near-tie x (inside tolerance of a dedup survivor)
/// would collapse to one row yet miss its lookup and render as a gap.
/// Note the tolerance is relative, so `0.0` only matches exactly `0.0`.
pub(crate) fn same_x(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// Render a figure's series as an aligned text table (x down the rows,
/// one column per series).
pub fn text_table(fig: &FigureData) -> String {
    let mut out = String::new();
    out.push_str(&format!("Figure {}: {}\n", fig.number, fig.title));
    // Collect the union of x values.
    let mut xs: Vec<f64> = fig
        .series
        .iter()
        .flat_map(|s| s.points.iter().map(|&(x, _)| x))
        .collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup_by(|a, b| same_x(*a, *b));
    out.push_str(&format!(
        "{:>12}",
        fig.x_label.split(' ').next_back().unwrap_or("x")
    ));
    for s in &fig.series {
        out.push_str(&format!("  {:>28}", truncate(&s.label, 28)));
    }
    out.push('\n');
    for &x in &xs {
        out.push_str(&format!("{x:>12.0}"));
        for s in &fig.series {
            match s.points.iter().find(|&&(px, _)| same_x(px, x)) {
                Some(&(_, y)) => out.push_str(&format!("  {y:>28.3}")),
                None => out.push_str(&format!("  {:>28}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Render a figure as CSV (`x,series1,series2,...`).
pub fn csv(fig: &FigureData) -> String {
    let mut out = String::new();
    out.push('x');
    for s in &fig.series {
        out.push(',');
        out.push_str(&s.label.replace(',', ";"));
    }
    out.push('\n');
    let mut xs: Vec<f64> = fig
        .series
        .iter()
        .flat_map(|s| s.points.iter().map(|&(x, _)| x))
        .collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup_by(|a, b| same_x(*a, *b));
    for &x in &xs {
        out.push_str(&format!("{x}"));
        for s in &fig.series {
            out.push(',');
            if let Some(&(_, y)) = s.points.iter().find(|&&(px, _)| same_x(px, x)) {
                out.push_str(&format!("{y:.6}"));
            }
        }
        out.push('\n');
    }
    out
}

/// A quick ASCII chart of one figure (each series gets a letter).
pub fn ascii_chart(fig: &FigureData, width: usize, height: usize) -> String {
    let mut out = String::new();
    let all: Vec<(f64, f64)> = fig
        .series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .collect();
    if all.is_empty() {
        return format!("Figure {}: (no data)\n", fig.number);
    }
    let xmax = all
        .iter()
        .map(|&(x, _)| x)
        .fold(f64::MIN, f64::max)
        .max(1.0);
    let ymax = all
        .iter()
        .map(|&(_, y)| y)
        .fold(f64::MIN, f64::max)
        .max(1e-9);
    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in fig.series.iter().enumerate() {
        let mark = (b'A' + (si as u8 % 26)) as char;
        for &(x, y) in &s.points {
            let cx = ((x / xmax) * (width as f64 - 1.0)).round() as usize;
            let cy = ((y / ymax) * (height as f64 - 1.0)).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            let col = cx.min(width - 1);
            grid[row][col] = mark;
        }
    }
    out.push_str(&format!(
        "Figure {} — {} (ymax {:.2})\n",
        fig.number, fig.title, ymax
    ));
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    out.push('+');
    out.extend(std::iter::repeat_n('-', width));
    out.push_str(&format!("> {} (xmax {:.0})\n", fig.x_label, xmax));
    for (si, s) in fig.series.iter().enumerate() {
        let mark = (b'A' + (si as u8 % 26)) as char;
        out.push_str(&format!("  {mark} = {}\n", s.label));
    }
    out
}

fn truncate(s: &str, n: usize) -> &str {
    if s.len() <= n {
        s
    } else {
        &s[..n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::SeriesData;

    fn fig() -> FigureData {
        FigureData {
            number: 5,
            title: "Throughput vs. Users".into(),
            x_label: "No. of Users".into(),
            y_label: "Throughput".into(),
            series: vec![
                SeriesData {
                    label: "MDS GRIS (cache)".into(),
                    points: vec![(1.0, 0.2), (100.0, 20.0), (600.0, 120.0)],
                },
                SeriesData {
                    label: "Hawkeye Agent".into(),
                    points: vec![(1.0, 0.2), (100.0, 30.0)],
                },
            ],
        }
    }

    #[test]
    fn table_has_all_rows_and_gaps() {
        let t = text_table(&fig());
        assert!(t.contains("Figure 5"));
        assert!(t.contains("600"));
        assert!(t.contains("120.000"));
        // Agent has no 600-user point: rendered as '-'.
        let last = t.lines().last().unwrap();
        assert!(last.contains('-'), "{last}");
    }

    #[test]
    fn csv_round_numbers() {
        let c = csv(&fig());
        let mut lines = c.lines();
        assert_eq!(lines.next().unwrap(), "x,MDS GRIS (cache),Hawkeye Agent");
        assert!(c.contains("600,120.000000,"));
    }

    #[test]
    fn non_integer_x_values_align_across_series() {
        // The same sweep point computed two ways: 0.1 + 0.2 is not
        // bit-equal to 0.3, yet both series must land on one row.
        let f = FigureData {
            number: 0,
            title: "tolerance".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![
                SeriesData {
                    label: "a".into(),
                    points: vec![(0.1 + 0.2, 1.0)],
                },
                SeriesData {
                    label: "b".into(),
                    points: vec![(0.3, 2.0)],
                },
            ],
        };
        let t = text_table(&f);
        // One data row (header + one row), with both series populated.
        assert_eq!(t.lines().count(), 3, "{t}");
        let last = t.lines().last().unwrap();
        assert!(last.contains("1.000") && last.contains("2.000"), "{last}");
        let c = csv(&f);
        assert_eq!(c.lines().count(), 2, "{c}");
        let row = c.lines().nth(1).unwrap();
        assert!(
            row.contains("1.000000") && row.contains("2.000000"),
            "{row}"
        );
    }

    #[test]
    fn same_x_tolerance_boundaries() {
        // Inside the relative tolerance: matches.
        assert!(same_x(0.3, 0.1 + 0.2));
        assert!(same_x(1.0, 1.0 + 0.9e-9));
        assert!(same_x(1e6, 1e6 * (1.0 + 0.9e-9)));
        // Outside: distinct sweep points stay distinct.
        assert!(!same_x(1.0, 1.0 + 2.1e-9));
        assert!(!same_x(100.0, 101.0));
        // Relative, not absolute: zero only matches zero exactly…
        assert!(same_x(0.0, 0.0));
        assert!(!same_x(0.0, 1e-12));
        // …and symmetry holds on both sides.
        assert!(same_x(1.0 + 0.9e-9, 1.0));
        assert!(!same_x(1.0 + 2.1e-9, 1.0));
    }

    #[test]
    fn near_tie_x_collapses_to_one_populated_row() {
        // Two series compute "the same" x differing in the last ulps; the
        // dedup keeps one representative and both lookups must hit it.
        let x1 = 600.0;
        let x2 = 600.0 * (1.0 + 0.5e-9);
        assert!(same_x(x1, x2), "test premise: within tolerance");
        let f = FigureData {
            number: 0,
            title: "near tie".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![
                SeriesData {
                    label: "a".into(),
                    points: vec![(x1, 1.0)],
                },
                SeriesData {
                    label: "b".into(),
                    points: vec![(x2, 2.0)],
                },
            ],
        };
        let t = text_table(&f);
        assert_eq!(t.lines().count(), 3, "one header + one data row: {t}");
        let last = t.lines().last().unwrap();
        assert!(last.contains("1.000") && last.contains("2.000"), "{last}");
        let c = csv(&f);
        assert_eq!(c.lines().count(), 2, "{c}");
        let row = c.lines().nth(1).unwrap();
        assert!(
            row.contains("1.000000") && row.contains("2.000000"),
            "{row}"
        );
    }

    #[test]
    fn ascii_chart_renders() {
        let a = ascii_chart(&fig(), 40, 10);
        assert!(a.contains('A'));
        assert!(a.contains('B'));
        assert!(a.contains("MDS GRIS"));
    }
}
