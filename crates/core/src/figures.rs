//! Figure regeneration: sweeps producing every figure's data series.
//!
//! Each experiment set yields four figures from the same runs (throughput,
//! response time, load1, CPU load).  The sweep is expressed as a list of
//! self-contained [`PointSpec`] jobs — one per `(series, x)` — that the
//! parallel engine in `gridmon-runner` executes in any order; results
//! are byte-identical whatever the order because every point derives its
//! own seed from its key.
//! [`figure`] projects the metric a given figure plots.

use crate::runcfg::{Measurement, Metric};
use crate::scenario::catalogue::{self, Series};
use std::fmt;

/// One series of a figure: a label and `(x, y)` points.
#[derive(Debug, Clone)]
pub struct SeriesData {
    pub label: String,
    pub points: Vec<(f64, f64)>,
}

/// All data of one figure.
#[derive(Debug, Clone)]
pub struct FigureData {
    /// The paper's figure number: 5 for "Figure 5".
    pub number: u32,
    pub title: String,
    pub x_label: String,
    pub y_label: String,
    pub series: Vec<SeriesData>,
}

/// Complete measurements of one experiment set (before metric
/// projection).
#[derive(Debug, Clone)]
pub struct SetData {
    pub set: u32,
    pub series: Vec<(String, Vec<Measurement>)>,
}

/// Selection errors: the paper defines sets 1–4 (figures 5–20); this
/// reproduction adds the resilience set 5 (figures 21–24) and the
/// federation set 6 (figures 25–28).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigureError {
    /// Experiment sets are 1..=6.
    UnknownSet(u32),
    /// Figures are 5..=28.
    UnknownFigure(u32),
    /// The figure exists but belongs to a different set's data.
    FigureNotInSet { fig: u32, set: u32 },
}

impl fmt::Display for FigureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FigureError::UnknownSet(s) => {
                write!(
                    f,
                    "no experiment set {s}: sets 1-4 are the paper's, 5 is resilience, 6 is federation"
                )
            }
            FigureError::UnknownFigure(n) => {
                write!(
                    f,
                    "no figure {n}: figures 5-20 are the paper's, 21-24 resilience, 25-28 federation"
                )
            }
            FigureError::FigureNotInSet { fig, set } => {
                write!(f, "figure {fig} is not produced by experiment set {set}")
            }
        }
    }
}

impl std::error::Error for FigureError {}

/// Which metric each figure within a set plots, in paper order.
const SET_FIGS: [(u32, [u32; 4]); 6] = [
    (1, [5, 6, 7, 8]),
    (2, [9, 10, 11, 12]),
    (3, [13, 14, 15, 16]),
    (4, [17, 18, 19, 20]),
    (5, [21, 22, 23, 24]),
    (6, [25, 26, 27, 28]),
];

/// The metric and y-axis label of the `pos`-th figure of `set`.
fn metric_of(set: u32, pos: usize) -> (Metric, &'static str) {
    if set == 5 {
        // The resilience metrics of Figs 21-24; goodput is throughput,
        // since only completed queries count.
        return match pos {
            0 => (Metric::Availability, "Availability (fraction)"),
            1 => (Metric::Staleness, "Staleness (sec)"),
            2 => (Metric::Recovery, "Recovery Time (sec)"),
            _ => (Metric::Throughput, "Goodput (queries/sec)"),
        };
    }
    match pos {
        0 => (Metric::Throughput, "Throughput (queries/sec)"),
        1 => (Metric::ResponseTime, "Response Time (sec)"),
        2 => (Metric::Load1, "Load1"),
        _ => (Metric::CpuLoad, "CPU Load"),
    }
}

fn x_label(set: u32) -> &'static str {
    match set {
        1 | 2 => "No. of Users",
        3 => "# of Information Collectors",
        5 => "# of Faulted Components",
        _ => "# of Information Servers",
    }
}

fn set_title(set: u32, pos: usize) -> String {
    let subject = match set {
        1 => "Information Server",
        2 => "Directory Servers",
        3 => "Information Server",
        5 => "Monitoring Service",
        _ => "Aggregate Information Server",
    };
    let metric = metric_of(set, pos).1;
    format!("{subject} {metric} vs. {}", x_label(set))
}

// ======================================================================
// Point-level sweep decomposition
// ======================================================================

/// A self-contained unit of sweep work: one `(series, x)` point of the
/// built-in [`catalogue`] — a figure point or an extension-study point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointSpec {
    pub series: &'static Series,
    pub x: u32,
}

impl PointSpec {
    /// Stable textual identity of this point, used for seed derivation
    /// and as part of the result-cache address.
    pub fn key(&self) -> String {
        format!("{}/x={}", self.series.id(), self.x)
    }
}

/// Shrink a sweep's x-values by `scale` in `(0, 1]` (for quick runs);
/// 1.0 reproduces the paper's sweep.  Collapsed duplicates are removed.
/// An x of 0 (Set 5's unfaulted control point) is never scaled away.
pub fn scale_xs(xs: &[u32], scale: f64) -> Vec<u32> {
    let mut v: Vec<u32> = xs
        .iter()
        .map(|&x| {
            if x == 0 {
                0
            } else {
                ((f64::from(x) * scale).round() as u32).max(1)
            }
        })
        .collect();
    v.dedup();
    v
}

/// All points of one experiment set, series-major in paper order — the
/// job list both the sequential and the parallel runner execute.
pub fn enumerate_set(set: u32, scale: f64) -> Result<Vec<PointSpec>, FigureError> {
    let mut specs = Vec::new();
    for series in catalogue::in_set(set) {
        for x in scale_xs(&(series.spec)().x_values, scale) {
            specs.push(PointSpec { series, x });
        }
    }
    if specs.is_empty() {
        return Err(FigureError::UnknownSet(set));
    }
    Ok(specs)
}

/// Every point of the extension studies, in [`catalogue::EXTENSIONS`]
/// order, at each row's own x values.
pub fn enumerate_extensions() -> Vec<PointSpec> {
    catalogue::EXTENSIONS
        .iter()
        .flat_map(|series| {
            let xs = (series.spec)().x_values;
            xs.into_iter().map(move |x| PointSpec { series, x })
        })
        .collect()
}

/// Group per-point results (parallel to `specs`) back into a
/// [`SetData`], preserving paper series order.
pub fn assemble_set(set: u32, specs: &[PointSpec], results: &[Measurement]) -> SetData {
    assert_eq!(specs.len(), results.len(), "one result per spec");
    let mut series: Vec<(String, Vec<Measurement>)> = Vec::new();
    for (spec, m) in specs.iter().zip(results) {
        let label = spec.series.label;
        match series.last_mut() {
            Some((l, pts)) if l == label => pts.push(*m),
            _ => series.push((label.to_string(), vec![*m])),
        }
    }
    SetData { set, series }
}

/// Project one figure out of a set's measurements.
pub fn figure(data: &SetData, fig: u32) -> Result<FigureData, FigureError> {
    let (set, figs) = SET_FIGS
        .iter()
        .find(|(s, _)| *s == data.set)
        .ok_or(FigureError::UnknownSet(data.set))?;
    let pos = figs.iter().position(|&f| f == fig).ok_or_else(|| {
        if set_of_figure(fig).is_some() {
            FigureError::FigureNotInSet { fig, set: *set }
        } else {
            FigureError::UnknownFigure(fig)
        }
    })?;
    let (metric, y_label) = metric_of(*set, pos);
    Ok(FigureData {
        number: fig,
        title: set_title(*set, pos),
        x_label: x_label(*set).to_string(),
        y_label: y_label.to_string(),
        series: data
            .series
            .iter()
            .map(|(label, pts)| SeriesData {
                label: label.clone(),
                points: pts.iter().map(|m| (m.x, metric.of(m))).collect(),
            })
            .collect(),
    })
}

/// Title of one figure without running anything (`None` for unknown
/// figure numbers).  Lets the CLI's `--list` describe the catalogue.
pub fn figure_title(fig: u32) -> Option<String> {
    let set = set_of_figure(fig)?;
    let pos = figures_of_set(set).ok()?.iter().position(|&f| f == fig)?;
    Some(set_title(set, pos))
}

/// The set a figure belongs to.
pub fn set_of_figure(fig: u32) -> Option<u32> {
    SET_FIGS
        .iter()
        .find(|(_, figs)| figs.contains(&fig))
        .map(|(s, _)| *s)
}

/// The four figures an experiment set produces, in paper order.
pub fn figures_of_set(set: u32) -> Result<[u32; 4], FigureError> {
    SET_FIGS
        .iter()
        .find(|(s, _)| *s == set)
        .map(|(_, figs)| *figs)
        .ok_or(FigureError::UnknownSet(set))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_set_mapping() {
        assert_eq!(set_of_figure(5), Some(1));
        assert_eq!(set_of_figure(8), Some(1));
        assert_eq!(set_of_figure(12), Some(2));
        assert_eq!(set_of_figure(16), Some(3));
        assert_eq!(set_of_figure(20), Some(4));
        assert_eq!(set_of_figure(21), Some(5));
        assert_eq!(set_of_figure(24), Some(5));
        assert_eq!(set_of_figure(25), Some(6));
        assert_eq!(set_of_figure(28), Some(6));
        assert_eq!(set_of_figure(4), None);
        assert_eq!(set_of_figure(29), None);
        assert_eq!(figures_of_set(2).unwrap(), [9, 10, 11, 12]);
        assert_eq!(figures_of_set(5).unwrap(), [21, 22, 23, 24]);
        assert_eq!(figures_of_set(6).unwrap(), [25, 26, 27, 28]);
        assert_eq!(figures_of_set(9), Err(FigureError::UnknownSet(9)));
    }

    /// The whole observable surface of the figure catalogue, written
    /// from `figures --list all` of the commit before `Metric` existed:
    /// number, title, y-axis label, and the field each figure plots.
    #[test]
    fn every_figure_has_its_golden_title_label_and_metric() {
        use Metric::*;
        #[rustfmt::skip]
        const GOLDEN: [(u32, &str, &str, Metric); 24] = [
            (5, "Information Server Throughput (queries/sec) vs. No. of Users", "Throughput (queries/sec)", Throughput),
            (6, "Information Server Response Time (sec) vs. No. of Users", "Response Time (sec)", ResponseTime),
            (7, "Information Server Load1 vs. No. of Users", "Load1", Load1),
            (8, "Information Server CPU Load vs. No. of Users", "CPU Load", CpuLoad),
            (9, "Directory Servers Throughput (queries/sec) vs. No. of Users", "Throughput (queries/sec)", Throughput),
            (10, "Directory Servers Response Time (sec) vs. No. of Users", "Response Time (sec)", ResponseTime),
            (11, "Directory Servers Load1 vs. No. of Users", "Load1", Load1),
            (12, "Directory Servers CPU Load vs. No. of Users", "CPU Load", CpuLoad),
            (13, "Information Server Throughput (queries/sec) vs. # of Information Collectors", "Throughput (queries/sec)", Throughput),
            (14, "Information Server Response Time (sec) vs. # of Information Collectors", "Response Time (sec)", ResponseTime),
            (15, "Information Server Load1 vs. # of Information Collectors", "Load1", Load1),
            (16, "Information Server CPU Load vs. # of Information Collectors", "CPU Load", CpuLoad),
            (17, "Aggregate Information Server Throughput (queries/sec) vs. # of Information Servers", "Throughput (queries/sec)", Throughput),
            (18, "Aggregate Information Server Response Time (sec) vs. # of Information Servers", "Response Time (sec)", ResponseTime),
            (19, "Aggregate Information Server Load1 vs. # of Information Servers", "Load1", Load1),
            (20, "Aggregate Information Server CPU Load vs. # of Information Servers", "CPU Load", CpuLoad),
            (21, "Monitoring Service Availability (fraction) vs. # of Faulted Components", "Availability (fraction)", Availability),
            (22, "Monitoring Service Staleness (sec) vs. # of Faulted Components", "Staleness (sec)", Staleness),
            (23, "Monitoring Service Recovery Time (sec) vs. # of Faulted Components", "Recovery Time (sec)", Recovery),
            (24, "Monitoring Service Goodput (queries/sec) vs. # of Faulted Components", "Goodput (queries/sec)", Throughput),
            (25, "Aggregate Information Server Throughput (queries/sec) vs. # of Information Servers", "Throughput (queries/sec)", Throughput),
            (26, "Aggregate Information Server Response Time (sec) vs. # of Information Servers", "Response Time (sec)", ResponseTime),
            (27, "Aggregate Information Server Load1 vs. # of Information Servers", "Load1", Load1),
            (28, "Aggregate Information Server CPU Load vs. # of Information Servers", "CPU Load", CpuLoad),
        ];
        // Every field distinct, so a figure reading the wrong one shows.
        let m = Measurement {
            x: 1.0,
            throughput: 2.0,
            response_time: 3.0,
            load1: 4.0,
            cpu_load: 5.0,
            availability: 6.0,
            staleness_s: 7.0,
            recovery_s: 8.0,
            ..Default::default()
        };
        let mut figs = GOLDEN.iter();
        for (set, numbers) in SET_FIGS {
            let data = SetData {
                set,
                series: vec![("s".to_string(), vec![m])],
            };
            for n in numbers {
                let &(number, title, y_label, metric) = figs.next().expect("24 golden rows");
                assert_eq!(n, number);
                assert_eq!(figure_title(n).as_deref(), Some(title));
                let fig = figure(&data, n).unwrap();
                assert_eq!((fig.number, fig.title.as_str()), (number, title));
                assert_eq!(fig.y_label, y_label);
                assert_eq!(fig.series[0].points, [(1.0, metric.of(&m))], "fig {n}");
            }
        }
        assert!(figs.next().is_none(), "every golden row was visited");
    }

    #[test]
    fn selection_errors_are_clean() {
        assert_eq!(
            enumerate_set(0, 1.0).unwrap_err(),
            FigureError::UnknownSet(0)
        );
        let data = SetData {
            set: 1,
            series: vec![],
        };
        assert_eq!(
            figure(&data, 9).unwrap_err(),
            FigureError::FigureNotInSet { fig: 9, set: 1 }
        );
        assert_eq!(
            figure(&data, 42).unwrap_err(),
            FigureError::UnknownFigure(42)
        );
        let msg = FigureError::UnknownSet(7).to_string();
        assert!(msg.contains("sets 1-4"), "{msg}");
        let msg = FigureError::UnknownFigure(42).to_string();
        assert!(msg.contains("25-28"), "{msg}");
    }

    #[test]
    fn enumeration_covers_every_series_point() {
        // Full-scale set 1: five series, one spec per swept x.
        let specs = enumerate_set(1, 1.0).unwrap();
        let expected: usize = catalogue::in_set(1)
            .map(|s| (s.spec)().x_values.len())
            .sum();
        assert_eq!(specs.len(), expected);
        // Scaling dedups collapsed x-values.
        let quick = enumerate_set(1, 0.01).unwrap();
        assert!(quick.len() < specs.len());
        assert!(quick.iter().all(|p| p.x >= 1));
        // Set 5 keeps its x=0 control point under any scale.
        let s5 = enumerate_set(5, 0.34).unwrap();
        assert_eq!(s5.len() % 3, 0, "three series");
        for series in catalogue::in_set(5) {
            assert!(s5.iter().any(|p| p.series == series && p.x == 0));
        }
        assert_eq!(scale_xs(&[0, 1, 2, 3, 4, 5], 1.0), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(scale_xs(&[0, 1, 2, 3, 4, 5], 0.4), vec![0, 1, 2]);
    }

    #[test]
    fn point_keys_extend_the_series_id() {
        let series = catalogue::find("set1/MDS GRIS (cache)").unwrap();
        let p = PointSpec { series, x: 50 };
        assert_eq!(p.key(), "set1/MDS GRIS (cache)/x=50");
        let ext: Vec<String> = enumerate_extensions().iter().map(PointSpec::key).collect();
        assert_eq!(ext.len(), 15);
        assert_eq!(ext[0], "ext/wan/lan-100mbit-0.1ms/x=100");
        assert_eq!(ext[5], "ext/hier-tree/x=120");
        assert_eq!(ext[14], "ext/composite/x=10");
    }

    #[test]
    fn assemble_groups_by_series_in_order() {
        let specs = enumerate_set(3, 0.05).unwrap();
        let results: Vec<Measurement> = specs
            .iter()
            .enumerate()
            .map(|(i, _)| Measurement {
                x: i as f64,
                ..Default::default()
            })
            .collect();
        let data = assemble_set(3, &specs, &results);
        assert_eq!(data.series.len(), 4, "set 3 has four series");
        let total: usize = data.series.iter().map(|(_, pts)| pts.len()).sum();
        assert_eq!(total, specs.len());
    }
}
