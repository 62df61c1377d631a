//! Figure/table-shaped reporting helpers.
//!
//! The bench binaries print rows that mirror the paper's figures: one row
//! per benchmark, one column per system, normalized to the figure's
//! baseline, with `AVG` and (for Figure 6) `AVG-no-mcf` rows.

use crate::engine::RunResult;
use crate::systems::SystemKind;

/// Arithmetic mean (the paper reports arithmetic-average speedups).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// A speedup matrix: rows = workloads, columns = systems, all normalized to
/// one baseline system.
#[derive(Debug, Clone)]
pub struct SpeedupTable {
    /// Baseline system (the "1.0" of the figure).
    pub(crate) baseline: SystemKind,
    /// Column systems, in print order.
    pub(crate) systems: Vec<SystemKind>,
    /// `(workload, speedups-per-system)` rows.
    pub rows: Vec<(&'static str, Vec<f64>)>,
}

impl SpeedupTable {
    /// Builds a table from per-(workload, system) results. `results` must
    /// contain, for every workload, one run per system in `systems` plus one
    /// run of `baseline`.
    pub fn from_runs(
        baseline: SystemKind,
        systems: Vec<SystemKind>,
        results: &[RunResult],
    ) -> SpeedupTable {
        let mut workloads: Vec<&'static str> = results.iter().map(|r| r.workload).collect();
        workloads.dedup();
        let rows = workloads
            .iter()
            .map(|&w| {
                let base = results
                    .iter()
                    .find(|r| r.workload == w && r.system == baseline)
                    .unwrap_or_else(|| panic!("baseline run missing for {w}"));
                let speedups = systems
                    .iter()
                    .map(|&s| {
                        results
                            .iter()
                            .find(|r| r.workload == w && r.system == s)
                            .unwrap_or_else(|| panic!("run missing for {w} on {}", s.label()))
                            .speedup_over(base)
                    })
                    .collect();
                (w, speedups)
            })
            .collect();
        SpeedupTable { baseline, systems, rows }
    }

    /// Per-system average across all rows.
    pub fn averages(&self) -> Vec<f64> {
        (0..self.systems.len())
            .map(|i| mean(&self.rows.iter().map(|(_, s)| s[i]).collect::<Vec<f64>>()))
            .collect()
    }

    /// Per-system average excluding one workload (the figure's
    /// `AVG-no-mcf`).
    pub fn averages_excluding(&self, workload: &str) -> Vec<f64> {
        (0..self.systems.len())
            .map(|i| {
                mean(
                    &self
                        .rows
                        .iter()
                        .filter(|(w, _)| *w != workload)
                        .map(|(_, s)| s[i])
                        .collect::<Vec<f64>>(),
                )
            })
            .collect()
    }

    /// Speedup of one (workload, system) cell.
    pub fn cell(&self, workload: &str, system: SystemKind) -> Option<f64> {
        let col = self.systems.iter().position(|&s| s == system)?;
        self.rows.iter().find(|(w, _)| *w == workload).map(|(_, s)| s[col])
    }

    /// Renders the table as fixed-width text.
    pub(crate) fn render(&self, title: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("{title}\n"));
        out.push_str(&format!(
            "(speedup normalized to {}; higher is better)\n\n",
            self.baseline.label()
        ));
        out.push_str(&format!("{:<16}", "workload"));
        for s in &self.systems {
            out.push_str(&format!("{:>14}", s.label()));
        }
        out.push('\n');
        let width = 16 + 14 * self.systems.len();
        out.push_str(&"-".repeat(width));
        out.push('\n');
        for (w, speedups) in &self.rows {
            out.push_str(&format!("{w:<16}"));
            for v in speedups {
                out.push_str(&format!("{v:>14.2}"));
            }
            out.push('\n');
        }
        out.push_str(&"-".repeat(width));
        out.push('\n');
        out.push_str(&format!("{:<16}", "AVG"));
        for v in self.averages() {
            out.push_str(&format!("{v:>14.2}"));
        }
        out.push('\n');
        out
    }

    /// Renders the table plus an extra average row excluding `workload`.
    pub fn render_with_exclusion(&self, title: &str, workload: &str) -> String {
        let mut out = self.render(title);
        out.push_str(&format!("{:<16}", format!("AVG-no-{workload}")));
        for v in self.averages_excluding(workload) {
            out.push_str(&format!("{v:>14.2}"));
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::SystemCounters;

    fn result(workload: &'static str, system: SystemKind, ipc_millis: u64) -> RunResult {
        RunResult {
            workload,
            system,
            instructions: ipc_millis,
            cycles: 1000,
            counters: SystemCounters::default(),
            hetero: None,
        }
    }

    #[test]
    fn means() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn table_normalizes_to_baseline() {
        let results = vec![
            result("a", SystemKind::Native, 1000),
            result("a", SystemKind::Vbi1, 1500),
            result("a", SystemKind::PerfectTlb, 2000),
            result("b", SystemKind::Native, 500),
            result("b", SystemKind::Vbi1, 500),
            result("b", SystemKind::PerfectTlb, 1000),
        ];
        let table = SpeedupTable::from_runs(
            SystemKind::Native,
            vec![SystemKind::Vbi1, SystemKind::PerfectTlb],
            &results,
        );
        assert_eq!(table.cell("a", SystemKind::Vbi1), Some(1.5));
        assert_eq!(table.cell("b", SystemKind::PerfectTlb), Some(2.0));
        let avg = table.averages();
        assert!((avg[0] - 1.25).abs() < 1e-12);
        assert!((avg[1] - 2.0).abs() < 1e-12);
        let no_a = table.averages_excluding("a");
        assert!((no_a[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn render_contains_headers_and_rows() {
        let results =
            vec![result("mcf", SystemKind::Native, 100), result("mcf", SystemKind::Vbi2, 400)];
        let table = SpeedupTable::from_runs(SystemKind::Native, vec![SystemKind::Vbi2], &results);
        let text = table.render_with_exclusion("Figure 6", "mcf");
        assert!(text.contains("Figure 6"));
        assert!(text.contains("VBI-2"));
        assert!(text.contains("mcf"));
        assert!(text.contains("AVG-no-mcf"));
    }
}
