//! Multiprogrammed workload bundles (Table 2).

use super::spec::benchmark;
use super::trace::WorkloadSpec;

/// The six quad-core bundles of Table 2.
pub const BUNDLES: [(&str, [&str; 4]); 6] = [
    ("wl1", ["deepsjeng-17", "omnetpp-17", "bwaves-17", "lbm-17"]),
    ("wl2", ["Graph 500", "astar", "img-dnn", "moses"]),
    ("wl3", ["mcf", "GemsFDTD", "astar", "milc"]),
    ("wl4", ["milc", "namd", "GemsFDTD", "bzip2"]),
    ("wl5", ["bzip2", "GemsFDTD", "sjeng", "mcf"]),
    ("wl6", ["namd", "bzip2", "astar", "sjeng"]),
];

/// Resolves a bundle name ("wl1".."wl6") to its four workload specs.
pub fn bundle(name: &str) -> Option<Vec<WorkloadSpec>> {
    let (_, apps) = BUNDLES.iter().find(|(n, _)| *n == name)?;
    Some(apps.iter().map(|a| benchmark(a).expect("bundles use known benchmarks")).collect())
}

/// All bundle names in order.
pub fn bundle_names() -> Vec<&'static str> {
    BUNDLES.iter().map(|(n, _)| *n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_bundles_resolve_to_four_apps() {
        for name in bundle_names() {
            let apps = bundle(name).unwrap();
            assert_eq!(apps.len(), 4, "{name}");
        }
    }

    #[test]
    fn table2_contents() {
        let wl5 = bundle("wl5").unwrap();
        let names: Vec<&str> = wl5.iter().map(|w| w.name).collect();
        assert_eq!(names, vec!["bzip2", "GemsFDTD", "sjeng", "mcf"]);
    }

    #[test]
    fn unknown_bundle_is_none() {
        assert!(bundle("wl7").is_none());
    }
}
