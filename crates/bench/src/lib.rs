//! # vbi-bench — the benchmark harness of the VBI reproduction
//!
//! One binary per table/figure of the paper's evaluation:
//!
//! | binary | regenerates | run with |
//! |---|---|---|
//! | `table1` | Table 1 (simulation configuration) | `cargo run -p vbi-bench --release --bin table1` |
//! | `fig6` | Figure 6 (4 KiB-page systems vs Native) | `cargo run -p vbi-bench --release --bin fig6` |
//! | `fig7` | Figure 7 (large-page systems vs Native-2M) | `cargo run -p vbi-bench --release --bin fig7` |
//! | `fig8` | Figure 8 + Table 2 (quad-core weighted speedup) | `cargo run -p vbi-bench --release --bin fig8` |
//! | `fig9` | Figure 9 (PCM-DRAM placement) | `cargo run -p vbi-bench --release --bin fig9` |
//! | `fig10` | Figure 10 (TL-DRAM placement) | `cargo run -p vbi-bench --release --bin fig10` |
//! | `run_all` | everything above | `cargo run -p vbi-bench --release --bin run_all` |
//!
//! The trace length is configurable through `VBI_SIM_ACCESSES` (default
//! 150 000 measured accesses + 10% warm-up), at proportional runtime cost.
//! The length is part of the result, not only its precision: longer runs
//! move the VBI-2 and VBI-Full columns down (Figure 6's VBI-Full AVG reads
//! 1.51 at 75 000 accesses and 1.34 at 1.2 M), and Figure 9's IDEAL column
//! with them; the columns without a zero-line path hold.
//!
//! The library also holds [`migration`], the cross-shard migration driver
//! of the `migration` bench: the one part of this crate that runs the
//! concurrent service rather than the §7 reproduction (`vbi-sim`).

pub mod migration;

use vbi_sim::engine::EngineConfig;

/// Engine configuration for figure runs: `VBI_SIM_ACCESSES` accesses
/// (default 150 000) after a 10% warm-up, on a 4 GiB machine.
pub fn figure_config() -> EngineConfig {
    let accesses = std::env::var("VBI_SIM_ACCESSES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(150_000);
    EngineConfig {
        accesses,
        warmup: accesses / 10,
        seed: 2020, // ISCA 2020
        phys_frames: 1 << 20,
    }
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n=============================================================");
    println!("{title}");
    println!("=============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_config_defaults() {
        let cfg = figure_config();
        assert!(cfg.accesses >= 1000);
        assert_eq!(cfg.warmup, cfg.accesses / 10);
        assert_eq!(cfg.phys_frames, 1 << 20);
    }
}
