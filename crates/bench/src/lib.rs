//! Shared harness utilities for the experiment binaries and Criterion
//! benches: canonical workload configurations, adversarial scene
//! constructions, and plain-text table printing.
//!
//! Every experiment in `DESIGN.md`'s index (E1–E10) has one binary in
//! `src/bin/`; `run_all` executes them in sequence to regenerate the
//! numbers recorded in `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use be2d_geometry::{ObjectClass, Rect, Scene};
use be2d_workload::{Placement, SceneConfig};
use std::time::Duration;

/// Candidates a bounded `be2d-db` search exactly scores per batch.
/// The database fixes it; experiment reports carry it as `frontier`.
pub const FRONTIER: usize = 64;

/// The canonical random-scene configuration used across experiments
/// (uniform placement, 6-class alphabet), parameterised by object count.
#[must_use]
pub fn standard_config(objects: usize) -> SceneConfig {
    SceneConfig {
        width: 1024,
        height: 1024,
        objects,
        classes: 6,
        min_size: 8,
        max_size: 128,
        placement: Placement::Uniform,
    }
}

/// Best-case scene for BE-string storage (§3.1): `n` identical
/// whole-frame objects → `2n + 1` symbols per axis.
#[must_use]
pub fn best_case_scene(n: usize) -> Scene {
    let mut scene = Scene::new(1000, 1000).expect("frame");
    for _ in 0..n {
        scene
            .add(
                ObjectClass::new("A"),
                Rect::new(0, 1000, 0, 1000).expect("rect"),
            )
            .expect("fits");
    }
    scene
}

/// Worst-case scene for BE-string storage (§3.1): all boundaries
/// distinct with margins on all sides → `4n + 1` symbols per axis.
///
/// # Panics
///
/// Panics when `n` does not fit the fixed frame (n ≤ 12000).
#[must_use]
pub fn worst_case_scene(n: usize) -> Scene {
    let frame = (4 * n + 10) as i64;
    let mut scene = Scene::new(frame, frame).expect("frame");
    for i in 0..n as i64 {
        scene
            .add(
                ObjectClass::new("A"),
                Rect::new(4 * i + 1, 4 * i + 3, 4 * i + 1, 4 * i + 3).expect("rect"),
            )
            .expect("fits");
    }
    scene
}

/// Adversarial pile for the cutting baselines: `n` pairwise-overlapping
/// congruent squares → O(n²) G-string segments.
#[must_use]
pub fn overlap_pile_scene(n: usize) -> Scene {
    let side = (n + 1000) as i64;
    let mut scene = Scene::new(2 * side, 2 * side).expect("frame");
    for i in 0..n as i64 {
        scene
            .add(
                ObjectClass::new("X"),
                Rect::new(i, 1000 + i, i, 1000 + i).expect("rect"),
            )
            .expect("fits");
    }
    scene
}

/// Formats a duration with 3 significant figures and a sensible unit.
#[must_use]
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos() as f64;
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.2}us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

/// Prints a row of right-aligned cells under the given column widths.
#[must_use]
pub fn table_row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Measures the median wall-clock time of `f` over `reps` runs.
pub fn median_time<F: FnMut()>(reps: usize, mut f: F) -> Duration {
    let mut samples: Vec<Duration> = (0..reps.max(1))
        .map(|_| {
            let t0 = std::time::Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use be2d_core::convert_scene;

    #[test]
    fn best_case_hits_lower_bound() {
        let s = convert_scene(&best_case_scene(7));
        assert_eq!(s.x().len(), 15);
        assert_eq!(s.y().len(), 15);
    }

    #[test]
    fn worst_case_hits_upper_bound() {
        let s = convert_scene(&worst_case_scene(9));
        assert_eq!(s.x().len(), 37);
        assert_eq!(s.y().len(), 37);
    }

    #[test]
    fn overlap_pile_is_quadratic_for_gstring() {
        use be2d_strings2d::GString;
        let scene = overlap_pile_scene(12);
        assert!(GString::from_scene(&scene).segment_count() >= 12 * 12);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500ns");
        assert_eq!(fmt_duration(Duration::from_micros(1500)), "1.50ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
        assert!(fmt_duration(Duration::from_micros(12)).ends_with("us"));
    }

    #[test]
    fn table_row_aligns() {
        let row = table_row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(row, "  a    bb");
    }

    #[test]
    fn median_time_runs() {
        let d = median_time(3, || {
            std::hint::black_box(1 + 1);
        });
        assert!(d < Duration::from_secs(1));
    }
}
