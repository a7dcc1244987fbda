//! Human-readable tuning reports: what the paper's performance surfaces
//! (Fig 8) summarise, as numbers — distribution statistics over the
//! search space, the top candidates, and what limits them — plus the
//! cache and tune-store counters that make a run's reuse behaviour
//! observable.

use crate::exhaustive::TuneOutcome;
use gpu_sim::{DeviceSpec, GridDims, LimitingFactor, SimOptions};
use inplane_core::{simulate_kernel, CacheStats, EvalContext, ExecStats, KernelSpec};

/// Counters of a persistent tune store, as surfaced in a [`TuneReport`].
///
/// The store itself lives in `stencil-tunestore` (which depends on this
/// crate); this mirror struct keeps the dependency one-way while still
/// letting reports carry store behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Lookups served from the store.
    pub hits: u64,
    /// Lookups that missed and fell through to a search.
    pub misses: u64,
    /// Persisted records skipped as corrupt (checksum/parse failures,
    /// truncated lines) or stale (schema-version mismatch) at load.
    pub corrupt: u64,
}

/// Distribution summary of a tuning run.
#[derive(Clone, Debug, PartialEq)]
pub struct TuneReport {
    /// Configurations measured.
    pub evaluated: usize,
    /// Best measured MPoint/s.
    pub best: f64,
    /// Median measured MPoint/s.
    pub median: f64,
    /// Lower-quartile MPoint/s.
    pub q1: f64,
    /// Upper-quartile MPoint/s.
    pub q3: f64,
    /// Worst feasible MPoint/s.
    pub worst_feasible: f64,
    /// Ratio best / median: how much auto-tuning buys over a blind pick.
    pub tuning_gain_over_median: f64,
    /// The limiting factor of the winning configuration.
    pub best_limited_by: LimitingFactor,
    /// Evaluation-cache counters for the run (`None` when summarised
    /// without a context).
    pub cache: Option<CacheStats>,
    /// Persistent tune-store counters (`None` when no store was used).
    pub store: Option<StoreCounters>,
    /// Per-code rejection histogram from the space enumeration (`None`
    /// when summarised without an audit).
    pub rejections: Option<Vec<(String, u64)>>,
    /// Instrumented counters from a functional replay of the winning
    /// configuration through the plan interpreter (`None` when the
    /// winner was not replayed).
    pub exec: Option<ExecStats>,
    /// Counters the static traffic oracle predicted for the winning
    /// configuration's plan (`None` when no prediction was attached).
    /// When [`Self::exec`] is also present the two must agree exactly;
    /// rendering surfaces any drift.
    pub predicted: Option<ExecStats>,
}

/// Nearest-rank quantile over an ascending-sorted non-empty slice.
///
/// `(len - 1) · q` is *rounded* to the nearest index — truncation would
/// bias q1/median/q3 low on small sample sets (e.g. the median of five
/// samples must be index 2, not whatever `floor` lands on for q = 0.5
/// after float noise, and q3 must be index 3, not 2).
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Summarise a completed tuning run (re-pricing the winner for its
/// limiting factor).
pub fn summarize(
    device: &DeviceSpec,
    kernel: &KernelSpec,
    dims: GridDims,
    outcome: &TuneOutcome,
) -> TuneReport {
    let mut feasible: Vec<f64> = outcome
        .samples
        .iter()
        .map(|s| s.mpoints)
        .filter(|&m| m > 0.0)
        .collect();
    feasible.sort_by(f64::total_cmp);
    let best = outcome.best.mpoints;
    let median = nearest_rank(&feasible, 0.5);
    let rep = simulate_kernel(
        device,
        kernel,
        &outcome.best.config,
        dims,
        &SimOptions::default(),
    );
    TuneReport {
        evaluated: outcome.evaluated(),
        best,
        median,
        q1: nearest_rank(&feasible, 0.25),
        q3: nearest_rank(&feasible, 0.75),
        worst_feasible: nearest_rank(&feasible, 0.0),
        tuning_gain_over_median: if median > 0.0 { best / median } else { 0.0 },
        best_limited_by: rep.limiting,
        cache: None,
        store: None,
        rejections: None,
        exec: None,
        predicted: None,
    }
}

/// [`summarize`], capturing the evaluation-cache counters of the
/// context the run used.
pub fn summarize_with(
    ctx: &EvalContext,
    device: &DeviceSpec,
    kernel: &KernelSpec,
    dims: GridDims,
    outcome: &TuneOutcome,
) -> TuneReport {
    let mut report = summarize(device, kernel, dims, outcome);
    report.cache = Some(ctx.stats());
    report
}

impl TuneReport {
    /// Attach persistent tune-store counters (builder style).
    pub fn with_store(mut self, counters: StoreCounters) -> Self {
        self.store = Some(counters);
        self
    }

    /// Attach the space enumeration's rejection histogram (builder
    /// style) — what [`crate::space::SpaceAudit`] collected.
    pub fn with_rejections(mut self, rejections: Vec<(String, u64)>) -> Self {
        self.rejections = Some(rejections);
        self
    }

    /// Attach the instrumented counters of a functional replay of the
    /// winning configuration (builder style).
    pub fn with_exec(mut self, exec: ExecStats) -> Self {
        self.exec = Some(exec);
        self
    }

    /// Attach the static traffic oracle's predicted counters for the
    /// winning configuration's plan (builder style).
    pub fn with_traffic(mut self, predicted: ExecStats) -> Self {
        self.predicted = Some(predicted);
        self
    }

    /// True when both a prediction and a replay are attached and they
    /// agree exactly; `None` when either side is missing.
    pub fn oracle_match(&self) -> Option<bool> {
        match (&self.predicted, &self.exec) {
            (Some(p), Some(e)) => Some(p == e),
            _ => None,
        }
    }

    /// Multi-line human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "evaluated {} configurations\n\
             best {:.0} MPoint/s (limited by {:?})\n\
             quartiles: {:.0} / {:.0} / {:.0} MPoint/s; worst feasible {:.0}\n\
             tuning gain over the median configuration: {:.2}x",
            self.evaluated,
            self.best,
            self.best_limited_by,
            self.q1,
            self.median,
            self.q3,
            self.worst_feasible,
            self.tuning_gain_over_median,
        );
        if let Some(c) = self.cache {
            out.push_str(&format!(
                "\neval cache: {} hits / {} misses / {} inserts ({:.0}% hit rate)",
                c.hits,
                c.misses,
                c.inserts,
                100.0 * c.hit_rate(),
            ));
        }
        if let Some(s) = self.store {
            out.push_str(&format!(
                "\ntune store: {} hits / {} misses / {} corrupt-or-stale skipped",
                s.hits, s.misses, s.corrupt,
            ));
        }
        if let Some(rej) = &self.rejections {
            let total: u64 = rej.iter().map(|(_, n)| n).sum();
            out.push_str(&format!("\nspace rejections ({total} coded reasons):"));
            for (code, n) in rej {
                out.push_str(&format!("\n  {code}  x{n}"));
            }
        }
        if let Some(p) = self.predicted {
            out.push_str(&format!(
                "\ntraffic oracle: {} cells staged, {} writes, {} rotations predicted",
                p.cells_staged, p.global_writes, p.pipeline_rotations,
            ));
            match self.oracle_match() {
                Some(true) => out.push_str(" — matches the replay exactly"),
                Some(false) => out.push_str(" — DISAGREES with the replay"),
                None => {}
            }
        }
        if let Some(e) = self.exec {
            out.push_str(&format!(
                "\nwinner replay: {} blocks, {} cells staged ({} halo / {} corner), \
                 {} writes, {} barriers, {} rotations, {:.2}x redundancy",
                e.blocks,
                e.cells_staged,
                e.staged_cells_by_zone[1..5].iter().sum::<u64>(),
                e.staged_cells_by_zone[5],
                e.useful_writes(),
                e.barriers,
                e.pipeline_rotations,
                e.redundancy(),
            ));
        }
        out
    }

    /// Machine-readable JSON rendering of the report, including the
    /// winner-replay [`ExecStats`] when one was attached.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"evaluated\":{},\"best_mpoints\":{:.3},\"median_mpoints\":{:.3},\
             \"q1_mpoints\":{:.3},\"q3_mpoints\":{:.3},\"worst_feasible_mpoints\":{:.3},\
             \"tuning_gain_over_median\":{:.4},\"best_limited_by\":\"{:?}\"",
            self.evaluated,
            self.best,
            self.median,
            self.q1,
            self.q3,
            self.worst_feasible,
            self.tuning_gain_over_median,
            self.best_limited_by,
        );
        if let Some(c) = self.cache {
            s.push_str(&format!(
                ",\"cache\":{{\"hits\":{},\"misses\":{},\"inserts\":{}}}",
                c.hits, c.misses, c.inserts
            ));
        }
        if let Some(st) = self.store {
            s.push_str(&format!(
                ",\"store\":{{\"hits\":{},\"misses\":{},\"corrupt\":{}}}",
                st.hits, st.misses, st.corrupt
            ));
        }
        if let Some(rej) = &self.rejections {
            let items: Vec<String> = rej
                .iter()
                .map(|(code, n)| format!("\"{code}\":{n}"))
                .collect();
            s.push_str(&format!(",\"rejections\":{{{}}}", items.join(",")));
        }
        if let Some(p) = self.predicted {
            s.push_str(&format!(
                ",\"predicted\":{{\"cells_staged\":{},\"global_writes\":{},\
                 \"barriers\":{},\"pipeline_rotations\":{},\"points_computed\":{}}}",
                p.cells_staged,
                p.global_writes,
                p.barriers,
                p.pipeline_rotations,
                p.points_computed,
            ));
            if let Some(matches) = self.oracle_match() {
                s.push_str(&format!(",\"oracle_match\":{matches}"));
            }
        }
        if let Some(e) = self.exec {
            let zones: Vec<String> = e.staged_cells_by_zone.iter().map(u64::to_string).collect();
            s.push_str(&format!(
                ",\"exec\":{{\"blocks\":{},\"planes_staged\":{},\"cells_staged\":{},\
                 \"staged_cells_by_zone\":[{}],\"global_writes\":{},\"barriers\":{},\
                 \"pipeline_rotations\":{},\"points_computed\":{},\
                 \"halo_planes_exchanged\":{},\"halo_cells_exchanged\":{},\
                 \"cells_copied_out\":{},\"redundancy\":{:.4}}}",
                e.blocks,
                e.planes_staged,
                e.cells_staged,
                zones.join(","),
                e.global_writes,
                e.barriers,
                e.pipeline_rotations,
                e.points_computed,
                e.halo_planes_exchanged,
                e.halo_cells_exchanged,
                e.cells_copied_out,
                e.redundancy(),
            ));
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{exhaustive_tune, exhaustive_tune_with, ParameterSpace};
    use inplane_core::{Method, Variant};
    use stencil_grid::Precision;

    fn run() -> (DeviceSpec, KernelSpec, GridDims, TuneOutcome) {
        let dev = DeviceSpec::gtx580();
        let k = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        let dims = GridDims::new(256, 256, 32);
        let space = ParameterSpace::quick_space(&dev, &k, &dims);
        let out = exhaustive_tune(&dev, &k, dims, &space, 1);
        (dev, k, dims, out)
    }

    #[test]
    fn quartiles_are_ordered() {
        let (dev, k, dims, out) = run();
        let rep = summarize(&dev, &k, dims, &out);
        assert!(rep.worst_feasible <= rep.q1);
        assert!(rep.q1 <= rep.median);
        assert!(rep.median <= rep.q3);
        assert!(rep.q3 <= rep.best);
        assert!(rep.tuning_gain_over_median >= 1.0);
        assert!(rep.evaluated > 0);
    }

    #[test]
    fn nearest_rank_pins_known_five_element_quartiles() {
        // Truncating (len-1)·q floors q1 to index 0 and q3 to index 2;
        // nearest-rank must land on indices 1 / 2 / 3.
        let sorted = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&sorted, 0.0), 10.0);
        assert_eq!(nearest_rank(&sorted, 0.25), 20.0);
        assert_eq!(nearest_rank(&sorted, 0.5), 30.0);
        assert_eq!(nearest_rank(&sorted, 0.75), 40.0);
        assert_eq!(nearest_rank(&sorted, 1.0), 50.0);
        // Four samples: q1 rounds (3·0.25 = 0.75) up to index 1.
        let four = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&four, 0.25), 2.0);
        assert_eq!(nearest_rank(&four, 0.75), 3.0);
        // Degenerate inputs stay total.
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
        assert_eq!(nearest_rank(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn tuning_buys_something_real() {
        // The paper's whole §IV-C point: the spread between a blind pick
        // and the tuned optimum is large.
        let (dev, k, dims, out) = run();
        let rep = summarize(&dev, &k, dims, &out);
        assert!(
            rep.tuning_gain_over_median > 1.15,
            "tuning gain {:.2}",
            rep.tuning_gain_over_median
        );
    }

    #[test]
    fn render_contains_the_numbers() {
        let (dev, k, dims, out) = run();
        let rep = summarize(&dev, &k, dims, &out);
        let s = rep.render();
        assert!(s.contains("best"));
        assert!(s.contains("quartiles"));
        assert!(!s.contains("eval cache"), "no counters without a context");
    }

    #[test]
    fn rejections_surface_in_render() {
        let dev = DeviceSpec::gtx580();
        let k = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        let dims = GridDims::new(256, 256, 32);
        let (space, audit) = ParameterSpace::paper_space_audited(&dev, &k, &dims);
        let out = exhaustive_tune(&dev, &k, dims, &space, 1);
        let rep = summarize(&dev, &k, dims, &out).with_rejections(audit.rejections.clone());
        let s = rep.render();
        assert!(s.contains("space rejections"), "{s}");
        assert!(s.contains("LNT-R002"), "{s}");
        // Without an audit the section is absent.
        let plain = summarize(&dev, &k, dims, &out).render();
        assert!(!plain.contains("space rejections"));
    }

    #[test]
    fn exec_stats_surface_in_render_and_json() {
        let (dev, k, dims, out) = run();
        let stats = {
            use stencil_grid::{Boundary, FillPattern, Grid3, StarStencil};
            let s: StarStencil<f32> = StarStencil::from_order(4);
            let input: Grid3<f32> = FillPattern::HashNoise.build(12, 12, 12);
            let mut o = Grid3::new(12, 12, 12);
            inplane_core::execute_step(
                Method::InPlane(Variant::FullSlice),
                &s,
                &inplane_core::LaunchConfig::new(4, 4, 1, 1),
                &input,
                &mut o,
                Boundary::CopyInput,
            )
        };
        let rep = summarize(&dev, &k, dims, &out).with_exec(stats);
        let rendered = rep.render();
        assert!(rendered.contains("winner replay:"), "{rendered}");
        assert!(rendered.contains("redundancy"), "{rendered}");
        let json = rep.to_json();
        for key in [
            "\"exec\":",
            "\"cells_staged\":",
            "\"staged_cells_by_zone\":",
            "\"barriers\":",
            "\"pipeline_rotations\":",
            "\"redundancy\":",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        // A plain single-step replay writes every point exactly once.
        assert!(json.contains("\"redundancy\":1.0000"), "{json}");
        // Without a replay the section is absent.
        let plain = summarize(&dev, &k, dims, &out);
        assert!(!plain.render().contains("winner replay"));
        assert!(!plain.to_json().contains("\"exec\""));
    }

    #[test]
    fn oracle_surfaces_in_render_and_json() {
        let (dev, k, dims, out) = run();
        let plan = inplane_core::lower_step(
            Method::InPlane(Variant::FullSlice),
            &inplane_core::LaunchConfig::new(4, 4, 1, 1),
            2,
            (12, 12, 10),
        );
        let predicted = stencil_lint::predict_stats(&plan);
        let dynamic = {
            use stencil_grid::{FillPattern, Grid3, StarStencil};
            let s: StarStencil<f32> = StarStencil::diffusion(2);
            let input: Grid3<f32> = FillPattern::HashNoise.build(12, 12, 10);
            let mut o = Grid3::new(12, 12, 10);
            inplane_core::interpret_plan(&plan, &s, &input, &mut o)
        };
        let rep = summarize(&dev, &k, dims, &out)
            .with_traffic(predicted)
            .with_exec(dynamic);
        assert_eq!(rep.oracle_match(), Some(true));
        let rendered = rep.render();
        assert!(
            rendered.contains("matches the replay exactly"),
            "{rendered}"
        );
        let json = rep.to_json();
        for key in ["\"predicted\":", "\"oracle_match\":true"] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
        // A doctored prediction is called out, not silently accepted.
        let mut wrong = predicted;
        wrong.cells_staged += 1;
        let drifted = summarize(&dev, &k, dims, &out)
            .with_traffic(wrong)
            .with_exec(dynamic);
        assert_eq!(drifted.oracle_match(), Some(false));
        assert!(
            drifted.render().contains("DISAGREES"),
            "{}",
            drifted.render()
        );
        assert!(drifted.to_json().contains("\"oracle_match\":false"));
        // Without attachments the sections are absent.
        let plain = summarize(&dev, &k, dims, &out);
        assert_eq!(plain.oracle_match(), None);
        assert!(!plain.render().contains("traffic oracle"));
        assert!(!plain.to_json().contains("\"predicted\""));
    }

    #[test]
    fn counters_surface_in_render() {
        let dev = DeviceSpec::gtx580();
        let k = KernelSpec::star_order(Method::InPlane(Variant::FullSlice), 4, Precision::Single);
        let dims = GridDims::new(256, 256, 32);
        let space = ParameterSpace::quick_space(&dev, &k, &dims);
        let ctx = EvalContext::new();
        let out = exhaustive_tune_with(&ctx, &dev, &k, dims, &space, 1);
        let rep = summarize_with(&ctx, &dev, &k, dims, &out).with_store(StoreCounters {
            hits: 1,
            misses: 2,
            corrupt: 0,
        });
        let cache = rep.cache.expect("cache counters captured");
        assert_eq!(cache.misses as usize, space.len());
        let s = rep.render();
        assert!(s.contains("eval cache:"));
        assert!(s.contains("tune store: 1 hits / 2 misses"));
    }
}
