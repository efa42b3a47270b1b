//! The four experiments of §5 (Figures 4–7).
//!
//! Every driver takes a [`Scale`] so the full paper-scale runs (200
//! documents × 50 repetitions) and fast CI-friendly runs share one code
//! path, and uses common random numbers across compared arms to tighten
//! the comparisons.

use mrtweb_docmodel::lod::Lod;
use mrtweb_transport::session::CacheMode;

use crate::browsing::replicate;
use crate::params::Params;
use crate::stats::Summary;

/// How much work to spend per cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Documents per browsing session.
    pub docs: usize,
    /// Repetitions per cell.
    pub reps: usize,
    /// Retry budget per document.
    pub max_rounds: usize,
}

impl Scale {
    /// The paper's scale: 200 documents, 50 repetitions.
    pub fn paper() -> Self {
        Scale {
            docs: 200,
            reps: 50,
            max_rounds: 200,
        }
    }

    /// A fast scale for tests and smoke runs.
    pub fn quick() -> Self {
        Scale {
            docs: 30,
            reps: 3,
            max_rounds: 60,
        }
    }

    fn apply(&self, params: &mut Params) {
        params.docs_per_session = self.docs;
        params.repetitions = self.reps;
        params.max_rounds = self.max_rounds;
    }
}

/// The α values every experiment sweeps.
pub const ALPHAS: [f64; 5] = [0.1, 0.2, 0.3, 0.4, 0.5];

/// One cell of Experiment 1 (Figure 4).
#[derive(Debug, Clone, PartialEq)]
pub struct Exp1Point {
    /// Cache mode of the panel.
    pub cache: CacheMode,
    /// Fraction of irrelevant documents (0 or 0.5).
    pub irrelevant: f64,
    /// Channel corruption probability.
    pub alpha: f64,
    /// Redundancy ratio γ (the x axis).
    pub gamma: f64,
    /// Mean response time summary over repetitions.
    pub summary: Summary,
}

/// Experiment 1: Caching vs NoCaching across redundancy ratios
/// γ ∈ {1.1 … 2.5}, α ∈ {0.1 … 0.5}, I ∈ {0, 0.5}, document LOD.
pub fn experiment1(scale: &Scale, seed: u64) -> Vec<Exp1Point> {
    let mut out = Vec::new();
    for cache in [CacheMode::NoCaching, CacheMode::Caching] {
        for irrelevant in [0.0, 0.5] {
            for &alpha in &ALPHAS {
                for step in 0..=14 {
                    let gamma = 1.1 + 0.1 * step as f64;
                    let mut params = Params {
                        alpha,
                        gamma,
                        cache_mode: cache,
                        irrelevant_fraction: irrelevant,
                        threshold: 0.5,
                        ..Default::default()
                    };
                    scale.apply(&mut params);
                    let summary = replicate(&params, Lod::Document, scale.reps, seed);
                    out.push(Exp1Point {
                        cache,
                        irrelevant,
                        alpha,
                        gamma,
                        summary,
                    });
                }
            }
        }
    }
    out
}

/// One cell of Experiment 2 (Figure 5).
#[derive(Debug, Clone, PartialEq)]
pub struct Exp2Point {
    /// Cache mode of the panel.
    pub cache: CacheMode,
    /// Channel corruption probability.
    pub alpha: f64,
    /// The swept value (I in the first set, F in the second).
    pub x: f64,
    /// Mean response time summary.
    pub summary: Summary,
}

/// Experiment 2 (first set): F = 0.5 fixed, I ∈ {0, 0.1, …, 1.0}.
pub fn experiment2_vary_i(scale: &Scale, seed: u64) -> Vec<Exp2Point> {
    sweep_exp2(scale, seed, true)
}

/// Experiment 2 (second set): I = 0.5 fixed, F ∈ {0, 0.1, …, 1.0}.
pub fn experiment2_vary_f(scale: &Scale, seed: u64) -> Vec<Exp2Point> {
    sweep_exp2(scale, seed, false)
}

fn sweep_exp2(scale: &Scale, seed: u64, vary_i: bool) -> Vec<Exp2Point> {
    let mut out = Vec::new();
    for cache in [CacheMode::NoCaching, CacheMode::Caching] {
        for &alpha in &ALPHAS {
            for step in 0..=10 {
                let x = step as f64 / 10.0;
                let (irrelevant, threshold) = if vary_i { (x, 0.5) } else { (0.5, x) };
                let mut params = Params {
                    alpha,
                    cache_mode: cache,
                    irrelevant_fraction: irrelevant,
                    threshold,
                    ..Default::default()
                };
                scale.apply(&mut params);
                let summary = replicate(&params, Lod::Document, scale.reps, seed);
                out.push(Exp2Point {
                    cache,
                    alpha,
                    x,
                    summary,
                });
            }
        }
    }
    out
}

/// One cell of Experiments 3 and 4 (Figures 6 and 7).
#[derive(Debug, Clone, PartialEq)]
pub struct ImprovementPoint {
    /// Channel corruption probability.
    pub alpha: f64,
    /// Skew factor δ.
    pub skew: f64,
    /// The transmission LOD.
    pub lod: Lod,
    /// Relevance threshold F (the x axis).
    pub f: f64,
    /// Mean response time at this LOD.
    pub lod_time: Summary,
    /// Mean response time at the document LOD (the baseline).
    pub document_time: Summary,
    /// Improvement = document-LOD time / this-LOD time.
    pub improvement: f64,
}

/// The LODs Experiments 3–4 compare (no subsubsection: the simulated
/// documents do not define one).
pub const LODS: [Lod; 4] = [Lod::Document, Lod::Section, Lod::Subsection, Lod::Paragraph];

/// Experiment 3: improvement of multi-resolution browsing per LOD, all
/// documents irrelevant (I = 1), Caching, α ∈ {0.1, 0.3, 0.5},
/// F ∈ {0.1 … 1.0}.
pub fn experiment3(scale: &Scale, seed: u64) -> Vec<ImprovementPoint> {
    let mut out = Vec::new();
    for &alpha in &[0.1, 0.3, 0.5] {
        out.extend(improvement_sweep(scale, seed, alpha, 3.0));
    }
    out
}

/// Experiment 4: impact of the skew factor, δ ∈ {2, 3, 4, 5}, α = 0.1.
pub fn experiment4(scale: &Scale, seed: u64) -> Vec<ImprovementPoint> {
    let mut out = Vec::new();
    for &skew in &[2.0, 3.0, 4.0, 5.0] {
        out.extend(improvement_sweep(scale, seed, 0.1, skew));
    }
    out
}

fn improvement_sweep(scale: &Scale, seed: u64, alpha: f64, skew: f64) -> Vec<ImprovementPoint> {
    let mut out = Vec::new();
    for step in 1..=10 {
        let f = step as f64 / 10.0;
        let mut params = Params {
            alpha,
            skew,
            cache_mode: CacheMode::Caching,
            irrelevant_fraction: 1.0,
            threshold: f,
            ..Default::default()
        };
        scale.apply(&mut params);
        // Common random numbers: every LOD arm sees the same seeds, so
        // documents and channel noise match across arms.
        let document_time = replicate(&params, Lod::Document, scale.reps, seed);
        for lod in LODS {
            let lod_time = if lod == Lod::Document {
                document_time
            } else {
                replicate(&params, lod, scale.reps, seed)
            };
            out.push(ImprovementPoint {
                alpha,
                skew,
                lod,
                f,
                lod_time,
                document_time,
                improvement: document_time.mean / lod_time.mean,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment1_shapes() {
        let scale = Scale {
            docs: 10,
            reps: 2,
            max_rounds: 40,
        };
        let pts = experiment1(&scale, 1);
        assert_eq!(pts.len(), 2 * 2 * 5 * 15);
        // γ grid is exact.
        assert!(pts.iter().any(|p| (p.gamma - 1.1).abs() < 1e-9));
        assert!(pts.iter().any(|p| (p.gamma - 2.5).abs() < 1e-9));
    }

    #[test]
    fn experiment1_caching_wins_at_high_alpha() {
        let scale = Scale {
            docs: 15,
            reps: 3,
            max_rounds: 60,
        };
        let pts = experiment1(&scale, 3);
        let cell = |cache, alpha: f64, gamma: f64| {
            pts.iter()
                .find(|p| {
                    p.cache == cache
                        && p.irrelevant == 0.0
                        && (p.alpha - alpha).abs() < 1e-9
                        && (p.gamma - gamma).abs() < 1e-9
                })
                .unwrap()
                .summary
                .mean
        };
        assert!(
            cell(CacheMode::Caching, 0.5, 1.5) < cell(CacheMode::NoCaching, 0.5, 1.5),
            "caching must beat nocaching at alpha=0.5, gamma=1.5"
        );
    }

    #[test]
    fn experiment2_response_time_decreases_with_i() {
        let scale = Scale {
            docs: 30,
            reps: 2,
            max_rounds: 60,
        };
        let pts = experiment2_vary_i(&scale, 5);
        let at = |x: f64| {
            pts.iter()
                .find(|p| {
                    p.cache == CacheMode::Caching
                        && (p.alpha - 0.1).abs() < 1e-9
                        && (p.x - x).abs() < 1e-9
                })
                .unwrap()
                .summary
                .mean
        };
        assert!(
            at(1.0) < at(0.0),
            "more irrelevant docs must mean faster sessions"
        );
    }

    #[test]
    fn experiment3_paragraph_lod_improves_at_low_f() {
        let scale = Scale {
            docs: 30,
            reps: 3,
            max_rounds: 60,
        };
        let pts = improvement_sweep(&scale, 9, 0.1, 3.0);
        let para_at_02 = pts
            .iter()
            .find(|p| p.lod == Lod::Paragraph && (p.f - 0.2).abs() < 1e-9)
            .unwrap();
        assert!(
            para_at_02.improvement > 1.1,
            "paragraph LOD improvement {} too small at F=0.2",
            para_at_02.improvement
        );
        // Document LOD improvement is identically 1.
        for p in pts.iter().filter(|p| p.lod == Lod::Document) {
            assert!((p.improvement - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn experiment4_higher_skew_more_improvement() {
        let scale = Scale {
            docs: 40,
            reps: 3,
            max_rounds: 60,
        };
        let low = improvement_sweep(&scale, 21, 0.1, 2.0);
        let high = improvement_sweep(&scale, 21, 0.1, 5.0);
        let peak = |pts: &[ImprovementPoint]| {
            pts.iter()
                .filter(|p| p.lod == Lod::Paragraph)
                .map(|p| p.improvement)
                .fold(f64::MIN, f64::max)
        };
        assert!(
            peak(&high) > peak(&low),
            "δ=5 peak {:.3} should exceed δ=2 peak {:.3}",
            peak(&high),
            peak(&low)
        );
    }
}
