//! Intuition-level ordering.
//!
//! The paper's closing discussion (§6) proposes to "consider the
//! concept of 'intuition level' of each organizational unit in addition
//! to its information content in defining the transmission order" — a
//! human prior (an author marking the abstract and conclusions as
//! must-read, a user preferring figures first) blended with the
//! computed content score.
//!
//! [`IntuitionOrdering`] assigns each unit an intuition level in
//! `[0, 1]` and combines it with the content score through a mixing
//! weight λ: `priority = (1 − λ)·content + λ·intuition·mass_scale`,
//! where `mass_scale` normalizes intuition to the same magnitude as the
//! content scores so λ interpolates meaningfully.

use std::collections::BTreeMap;

use crate::plan::{TransmissionPlan, UnitSlice};

/// Human-assigned priorities blended with content scores.
///
/// # Example
///
/// ```
/// use mrtweb_transport::intuition::IntuitionOrdering;
/// use mrtweb_transport::plan::UnitSlice;
///
/// let slices = vec![
///     UnitSlice::new("intro", 100, 0.5),
///     UnitSlice::new("appendix", 100, 0.5),
/// ];
/// // Contents tie; intuition promotes the intro.
/// let mut ord = IntuitionOrdering::new(0.5);
/// ord.set("intro", 1.0);
/// ord.set("appendix", 0.0);
/// let plan = ord.plan(&slices);
/// assert_eq!(plan.slices()[0].label, "intro");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IntuitionOrdering {
    levels: BTreeMap<String, f64>,
    lambda: f64,
}

impl IntuitionOrdering {
    /// Creates an ordering with mixing weight `lambda ∈ [0, 1]`:
    /// 0 = pure content order, 1 = pure intuition order.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is outside `[0, 1]`.
    pub fn new(lambda: f64) -> Self {
        assert!((0.0..=1.0).contains(&lambda), "lambda must be in [0, 1]");
        IntuitionOrdering {
            levels: BTreeMap::new(),
            lambda,
        }
    }

    /// Sets the intuition level of a unit label.
    ///
    /// # Panics
    ///
    /// Panics if `level` is outside `[0, 1]`.
    pub fn set(&mut self, label: impl Into<String>, level: f64) -> &mut Self {
        assert!(
            (0.0..=1.0).contains(&level),
            "intuition level must be in [0, 1]"
        );
        self.levels.insert(label.into(), level);
        self
    }

    /// The intuition level of a label (default 0).
    pub fn level(&self, label: &str) -> f64 {
        self.levels.get(label).copied().unwrap_or(0.0)
    }

    /// The mixing weight λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The blended priority of one slice.
    pub fn priority(&self, slice: &UnitSlice, mass_scale: f64) -> f64 {
        (1.0 - self.lambda) * slice.content + self.lambda * self.level(&slice.label) * mass_scale
    }

    /// Builds a transmission plan ordered by blended priority
    /// (descending; ties keep the input order).
    pub fn plan(&self, slices: &[UnitSlice]) -> TransmissionPlan {
        // Scale intuition to the mean content mass so λ interpolates
        // between comparable quantities.
        let mass_scale = if slices.is_empty() {
            1.0
        } else {
            (slices.iter().map(|s| s.content).sum::<f64>() / slices.len() as f64).max(1e-12)
                * slices.len() as f64
        };
        let mut order: Vec<usize> = (0..slices.len()).collect();
        let prio: Vec<f64> = slices
            .iter()
            .map(|s| self.priority(s, mass_scale))
            .collect();
        order.sort_by(|&a, &b| prio[b].total_cmp(&prio[a]));
        TransmissionPlan::sequential(order.into_iter().map(|i| slices[i].clone()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slices() -> Vec<UnitSlice> {
        vec![
            UnitSlice::new("a", 10, 0.1),
            UnitSlice::new("b", 10, 0.6),
            UnitSlice::new("c", 10, 0.3),
        ]
    }

    #[test]
    fn lambda_zero_is_pure_content_order() {
        let ord = IntuitionOrdering::new(0.0);
        let plan = ord.plan(&slices());
        let labels: Vec<&str> = plan.slices().iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["b", "c", "a"]);
    }

    #[test]
    fn lambda_one_is_pure_intuition_order() {
        let mut ord = IntuitionOrdering::new(1.0);
        ord.set("a", 0.9).set("b", 0.1).set("c", 0.5);
        let plan = ord.plan(&slices());
        let labels: Vec<&str> = plan.slices().iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["a", "c", "b"]);
    }

    #[test]
    fn blend_promotes_marked_units_without_destroying_content_order() {
        let mut ord = IntuitionOrdering::new(0.3);
        ord.set("a", 1.0); // weak content, strong intuition
        let plan = ord.plan(&slices());
        let labels: Vec<&str> = plan.slices().iter().map(|s| s.label.as_str()).collect();
        // "a" climbs above "c" but the strong-content "b" stays first.
        assert_eq!(labels, ["b", "a", "c"]);
    }

    #[test]
    fn unknown_labels_default_to_zero_intuition() {
        let mut ord = IntuitionOrdering::new(0.5);
        ord.set("b", 0.0);
        assert_eq!(ord.level("zzz"), 0.0);
        let plan = ord.plan(&slices());
        assert_eq!(plan.slices().len(), 3);
    }

    #[test]
    fn plan_preserves_total_content_and_bytes() {
        let mut ord = IntuitionOrdering::new(0.7);
        ord.set("a", 0.4);
        let plan = ord.plan(&slices());
        assert!((plan.total_content() - 1.0).abs() < 1e-12);
        assert_eq!(plan.total_bytes(), 30);
    }

    #[test]
    fn empty_slices_yield_empty_plan() {
        let ord = IntuitionOrdering::new(0.5);
        let plan = ord.plan(&[]);
        assert!(plan.slices().is_empty());
    }

    #[test]
    #[should_panic(expected = "lambda must be in")]
    fn bad_lambda_panics() {
        let _ = IntuitionOrdering::new(1.5);
    }

    #[test]
    #[should_panic(expected = "intuition level must be in")]
    fn bad_level_panics() {
        IntuitionOrdering::new(0.5).set("x", 2.0);
    }
}
