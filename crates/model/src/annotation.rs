//! Per-erratum annotations: triggers, contexts, effects on all three levels.

use serde::{Deserialize, Serialize};

use crate::catset::{ContextSet, EffectSet, TriggerSet};
use crate::msr::MsrRef;
use crate::taxonomy::TriggerClass;

/// The RemembERR annotation of one erratum.
///
/// Abstract-level categories are stored in the three bitsets; the concrete
/// level keeps the text snippets the categories were derived from. The
/// *class* level is derived on demand ([`Annotation::trigger_classes`]).
///
/// Semantics (the paper's key observation): `triggers` are **conjunctive** —
/// all must be applied — while `contexts` and `effects` are **disjunctive** —
/// any one suffices.
///
/// # Examples
///
/// ```
/// use rememberr_model::{Annotation, Trigger, Context, Effect};
///
/// let ann = Annotation::builder()
///     .trigger(Trigger::FloatingPoint, "Execution of FSAVE or FNSAVE")
///     .context(Context::RealMode, "operating in real-address mode")
///     .effect(Effect::Unpredictable, "incorrect value for the x87 FDP")
///     .build();
/// assert_eq!(ann.triggers.len(), 1);
/// assert_eq!(ann.complexity(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Annotation {
    /// Necessary (conjunctive) abstract triggers.
    pub triggers: TriggerSet,
    /// Applicable (disjunctive) abstract contexts.
    pub contexts: ContextSet,
    /// Observable (disjunctive) abstract effects.
    pub effects: EffectSet,
    /// Concrete-level trigger descriptions, parallel to `triggers` members.
    pub concrete_triggers: Vec<String>,
    /// Concrete-level context descriptions.
    pub concrete_contexts: Vec<String>,
    /// Concrete-level effect descriptions.
    pub concrete_effects: Vec<String>,
    /// MSRs in which the bug's effects are observable (Figure 19).
    pub msrs: Vec<MsrRef>,
    /// True if the erratum only says a "complex set of conditions" is
    /// required (8.7% of Intel, 20.8% of AMD unique errata) — such triggers
    /// are ignored by the trigger-count analyses as too imprecise.
    pub complex_conditions: bool,
}

impl Annotation {
    /// An empty annotation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts building an annotation.
    pub fn builder() -> AnnotationBuilder {
        AnnotationBuilder::new()
    }

    /// Bug-complexity estimate: the number of necessary triggers.
    ///
    /// The paper uses "the more necessary conditions are involved, the more
    /// complex the bug is to trigger" (Section V-A2); Figure 11 is the
    /// histogram of this quantity.
    pub fn complexity(&self) -> usize {
        self.triggers.len()
    }

    /// True if no clear trigger was identified (14.4% of errata are excluded
    /// from Figure 11 on this basis).
    pub fn has_no_clear_trigger(&self) -> bool {
        self.triggers.is_empty()
    }

    /// Trigger classes represented in this annotation, in table order.
    pub fn trigger_classes(&self) -> Vec<TriggerClass> {
        let mut classes: Vec<TriggerClass> = self.triggers.iter().map(|t| t.class()).collect();
        classes.sort_unstable();
        classes.dedup();
        classes
    }

    /// True under the paper's detectability model: the bug is detectable by
    /// a campaign that applies **all** of `applied_triggers` while in **any**
    /// annotated context, watching `watched_effects`.
    pub fn detectable_by(
        &self,
        applied_triggers: &TriggerSet,
        watched_effects: &EffectSet,
    ) -> bool {
        self.triggers.satisfied_by_all(applied_triggers)
            && self.effects.satisfied_by_any(watched_effects)
    }
}

/// Builder for [`Annotation`] keeping abstract categories and their concrete
/// snippets in sync.
#[derive(Debug, Clone, Default)]
pub struct AnnotationBuilder {
    annotation: Annotation,
}

impl AnnotationBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a trigger with its concrete-level snippet.
    pub fn trigger(mut self, trigger: crate::taxonomy::Trigger, concrete: &str) -> Self {
        self.annotation.triggers.insert(trigger);
        self.annotation.concrete_triggers.push(concrete.to_string());
        self
    }

    /// Adds a context with its concrete-level snippet.
    pub fn context(mut self, context: crate::taxonomy::Context, concrete: &str) -> Self {
        self.annotation.contexts.insert(context);
        self.annotation.concrete_contexts.push(concrete.to_string());
        self
    }

    /// Adds an effect with its concrete-level snippet.
    pub fn effect(mut self, effect: crate::taxonomy::Effect, concrete: &str) -> Self {
        self.annotation.effects.insert(effect);
        self.annotation.concrete_effects.push(concrete.to_string());
        self
    }

    /// Records an MSR in which the effect is observable.
    pub fn msr(mut self, msr: MsrRef) -> Self {
        self.annotation.msrs.push(msr);
        self
    }

    /// Marks the erratum as only specifying a "complex set of conditions".
    pub fn complex_conditions(mut self) -> Self {
        self.annotation.complex_conditions = true;
        self
    }

    /// Finishes building.
    pub fn build(self) -> Annotation {
        self.annotation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msr::MsrName;
    use crate::taxonomy::{Context, Effect, Trigger};

    fn fdp_annotation() -> Annotation {
        // Table VII: the paper's machine-readable rendering of erratum ADL001.
        Annotation::builder()
            .trigger(
                Trigger::FloatingPoint,
                "Execution of FSAVE, FNSAVE, FSTENV, or FNSTENV",
            )
            .context(
                Context::RealMode,
                "Operating in real-address mode or virtual-8086 mode",
            )
            .effect(Effect::Unpredictable, "Incorrect value for the x87 FDP")
            .build()
    }

    #[test]
    fn builder_keeps_levels_in_sync() {
        let ann = fdp_annotation();
        assert_eq!(ann.triggers.len(), ann.concrete_triggers.len());
        assert_eq!(ann.contexts.len(), ann.concrete_contexts.len());
        assert_eq!(ann.effects.len(), ann.concrete_effects.len());
    }

    #[test]
    fn complexity_counts_triggers() {
        let ann = Annotation::builder()
            .trigger(Trigger::Reset, "warm reset")
            .trigger(Trigger::Pcie, "ongoing PCIe traffic")
            .build();
        assert_eq!(ann.complexity(), 2);
        assert!(!ann.has_no_clear_trigger());
        assert!(Annotation::new().has_no_clear_trigger());
    }

    #[test]
    fn class_level_is_derived() {
        let ann = Annotation::builder()
            .trigger(Trigger::Reset, "a")
            .trigger(Trigger::Pcie, "b")
            .trigger(Trigger::Debug, "c")
            .build();
        assert_eq!(
            ann.trigger_classes(),
            vec![TriggerClass::Ext, TriggerClass::Fea]
        );
    }

    #[test]
    fn detectability_model() {
        let ann = Annotation::builder()
            .trigger(Trigger::Reset, "reset")
            .trigger(Trigger::Pcie, "PCIe")
            .effect(Effect::Hang, "hang")
            .effect(Effect::MsrValue, "bad MSR")
            .build();
        let all_triggers: TriggerSet = [Trigger::Reset, Trigger::Pcie].into_iter().collect();
        let partial: TriggerSet = [Trigger::Reset].into_iter().collect();
        let watch_msrs: EffectSet = [Effect::MsrValue].into_iter().collect();
        let watch_usb: EffectSet = [Effect::Usb].into_iter().collect();

        assert!(ann.detectable_by(&all_triggers, &watch_msrs));
        // Triggers are conjunctive: a missing trigger means no detection.
        assert!(!ann.detectable_by(&partial, &watch_msrs));
        // Effects are disjunctive: watching the wrong place means no detection.
        assert!(!ann.detectable_by(&all_triggers, &watch_usb));
    }

    #[test]
    fn msrs_and_complex_flag() {
        let ann = Annotation::builder()
            .effect(Effect::MsrValue, "wrong MC status")
            .msr(MsrRef::canonical(MsrName::McStatus))
            .complex_conditions()
            .build();
        assert_eq!(ann.msrs.len(), 1);
        assert!(ann.complex_conditions);
    }

    #[test]
    fn serde_roundtrip() {
        let ann = fdp_annotation();
        let json = serde_json::to_string(&ann).unwrap();
        let back: Annotation = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ann);
    }
}
